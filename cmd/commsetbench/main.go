// Command commsetbench reproduces the paper's evaluation artifacts:
//
//	commsetbench -table1            feature comparison (Table 1)
//	commsetbench -table2            the 8-program evaluation (Table 2)
//	commsetbench -figure6           speedup-vs-threads series (Figure 6 a–i)
//	commsetbench -figure3           the three md5sum schedules (Figure 3)
//	commsetbench -claims            Section 5 qualitative claims checklist
//	commsetbench -auto              run figures under the profile-guided auto-scheduler
//	commsetbench -campaign LIST     run gated campaigns (comma-separated, or all)
//	commsetbench -all               everything
//
// All results are simulated virtual-time speedups over the sequential run
// of the same program on the same substrate (see DESIGN.md for the
// simulator substitution).
//
// The campaigns are gated sweeps, each writing BENCH_<name>.json to the
// current directory, also when its gate fails:
//
//	precision  analyzer precision gate (corpus expectations, workload cleanliness)
//	schedule   every Figure 6 cell under the profile-guided auto-scheduler
//	faults     workloads × schedules × sync modes under seeded fault and crash plans
//	service    open-system service runtime (arrival traces, admission, SLOs, degradation)
//	sanitize   dynamic sanitizer (races, commute replay, misannotation negatives)
//	steal      work stealing on/off under seeded straggler plans
//
// -smoke restricts every campaign to its CI-sized subset, -seed seeds the
// fault plans, arrival traces and straggler plans, and -hostpar runs
// independent cells on a host worker pool without changing any report.
// Before any simulation or campaign runs, every workload variant is
// passed through the commsetvet -werror gate (misannotation, race, and
// lint checks); -novet skips it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "print Table 1 (feature comparison)")
		table2   = flag.Bool("table2", false, "print Table 2 (evaluation summary)")
		figure6  = flag.Bool("figure6", false, "print Figure 6 (speedup vs threads)")
		figure3  = flag.Bool("figure3", false, "print Figure 3 (md5sum schedules)")
		claims   = flag.Bool("claims", false, "check Section 5 qualitative claims")
		ablation = flag.Bool("ablation", false, "run the annotation and synchronization ablations")
		campaign = flag.String("campaign", "", "run the named campaigns, comma-separated, or all ("+campaignNames()+"); each writes BENCH_<name>.json")
		smoke    = flag.Bool("smoke", false, "with -campaign: run each campaign's CI-sized subset")
		seed     = flag.Uint64("seed", 1, "with -campaign: seed of the fault plans, arrival traces and straggler plans")
		novet    = flag.Bool("novet", false, "skip the commsetvet -werror gate that runs before any simulation or campaign")
		auto     = flag.Bool("auto", false, "with -figure6: run the profile-guided auto-scheduler (adaptive schedule/chunk/batch/privatization)")
		all      = flag.Bool("all", false, "print everything and run every campaign")
		threads  = flag.Int("threads", 8, "maximum thread count")
		hostpar  = flag.Int("hostpar", 1, "host worker goroutines for campaign cells (0 = GOMAXPROCS); reports are byte-identical to sequential runs")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprof  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *all {
		*table1, *table2, *figure6, *figure3, *claims, *ablation, *campaign = true, true, true, true, true, true, "all"
	}
	campaigns, err := selectCampaigns(*campaign)
	if err != nil {
		fatal(err)
	}
	if !*table1 && !*table2 && !*figure6 && !*figure3 && !*claims && !*ablation && len(campaigns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The vet gate runs before any simulation or campaign: a misannotated
	// workload fails fast with its diagnostics instead of a wrong-output
	// mystery later.
	if simulating := *table2 || *figure6 || *figure3 || *claims || *ablation || len(campaigns) > 0; simulating && !*novet {
		if err := bench.VetWorkloads(os.Stdout, *threads); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *table1 {
		bench.PrintTable1(os.Stdout)
		fmt.Println()
	}
	if *table2 {
		if _, err := bench.Table2(os.Stdout, *threads); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *figure3 {
		if err := printFigure3(*threads); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	var figs []*bench.Figure
	if *figure6 || *claims {
		var err error
		figs, err = bench.PrintFigure6(figWriter(*figure6), *threads, *auto)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *claims {
		// The paper's Section 5 claims describe the fixed policies (e.g.
		// "PS-DSWP beats DOALL on kmeans at 8 threads" is a statement about
		// contended shared updates that privatization deliberately removes),
		// so with -auto the claims are checked on a separate non-auto pass.
		claimFigs := figs
		if *auto {
			var err error
			claimFigs, err = bench.PrintFigure6(figWriter(false), *threads, false)
			if err != nil {
				fatal(err)
			}
		}
		bench.PrintClaims(os.Stdout, bench.CheckClaims(claimFigs))
	}
	if *ablation {
		fmt.Println()
		if _, err := bench.RunAnnotationAblation(os.Stdout, *threads); err != nil {
			fatal(err)
		}
		fmt.Println()
		for _, name := range []string{"456.hmmer", "kmeans", "url"} {
			if _, err := bench.SyncAblation(os.Stdout, workloads.ByName(name), *threads); err != nil {
				fatal(err)
			}
		}
	}

	// Every selected campaign runs and writes its report even after an
	// earlier one failed, so a failing run leaves every report to diff.
	workers := *hostpar
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := bench.CampaignOptions{Threads: *threads, Seed: *seed, Smoke: *smoke, Workers: workers}
	failed := false
	for _, c := range campaigns {
		fmt.Println()
		if err := bench.RunCampaign(os.Stdout, ".", c, opts); err != nil {
			fmt.Fprintf(os.Stderr, "commsetbench: campaign %s: %v\n", c.Name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// selectCampaigns resolves the -campaign list: comma-separated names from
// bench.Campaigns, or all.
func selectCampaigns(list string) ([]bench.Campaign, error) {
	switch list {
	case "":
		return nil, nil
	case "all":
		return bench.Campaigns, nil
	}
	var out []bench.Campaign
	for _, name := range strings.Split(list, ",") {
		i := slices.IndexFunc(bench.Campaigns, func(c bench.Campaign) bool { return c.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown campaign %q (have %s, or all)", name, campaignNames())
		}
		out = append(out, bench.Campaigns[i])
	}
	return out, nil
}

// campaignNames lists the campaign names for help and error texts.
func campaignNames() string {
	var names []string
	for _, c := range bench.Campaigns {
		names = append(names, c.Name)
	}
	return strings.Join(names, ", ")
}

// figWriter is where PrintFigure6 renders: stdout when the figure was
// asked for, otherwise nowhere (the figures are still measured).
func figWriter(print bool) io.Writer {
	if print {
		return os.Stdout
	}
	return io.Discard
}

// printFigure3 reproduces the timeline comparison of Figure 3: sequential,
// PS-DSWP with in-order prints, and DOALL for md5sum.
func printFigure3(threads int) error {
	wl := workloads.ByName("md5sum")
	comm, err := bench.Compile(wl, "comm", threads)
	if err != nil {
		return err
	}
	det, err := bench.Compile(wl, "det", threads)
	if err != nil {
		return err
	}
	doall, err := comm.Run(transform.DOALL, exec.SyncLib, threads)
	if err != nil {
		return err
	}
	ps, err := det.Run(transform.PSDSWP, exec.SyncLib, threads)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 3: md5sum schedules on %d threads (virtual time)\n", threads)
	fmt.Printf("  %-34s %12s %9s\n", "schedule", "vtime", "speedup")
	fmt.Printf("  %-34s %12d %9.2f\n", "Sequential (in-order I/O)", comm.SeqCost, 1.0)
	fmt.Printf("  %-34s %12d %9.2f  (deterministic prints)\n", ps.Schedule, ps.VirtualTime, ps.Speedup)
	fmt.Printf("  %-34s %12d %9.2f  (out-of-order prints)\n", doall.Schedule, doall.VirtualTime, doall.Speedup)
	fmt.Printf("  paper: DOALL 7.6x, PS-DSWP 5.8x\n")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commsetbench:", err)
	os.Exit(1)
}
