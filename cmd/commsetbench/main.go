// Command commsetbench reproduces the paper's evaluation artifacts:
//
//	commsetbench -table1            feature comparison (Table 1)
//	commsetbench -table2            the 8-program evaluation (Table 2)
//	commsetbench -figure6           speedup-vs-threads series (Figure 6 a–i)
//	commsetbench -figure3           the three md5sum schedules (Figure 3)
//	commsetbench -claims            Section 5 qualitative claims checklist
//	commsetbench -faults            deterministic fault-injection campaign
//	commsetbench -service           open-system service campaign (arrivals, SLOs, degradation)
//	commsetbench -sanitize          dynamic sanitizer campaign (races, commute replay, misannotation negatives)
//	commsetbench -steal             work-stealing straggler campaign (steal on/off under seeded slowdowns)
//	commsetbench -vetprecision      analyzer precision gate (corpus + workloads)
//	commsetbench -auto              run figures under the profile-guided auto-scheduler
//	commsetbench -json FILE         write the schedule/speedup report (BENCH_schedule.json)
//	commsetbench -all               everything
//
// All results are simulated virtual-time speedups over the sequential run
// of the same program on the same substrate (see DESIGN.md for the
// simulator substitution).
//
// Before any simulation runs, every workload variant is passed through the
// commsetvet -werror gate (misannotation, race, and lint checks); -novet
// skips it. The -faults campaign sweeps workloads × schedules × sync modes
// under seeded fault plans (-faultseed) and asserts sequential-equivalent
// output for every recoverable plan; -smoke restricts it to the CI-sized
// subset. The -service campaign runs the open-system service runtime
// (seeded arrival traces, admission control, deadlines, SLO-guarded
// degradation, mid-service crashes) over both services × all transforms
// and emits BENCH_service.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

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
		faults   = flag.Bool("faults", false, "run the deterministic fault-injection campaign")
		service  = flag.Bool("service", false, "run the open-system service campaign (arrivals, admission, SLOs, degradation)")
		sanit    = flag.Bool("sanitize", false, "run the dynamic sanitizer campaign (race detection + commute replay + misannotation negatives)")
		sanJS    = flag.String("sanitize-json", "BENCH_sanitize.json", "with -sanitize: write the machine-readable campaign report to this file (\"\" disables)")
		steal    = flag.Bool("steal", false, "run the work-stealing straggler campaign (steal on/off pairs under seeded slowdown plans)")
		stealJS  = flag.String("steal-json", "BENCH_steal.json", "with -steal: write the machine-readable campaign report to this file (\"\" disables)")
		smoke    = flag.Bool("smoke", false, "with -faults/-service: run the CI-sized smoke subset")
		seed     = flag.Uint64("faultseed", 1, "with -faults/-service: fault plan and arrival-trace seed")
		faultsJS = flag.String("faults-json", "BENCH_faults.json", "with -faults: write the machine-readable campaign report to this file (\"\" disables)")
		svcJS    = flag.String("service-json", "BENCH_service.json", "with -service: write the machine-readable campaign report to this file (\"\" disables)")
		novet    = flag.Bool("novet", false, "skip the commsetvet -werror pre-simulation gate")
		vetprec  = flag.Bool("vetprecision", false, "run the analyzer precision gate (corpus + workloads, per-check counts)")
		precJSON = flag.String("precision-json", "", "with -vetprecision: write the per-check JSON report to this file")
		auto     = flag.Bool("auto", false, "with -figure6/-json: run the profile-guided auto-scheduler (adaptive schedule/chunk/batch/privatization)")
		jsonPath = flag.String("json", "", "write the schedule/speedup report (BENCH_schedule.json) to this file")
		all      = flag.Bool("all", false, "print everything")
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
	bench.HostWorkers = *hostpar

	if *all {
		*table1, *table2, *figure6, *figure3, *claims, *ablation, *faults, *service, *vetprec, *sanit, *steal = true, true, true, true, true, true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*figure6 && !*figure3 && !*claims && !*ablation && !*faults && !*service && !*vetprec && !*sanit && !*steal && *jsonPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *vetprec {
		if err := runVetPrecision(*precJSON, *threads); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	// The vet gate runs before any simulation: a misannotated workload fails
	// fast with its diagnostics instead of a wrong-output mystery later.
	if simulating := *table2 || *figure6 || *figure3 || *claims || *ablation || *faults || *service || *steal || *jsonPath != ""; simulating && !*novet {
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
	if *figure6 || *claims || *jsonPath != "" {
		var err error
		figs, err = bench.PrintFigure6(figWriter(*figure6), *threads, *auto)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *jsonPath != "" {
		if err := bench.WriteScheduleJSON(os.Stdout, *jsonPath, figs, *threads, *auto); err != nil {
			fatal(err)
		}
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
	if *faults {
		fmt.Println()
		if _, err := bench.FaultCampaign(os.Stdout, bench.CampaignOptions{
			Threads: *threads, Seed: *seed, Smoke: *smoke, JSONPath: *faultsJS,
		}); err != nil {
			fatal(err)
		}
	}
	if *service {
		fmt.Println()
		if _, err := bench.ServiceCampaign(os.Stdout, bench.ServiceOptions{
			Threads: *threads, Seed: *seed, Smoke: *smoke, JSONPath: *svcJS,
		}); err != nil {
			fatal(err)
		}
	}
	if *sanit {
		fmt.Println()
		if _, err := bench.SanitizeCampaign(os.Stdout, bench.SanitizeOptions{
			Threads: *threads, Smoke: *smoke, JSONPath: *sanJS,
		}); err != nil {
			fatal(err)
		}
	}
	if *steal {
		fmt.Println()
		if _, err := bench.StealCampaign(os.Stdout, bench.StealOptions{
			Threads: *threads, Seed: *seed, Smoke: *smoke, JSONPath: *stealJS,
		}); err != nil {
			fatal(err)
		}
	}
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

// runVetPrecision runs the analyzer precision gate and optionally writes
// the per-check JSON report (the CI artifact) to jsonPath.
func runVetPrecision(jsonPath string, threads int) error {
	var jsonOut io.Writer
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonOut = f
	}
	_, err := bench.VetPrecision(os.Stdout, jsonOut, threads)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commsetbench:", err)
	os.Exit(1)
}
