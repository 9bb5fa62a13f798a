// Command commsetrun compiles and executes a MiniC program or benchmark
// workload under a chosen schedule, synchronization mechanism, and thread
// count, printing the program output and the simulated virtual time:
//
//	commsetrun program.mc
//	commsetrun -schedule doall -sync spin -threads 8 -workload md5sum
//	commsetrun -schedule psdswp -sync lib -threads 8 -workload md5sum -variant det
//
// The sequential run always executes first so the tool can report the
// speedup of the chosen parallel schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

func main() {
	var (
		schedule = flag.String("schedule", "seq", "schedule: seq|doall|dswp|psdswp")
		sync     = flag.String("sync", "spin", "synchronization: mutex|spin|tm|lib")
		threads  = flag.Int("threads", 8, "thread count")
		workload = flag.String("workload", "", "run a named benchmark workload")
		variant  = flag.String("variant", "comm", "workload variant")
		quiet    = flag.Bool("quiet", false, "suppress program output")
		sanFlag  = flag.Bool("sanitize", false, "rerun under the dynamic commset sanitizer (race detection + commute replay)")
		sanJSON  = flag.String("sanitize-json", "", "with -sanitize: write the sanitizer report to this file")
	)
	flag.Parse()

	kind, err := parseKind(*schedule)
	if err != nil {
		fatal(err)
	}
	mode, err := parseSync(*sync)
	if err != nil {
		fatal(err)
	}

	var wl *workloads.Workload
	if *workload != "" {
		wl = workloads.ByName(*workload)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: commsetrun [flags] (-workload NAME | program.mc)")
			os.Exit(2)
		}
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		wl = workloads.FromSource(flag.Arg(0), string(src))
	}

	cp, err := bench.Compile(wl, *variant, *threads)
	if err != nil {
		fatal(err)
	}

	if kind != transform.Sequential && cp.Schedule(kind) == nil {
		var have []string
		for _, s := range cp.Scheds {
			have = append(have, s.Kind.String())
		}
		fatal(fmt.Errorf("schedule %v not applicable; available: %s", kind, strings.Join(have, ", ")))
	}

	m, err := cp.Run(kind, mode, *threads)
	if err != nil {
		fatal(err)
	}
	if !*quiet && m.World != nil {
		for _, line := range m.World.Console {
			fmt.Println(line)
		}
	}
	fmt.Fprintf(os.Stderr, "schedule %s  sync %s  threads %d\n", m.Schedule, m.Sync, m.Threads)
	fmt.Fprintf(os.Stderr, "virtual time %d  sequential %d  speedup %.2fx\n",
		m.VirtualTime, cp.SeqCost, m.Speedup)

	if *sanFlag {
		cell, err := bench.SanitizeRun(cp, kind, mode, *threads)
		if err != nil {
			fatal(err)
		}
		printSanitize(cell)
		if *sanJSON != "" {
			f, err := os.Create(*sanJSON)
			if err != nil {
				fatal(err)
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(cell); err != nil {
				fatal(err)
			}
			f.Close()
		}
		if !cell.Clean || !cell.VTimeMatch {
			os.Exit(1)
		}
	}
}

// printSanitize renders the sanitizer verdict for one run: races, then
// each replayed same-set pair with its verdict (and the concrete
// counterexample diff for violations).
func printSanitize(cell *bench.SanitizeCell) {
	status := "clean"
	if !cell.Clean {
		status = "DIRTY"
	}
	fmt.Fprintf(os.Stderr, "sanitizer: races %d  candidates %d  verified %d  violations %d  vtime-match %v  %s\n",
		len(cell.Races), cell.Candidates, cell.Verified, cell.Violations, cell.VTimeMatch, status)
	for _, r := range cell.Races {
		fmt.Fprintf(os.Stderr, "  race: %s on %s (threads %d/%d, extents %s/%s)\n",
			r.Kind, r.Cell, r.FirstThread, r.SecondThread, orDash(r.FirstExtent), orDash(r.SecondExtent))
	}
	for _, p := range cell.Pairs {
		fmt.Fprintf(os.Stderr, "  pair %s %s/%s gseq %d:%d: %s", p.Set, p.FnA, p.FnB, p.GseqA, p.GseqB, p.Verdict)
		if p.Diff != "" {
			fmt.Fprintf(os.Stderr, " (%s)", p.Diff)
		}
		if p.Note != "" {
			fmt.Fprintf(os.Stderr, " (%s)", p.Note)
		}
		fmt.Fprintln(os.Stderr)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func parseKind(s string) (transform.Kind, error) {
	switch strings.ToLower(s) {
	case "seq", "sequential":
		return transform.Sequential, nil
	case "doall":
		return transform.DOALL, nil
	case "dswp":
		return transform.DSWP, nil
	case "psdswp", "ps-dswp":
		return transform.PSDSWP, nil
	}
	return 0, fmt.Errorf("unknown schedule %q", s)
}

func parseSync(s string) (exec.SyncMode, error) {
	switch strings.ToLower(s) {
	case "mutex":
		return exec.SyncMutex, nil
	case "spin":
		return exec.SyncSpin, nil
	case "tm":
		return exec.SyncTM, nil
	case "lib":
		return exec.SyncLib, nil
	}
	return 0, fmt.Errorf("unknown sync mode %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commsetrun:", err)
	os.Exit(1)
}
