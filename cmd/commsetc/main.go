// Command commsetc is the COMMSET compiler driver: it compiles a MiniC
// program (a file, or a named benchmark workload) and dumps the artifact
// the user asks for:
//
//	commsetc -dump=source  -workload md5sum     annotated source (Figure 1)
//	commsetc -dump=ir      program.mc           lowered IR with regions
//	commsetc -dump=pdg     -workload md5sum     annotated PDG (Figure 2)
//	commsetc -dump=units   -workload md5sum     loop units and unit graph
//	commsetc -dump=schedules -threads 8 f.mc    generated schedules + estimates
//	commsetc -dump=sets    -workload md5sum     commutative-set model
//
// Programs compile against the standard substrate (package builtins); the
// hottest loop of main, found by a profiling run, is the analysis target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/transform"
	"repro/internal/workloads"
)

func main() {
	var (
		dump     = flag.String("dump", "schedules", "artifact: source|ir|pdg|units|schedules|sets")
		workload = flag.String("workload", "", "compile a named benchmark workload instead of a file")
		variant  = flag.String("variant", "comm", "workload variant (comm, det, pipe, noannot)")
		threads  = flag.Int("threads", 8, "thread count for schedule generation")
	)
	flag.Parse()

	var wl *workloads.Workload
	if *workload != "" {
		wl = workloads.ByName(*workload)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q (have: %s)", *workload, strings.Join(workloads.Names(), ", ")))
		}
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: commsetc [-dump=...] (-workload NAME | program.mc)")
			os.Exit(2)
		}
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		wl = workloads.FromSource(flag.Arg(0), string(src))
	}

	if *dump == "source" {
		src := wl.Variant(*variant)
		if src == "" && *variant == "noannot" {
			src = workloads.StripPragmas(wl.Primary())
		}
		fmt.Print(src)
		return
	}

	cp, err := bench.Compile(wl, *variant, *threads)
	if err != nil {
		if cp != nil && cp.C != nil && len(cp.C.Diags.Diags) > 0 {
			// Print every front-end diagnostic, deterministically ordered,
			// instead of just the first error.
			cp.C.Diags.Sort()
			for i := range cp.C.Diags.Diags {
				fmt.Fprintln(os.Stderr, cp.C.Diags.Diags[i].Error())
			}
			os.Exit(1)
		}
		fatal(err)
	}

	switch *dump {
	case "ir":
		for _, name := range cp.C.Low.Prog.Order {
			fmt.Println(cp.C.Low.Prog.Funcs[name])
		}
	case "pdg":
		fmt.Print(cp.LA.PDG.String())
	case "units":
		dumpUnits(cp)
	case "schedules":
		for _, s := range cp.Scheds {
			fmt.Printf("%-28s estimate %.2fx", s, s.Estimate)
			if len(s.SharedSlots) > 0 {
				fmt.Printf("  shared slots %v", s.SharedSlots)
			}
			for _, n := range s.Notes {
				fmt.Printf("  [%s]", n)
			}
			fmt.Println()
			for si, st := range s.Stages {
				par := "sequential"
				if st.Parallel {
					par = "parallel"
				}
				fmt.Printf("    stage %d (%s): units %v, weight %d\n", si, par, st.Units, st.Weight)
			}
		}
	case "sets":
		dumpSets(cp)
	default:
		fatal(fmt.Errorf("unknown dump %q", *dump))
	}
}

func dumpUnits(cp *bench.Compiled) {
	fmt.Printf("hot loop of main at block b%d (%.1f%% of execution)\n",
		cp.LA.Loop.Header, hotFraction(cp)*100)
	g := transform.BuildUnitGraph(cp.LA, cp.Prof.Weights)
	for ui, unit := range cp.LA.Units.Units {
		fmt.Printf("unit %d: weight %d, %d instrs, first %s\n",
			ui, g.Weights[ui], len(unit), unit[0])
	}
	fmt.Printf("control weight %d\n", g.ControlWeight)
	printDeps := func(name string, deps [][]int) {
		for u, tos := range deps {
			if len(tos) > 0 {
				fmt.Printf("%s %d -> %v\n", name, u, tos)
			}
		}
	}
	printDeps("intra", g.Intra)
	printDeps("loop-carried", g.LC)
}

func dumpSets(cp *bench.Compiled) {
	for _, set := range cp.C.Model.Sets {
		kind := "group"
		if set.SelfSet {
			kind = "self"
		}
		fmt.Printf("commset %-24s %-5s rank %d", set.Name, kind, cp.C.Model.Rank[set])
		if set.Pred != nil {
			fmt.Printf("  predicate (%v)(%v): %s", set.Pred.Params1, set.Pred.Params2, set.Pred.ExprText)
		}
		if set.NoSync {
			fmt.Printf("  [nosync]")
		}
		fmt.Println()
		for _, m := range cp.C.Model.Members[set] {
			fmt.Printf("    member %s\n", m)
		}
	}
}

func hotFraction(cp *bench.Compiled) float64 {
	for _, lp := range cp.Prof.Loops {
		if lp.Header == cp.LA.Loop.Header {
			return lp.Fraction
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commsetc:", err)
	os.Exit(1)
}
