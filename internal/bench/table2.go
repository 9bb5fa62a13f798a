package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/transform"
	"repro/internal/workloads"
)

// parallelKinds lists the parallel schedule families.
var parallelKinds = []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP}

// Row is one Table 2 row plus the measurements behind it.
type Row struct {
	WL          *workloads.Workload
	Annotations int
	SLOC        int
	Transforms  []string
	Best        *Measurement
	All         []*Measurement
}

// EvalWorkload measures every applicable (variant, schedule, sync)
// combination of one workload at the given thread count and returns the
// Table 2 row. Runs that a mechanism does not support (TM with I/O
// members) are skipped, mirroring the paper's "transactions not
// applicable" notes.
func EvalWorkload(wl *workloads.Workload, threads int) (*Row, error) {
	row := &Row{WL: wl, Annotations: wl.Annotations(), SLOC: wl.SLOC()}
	seenTransforms := map[string]bool{}

	for _, variant := range wl.Variants {
		cp, err := Compile(wl, variant.Name, threads)
		if err != nil {
			return nil, err
		}
		for _, kind := range parallelKinds {
			sched := cp.Schedule(kind)
			if sched == nil {
				continue
			}
			label := kind.String()
			if !seenTransforms[label] {
				seenTransforms[label] = true
				row.Transforms = append(row.Transforms, label)
			}
			for _, mode := range wl.Syncs() {
				m, err := cp.Run(kind, mode, threads)
				if err != nil {
					return nil, fmt.Errorf("%s/%s %v+%v: %w", wl.Name, variant.Name, kind, mode, err)
				}
				row.All = append(row.All, m)
				if row.Best == nil || m.Speedup > row.Best.Speedup {
					row.Best = m
				}
			}
		}
	}
	sort.Strings(row.Transforms)
	return row, nil
}

// Table2 evaluates every workload and renders the paper's Table 2.
func Table2(w io.Writer, threads int) ([]*Row, error) {
	var rows []*Row
	fmt.Fprintf(w, "Table 2: Sequential programs evaluated (reproduction, %d threads)\n", threads)
	fmt.Fprintf(w, "%-10s %-9s %-5s %-7s %-6s %-14s %-18s %-8s %-18s %-8s\n",
		"Program", "Origin", "Loop", "Annot", "SLOC", "Features", "Transforms", "Speedup", "Best Scheme", "Paper")
	var logsum float64
	var paperLogsum float64
	for _, wl := range workloads.All() {
		row, err := EvalWorkload(wl, threads)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		scheme := "-"
		speedup := 1.0
		if row.Best != nil {
			scheme = fmt.Sprintf("%s + %s", shortSched(row.Best.Schedule), row.Best.Sync)
			speedup = row.Best.Speedup
		}
		fmt.Fprintf(w, "%-10s %-9s %-5s %-7d %-6d %-14s %-18s %-8.2f %-18s %.1fx %s\n",
			wl.Name, wl.Origin, wl.MainPct, row.Annotations, row.SLOC, wl.Features,
			strings.Join(row.Transforms, ","), speedup, scheme, wl.PaperBest, wl.PaperScheme)
		logsum += math.Log(speedup)
		paperLogsum += math.Log(wl.PaperBest)
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "%-10s %-9s %-5s %-7s %-6s %-14s %-18s %-8.2f %-18s %.1fx\n",
		"geomean", "", "", "", "", "", "", math.Exp(logsum/n), "", math.Exp(paperLogsum/n))
	return rows, nil
}

// shortSched compacts a schedule label for the table.
func shortSched(s string) string {
	if i := strings.Index(s, " ["); i > 0 {
		return s[:i]
	}
	return s
}
