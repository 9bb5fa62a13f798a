package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// Series is one Figure 6 line: a scheme's speedup at 1..N threads.
type Series struct {
	Label    string
	Variant  string
	Kind     transform.Kind
	Sync     exec.SyncMode
	Speedups []float64 // index 0 = 1 thread

	// Schedule is the executed schedule label at max threads, including
	// any auto-selected tuning (e.g. "DOALL {chunked(8)+priv}").
	Schedule string
}

// At returns the speedup at the given thread count.
func (s *Series) At(threads int) float64 {
	if threads < 1 || threads > len(s.Speedups) {
		return 0
	}
	return s.Speedups[threads-1]
}

// Figure is the data behind one subfigure of Figure 6.
type Figure struct {
	WL     *workloads.Workload
	Series []*Series
}

// seriesSpec selects which schemes each workload plots, mirroring the
// paper's legends: the COMMSET-enabled DOALL under each mechanism, the
// pipeline schedule of the determinism/pipeline variant, and the best
// non-COMMSET parallelization.
type seriesSpec struct {
	variant string
	kind    transform.Kind
	sync    exec.SyncMode
}

func specsFor(wl *workloads.Workload) []seriesSpec {
	var specs []seriesSpec
	for _, variant := range wl.Variants {
		cp, err := Compile(wl, variant.Name, 8)
		if err != nil {
			continue
		}
		for _, kind := range parallelKinds {
			if cp.Schedule(kind) == nil {
				continue
			}
			syncs := wl.Syncs()
			if kind != transform.DOALL || variant.Name != "comm" {
				// Keep non-primary schemes to the workload's headline
				// mechanisms for legible figures.
				if wl.LibOK {
					syncs = []exec.SyncMode{exec.SyncSpin, exec.SyncLib}
				} else {
					syncs = []exec.SyncMode{exec.SyncSpin}
				}
			}
			for _, mode := range syncs {
				specs = append(specs, seriesSpec{variant: variant.Name, kind: kind, sync: mode})
			}
		}
	}
	// Best non-COMMSET parallelization (often sequential).
	if cp, err := Compile(wl, "noannot", 8); err == nil {
		for _, kind := range parallelKinds {
			if cp.Schedule(kind) != nil {
				specs = append(specs, seriesSpec{variant: "noannot", kind: kind, sync: exec.SyncSpin})
			}
		}
	}
	return specs
}

// Figure6 measures the speedup-vs-threads series for one workload. With
// auto, every run goes through the profile-guided auto-scheduler.
func Figure6(wl *workloads.Workload, maxThreads int, auto bool) (*Figure, error) {
	fig := &Figure{WL: wl}
	for _, spec := range specsFor(wl) {
		cp, err := Compile(wl, spec.variant, maxThreads)
		if err != nil {
			return nil, err
		}
		if cp.Schedule(spec.kind) == nil {
			continue
		}
		ser := &Series{
			Variant: spec.variant,
			Kind:    spec.kind,
			Sync:    spec.sync,
		}
		schedLabel := ""
		for t := 1; t <= maxThreads; t++ {
			m, err := cp.run(spec.kind, spec.sync, t, auto)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s %v+%v@%d: %w", wl.Name, spec.kind, spec.sync, t, err)
			}
			ser.Speedups = append(ser.Speedups, m.Speedup)
			schedLabel = m.Schedule
		}
		ser.Schedule = schedLabel
		ser.Label = SchemeLabel(spec.variant, spec.kind, schedLabel, spec.sync)
		if spec.variant != "comm" && spec.variant != "noannot" {
			ser.Label += " (" + spec.variant + ")"
		}
		fig.Series = append(fig.Series, ser)
	}
	// Sort by speedup at max threads, descending, like the paper's legends.
	sort.SliceStable(fig.Series, func(i, j int) bool {
		return fig.Series[i].At(maxThreads) > fig.Series[j].At(maxThreads)
	})
	return fig, nil
}

// Best returns the figure's top series at the given thread count.
func (f *Figure) Best(threads int) *Series {
	var best *Series
	for _, s := range f.Series {
		if best == nil || s.At(threads) > best.At(threads) {
			best = s
		}
	}
	return best
}

// FindSeries returns the first series matching variant and kind, or nil.
func (f *Figure) FindSeries(variant string, kind transform.Kind, sync exec.SyncMode) *Series {
	for _, s := range f.Series {
		if s.Variant == variant && s.Kind == kind && s.Sync == sync {
			return s
		}
	}
	return nil
}

// PrintFigure6 renders every subfigure (a)–(h) plus the geomean (i).
// With auto, every run is auto-scheduled.
func PrintFigure6(w io.Writer, maxThreads int, auto bool) ([]*Figure, error) {
	var figs []*Figure
	for _, wl := range workloads.All() {
		fig, err := Figure6(wl, maxThreads, auto)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
		fmt.Fprintf(w, "\nFigure 6(%c): %s — speedup vs threads (paper best: %.1fx %s)\n",
			'a'+len(figs)-1, wl.Name, wl.PaperBest, wl.PaperScheme)
		fmt.Fprintf(w, "  %-34s", "scheme")
		for t := 1; t <= maxThreads; t++ {
			fmt.Fprintf(w, "%7d", t)
		}
		fmt.Fprintln(w)
		for _, s := range fig.Series {
			fmt.Fprintf(w, "  %-34s", s.Label)
			for _, v := range s.Speedups {
				fmt.Fprintf(w, "%7.2f", v)
			}
			fmt.Fprintln(w)
		}
	}

	// (i) geomean of the best COMMSET scheme vs best non-COMMSET scheme.
	fmt.Fprintf(w, "\nFigure 6(i): geomean speedups\n  %-34s", "scheme")
	for t := 1; t <= maxThreads; t++ {
		fmt.Fprintf(w, "%7d", t)
	}
	fmt.Fprintln(w)
	printGeo := func(label string, pick func(f *Figure, t int) float64) {
		fmt.Fprintf(w, "  %-34s", label)
		for t := 1; t <= maxThreads; t++ {
			var logsum float64
			for _, f := range figs {
				v := pick(f, t)
				if v <= 0 {
					v = 1
				}
				logsum += math.Log(v)
			}
			fmt.Fprintf(w, "%7.2f", math.Exp(logsum/float64(len(figs))))
		}
		fmt.Fprintln(w)
	}
	printGeo("Best COMMSET", func(f *Figure, t int) float64 {
		best := 1.0
		for _, s := range f.Series {
			if s.Variant != "noannot" && s.At(t) > best {
				best = s.At(t)
			}
		}
		return best
	})
	printGeo("Best Non-COMMSET", func(f *Figure, t int) float64 {
		best := 1.0
		for _, s := range f.Series {
			if s.Variant == "noannot" && s.At(t) > best {
				best = s.At(t)
			}
		}
		return best
	})
	return figs, nil
}
