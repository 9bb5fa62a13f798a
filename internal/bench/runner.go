// Package bench reproduces the paper's evaluation: it compiles each
// workload variant, profiles it to find the hottest loop, generates every
// applicable schedule, executes schedule × synchronization × thread-count
// combinations on the discrete-event simulator, validates outputs against
// the sequential run, and prints the paper's tables and figures (Table 1,
// Table 2, Figure 6).
package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
	"repro/internal/workloads"
)

// Compiled is one workload variant, analyzed and ready to run.
type Compiled struct {
	WL      *workloads.Workload
	Variant string
	C       *pipeline.Compiled
	LA      *pipeline.LoopAnalysis
	Prof    *profile.Result
	Scheds  []*transform.Schedule

	// SeqCost is the sequential virtual time on a fresh world (the
	// baseline for every speedup).
	SeqCost int64
	// SeqWorld is the sequential run's final substrate, used to validate
	// parallel runs.
	SeqWorld *builtins.World

	// runMu guards runCache, the measurement memo (cache.go).
	runMu    sync.Mutex
	runCache map[runKey]*runEntry
}

// freshWorld builds a substrate instance populated for the workload.
func freshWorld(wl *workloads.Workload) *builtins.World {
	w := builtins.NewWorld()
	wl.Setup(w)
	return w
}

func compileUncached(wl *workloads.Workload, variant string, threads int) (*Compiled, error) {
	src := ""
	switch variant {
	case "noannot":
		src = workloads.StripPragmas(wl.Primary())
	default:
		src = wl.Variant(variant)
	}
	if src == "" {
		return nil, fmt.Errorf("bench: workload %s has no variant %q", wl.Name, variant)
	}

	tables := freshWorld(wl)
	effTable := tables.EffectTable()
	if variant == "noannot" {
		// The non-COMMSET baseline compiler treats library calls
		// conservatively, as the paper's baseline tools must.
		effTable = tables.ConservativeEffectTable()
	}
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile(fmt.Sprintf("%s[%s]", wl.Name, variant), src),
		Sigs:    tables.Sigs(),
		Effects: effTable,
	})
	if err != nil {
		// Return the partial compilation so drivers can render the full
		// diagnostic list, not just the first error.
		return &Compiled{WL: wl, Variant: variant, C: c},
			fmt.Errorf("bench: compile %s/%s: %w", wl.Name, variant, err)
	}

	// Profiling run (fresh world, consumed).
	prof, err := profile.Run(c, freshWorld(wl).Fns())
	if err != nil {
		return nil, fmt.Errorf("bench: profile %s/%s: %w", wl.Name, variant, err)
	}
	hot := prof.Hottest()
	if hot < 0 {
		return nil, fmt.Errorf("bench: %s/%s has no loop in main", wl.Name, variant)
	}

	la, err := c.AnalyzeLoop("main", hot)
	if err != nil {
		return nil, fmt.Errorf("bench: analyze %s/%s: %w", wl.Name, variant, err)
	}
	if la.Units == nil {
		return nil, fmt.Errorf("bench: %s/%s hot loop has no unit record", wl.Name, variant)
	}

	cp := &Compiled{
		WL: wl, Variant: variant, C: c, LA: la, Prof: prof,
		Scheds: transform.Schedules(la, prof.Weights, threads),
	}

	// Sequential baseline run, kept for validation.
	seqWorld := freshWorld(wl)
	r, err := exec.RunSequential(exec.Config{
		Prog:     c.Low.Prog,
		Builtins: seqWorld.Fns(),
		Model:    c.Model,
		Cost:     des.DefaultCostModel(),
	})
	if err != nil {
		return nil, fmt.Errorf("bench: sequential %s/%s: %w", wl.Name, variant, err)
	}
	cp.SeqCost = r.VirtualTime
	cp.SeqWorld = seqWorld
	return cp, nil
}

// Schedule returns the generated schedule of the given kind, or nil.
func (cp *Compiled) Schedule(kind transform.Kind) *transform.Schedule {
	for _, s := range cp.Scheds {
		if s.Kind == kind {
			return s
		}
	}
	return nil
}

// Measurement is one executed configuration.
type Measurement struct {
	Workload string
	Variant  string
	Kind     transform.Kind
	Schedule string
	Sync     exec.SyncMode
	Threads  int

	// Tune is the adaptive tuning the run executed under (zero for the
	// paper's fixed policies; the auto-scheduler's pick for RunAuto).
	Tune transform.Tuning

	VirtualTime int64
	Speedup     float64
	Validated   bool

	// World is the run's final substrate (console output, logs).
	World *builtins.World
}

// Run executes one schedule/sync/threads configuration on a fresh world and
// validates the result against the sequential run. ordered output is
// asserted when the schedule keeps the loop's output units in sequential
// stages (Sequential and DSWP always; PS-DSWP's sequential stages preserve
// iteration order; DOALL never).
func (cp *Compiled) Run(kind transform.Kind, mode exec.SyncMode, threads int) (*Measurement, error) {
	return cp.run(kind, mode, threads, false)
}

// RunAuto is Run with the profile-guided auto-scheduler enabled: the
// executor calibrates schedule/chunk/batch/privatization candidates on
// short slices (each against a throwaway world) and the measured run
// adopts the fastest tuning.
func (cp *Compiled) RunAuto(kind transform.Kind, mode exec.SyncMode, threads int) (*Measurement, error) {
	return cp.run(kind, mode, threads, true)
}

func (cp *Compiled) runUncached(kind transform.Kind, mode exec.SyncMode, threads int, auto bool) (*Measurement, error) {
	sched := cp.Schedule(kind)
	if sched == nil {
		return nil, fmt.Errorf("bench: %s/%s: schedule %v not applicable", cp.WL.Name, cp.Variant, kind)
	}
	world := freshWorld(cp.WL)
	cfg := exec.Config{
		Prog:     cp.C.Low.Prog,
		Builtins: world.Fns(),
		Model:    cp.C.Model,
		Cost:     des.DefaultCostModel(),
	}
	if auto {
		cfg.Auto = &exec.AutoOptions{
			Fresh: func() map[string]interp.BuiltinFn { return freshWorld(cp.WL).Fns() },
		}
	}
	res, err := exec.Run(cfg, cp.LA, sched, mode, threads)
	if err != nil {
		return nil, fmt.Errorf("bench: run %s/%s %v/%v/%d: %w", cp.WL.Name, cp.Variant, kind, mode, threads, err)
	}

	ordered := kind == transform.Sequential || kind == transform.DSWP
	if err := cp.WL.Validate(cp.SeqWorld, world, ordered); err != nil {
		return nil, fmt.Errorf("bench: validate %s/%s %v/%v/%d: %w", cp.WL.Name, cp.Variant, kind, mode, threads, err)
	}

	m := &Measurement{
		Workload: cp.WL.Name, Variant: cp.Variant,
		Kind: kind, Schedule: res.Schedule, Sync: mode, Threads: threads,
		Tune:        res.Tune,
		VirtualTime: res.VirtualTime,
		Validated:   true,
		World:       world,
	}
	if res.VirtualTime > 0 {
		m.Speedup = float64(cp.SeqCost) / float64(res.VirtualTime)
	}
	return m, nil
}

// SchemeLabel renders a Figure 6 legend label.
func SchemeLabel(variant string, kind transform.Kind, sched string, mode exec.SyncMode) string {
	var b strings.Builder
	if variant != "noannot" {
		b.WriteString("Comm-")
	}
	if kind == transform.DOALL {
		b.WriteString("DOALL")
	} else {
		b.WriteString(sched)
	}
	fmt.Fprintf(&b, " + %s", mode)
	return b.String()
}
