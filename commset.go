// Package commset is a reproduction of "Commutative Set: A Language
// Extension for Implicit Parallel Programming" (Prabhu, Ghosh, Zhang,
// Johnson, August — PLDI 2011) as a reusable Go library.
//
// The package compiles MiniC programs — a small C-like language carrying
// the paper's COMMSET pragma directives — through the full pipeline the
// paper describes: semantic analysis, commutative-region extraction,
// named-block call-path inlining, PDG construction, Algorithm-1
// commutativity annotation with symbolic predicate interpretation, and the
// DOALL / DSWP / PS-DSWP parallelizing transforms. Programs execute on a
// deterministic discrete-event multicore simulator with automatic
// synchronization (mutex, spin lock, transactional memory, or thread-safe
// library), so parallel speedups are measured in reproducible virtual time.
//
// # Quick start
//
// ExampleCompile compiles an annotated program, lists the schedules its
// annotations enable, and runs one in parallel. See the examples/
// directory for complete programs, and DESIGN.md for the system inventory
// and the paper-experiment index.
package commset

import (
	"fmt"

	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
)

// SyncMode selects the concurrency-control mechanism the synchronization
// engine inserts around commutative members (paper Section 4.6).
type SyncMode = exec.SyncMode

// Synchronization mechanisms.
const (
	SyncMutex = exec.SyncMutex
	SyncSpin  = exec.SyncSpin
	SyncTM    = exec.SyncTM
	SyncLib   = exec.SyncLib
)

// Schedule is one parallelization plan produced by the transforms.
type Schedule = transform.Schedule

// Schedule kinds.
const (
	Sequential = transform.Sequential
	DOALL      = transform.DOALL
	DSWP       = transform.DSWP
	PSDSWP     = transform.PSDSWP
)

// Program is a compiled, analyzed MiniC program.
type Program struct {
	compiled *pipeline.Compiled
	setup    func(*builtins.World)
	analysis *pipeline.LoopAnalysis
	prof     *profile.Result
	cost     des.CostModel
}

// Compile parses, checks, lowers, and analyzes src against the standard
// substrate. setup, when non-nil, populates each run's fresh substrate
// (input files, databases, packets, ...). The hottest loop of main is
// identified by a sequential profiling run and becomes the
// parallelization target, as in the paper's workflow (Figure 5).
func Compile(src string, setup func(*builtins.World)) (*Program, error) {
	tables := builtins.NewWorld()
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile("program.mc", src),
		Sigs:    tables.Sigs(),
		Effects: tables.EffectTable(),
	})
	if err != nil {
		return nil, err
	}
	p := &Program{compiled: c, setup: setup, cost: des.DefaultCostModel()}

	prof, err := profile.Run(c, p.freshWorld().Fns())
	if err != nil {
		return nil, fmt.Errorf("commset: profiling run failed: %w", err)
	}
	p.prof = prof
	if hot := prof.Hottest(); hot >= 0 {
		la, err := c.AnalyzeLoop("main", hot)
		if err != nil {
			return nil, err
		}
		p.analysis = la
	}
	return p, nil
}

func (p *Program) freshWorld() *builtins.World {
	w := builtins.NewWorld()
	if p.setup != nil {
		p.setup(w)
	}
	return w
}

// HasHotLoop reports whether main contains a parallelizable target loop.
func (p *Program) HasHotLoop() bool { return p.analysis != nil }

// PDGDump renders the hottest loop's commutativity-annotated program
// dependence graph (the paper's Figure 2 view).
func (p *Program) PDGDump() string {
	if p.analysis == nil {
		return "(no hot loop)"
	}
	return p.analysis.PDG.String()
}

// IRDump renders the lowered IR of every function, regions included.
func (p *Program) IRDump() string {
	out := ""
	for _, name := range p.compiled.Low.Prog.Order {
		out += p.compiled.Low.Prog.Funcs[name].String() + "\n"
	}
	return out
}

// Schedules generates every applicable schedule for the hottest loop at
// the given thread count: Sequential always; DOALL, DSWP, and PS-DSWP when
// their applicability tests pass after commutativity relaxation.
func (p *Program) Schedules(threads int) []*Schedule {
	if p.analysis == nil {
		return []*Schedule{{Kind: transform.Sequential}}
	}
	return transform.Schedules(p.analysis, p.prof.Weights, threads)
}

// ScheduleOf returns the generated schedule of the given kind, or nil.
func (p *Program) ScheduleOf(kind transform.Kind, threads int) *Schedule {
	for _, s := range p.Schedules(threads) {
		if s.Kind == kind {
			return s
		}
	}
	return nil
}

// Result is one execution's outcome: the simulated makespan and the final
// substrate state (console output, logs, containers).
type Result struct {
	VirtualTime int64
	Threads     int
	Schedule    string
	World       *builtins.World
}

// Speedup compares this (sequential) result against a parallel one.
func (r *Result) Speedup(par *Result) float64 {
	if par == nil || par.VirtualTime == 0 {
		return 0
	}
	return float64(r.VirtualTime) / float64(par.VirtualTime)
}

// Console returns the run's console output lines.
func (r *Result) Console() []string { return r.World.Console }

// RunSequential executes the program sequentially on a fresh substrate.
func (p *Program) RunSequential() (*Result, error) {
	w := p.freshWorld()
	res, err := exec.RunSequential(exec.Config{
		Prog:     p.compiled.Low.Prog,
		Builtins: w.Fns(),
		Model:    p.compiled.Model,
		Cost:     p.cost,
	})
	if err != nil {
		return nil, err
	}
	return &Result{VirtualTime: res.VirtualTime, Threads: 1, Schedule: "Sequential", World: w}, nil
}

// Run executes the program with the hottest loop parallelized per the
// schedule, using the given synchronization mechanism and thread count, on
// a fresh substrate.
func (p *Program) Run(s *Schedule, mode SyncMode, threads int) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("commset: nil schedule")
	}
	if s.Kind == transform.Sequential || p.analysis == nil {
		return p.RunSequential()
	}
	w := p.freshWorld()
	res, err := exec.Run(exec.Config{
		Prog:     p.compiled.Low.Prog,
		Builtins: w.Fns(),
		Model:    p.compiled.Model,
		Cost:     p.cost,
	}, p.analysis, s, mode, threads)
	if err != nil {
		return nil, err
	}
	return &Result{
		VirtualTime: res.VirtualTime,
		Threads:     threads,
		Schedule:    res.Schedule,
		World:       w,
	}, nil
}

// Diagnostics returns the compilation diagnostics (warnings and notes).
func (p *Program) Diagnostics() string { return p.compiled.Diags.String() }
