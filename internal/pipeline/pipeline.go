// Package pipeline wires the COMMSET compiler stages together, following
// the parallelization workflow of Figure 5: parse → semantic analysis →
// lowering with region extraction and call-path inlining → commset model +
// well-formedness → effect summaries → per-loop PDG construction →
// Algorithm 1 dependence annotation. The parallelizing transforms consume
// the resulting LoopAnalysis.
package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/commset"
	"repro/internal/depend"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pdg"
	"repro/internal/source"
	"repro/internal/types"
)

// Options configures compilation: the source file plus the substrate's
// signatures and effect declarations.
type Options struct {
	File    *source.File
	Sigs    map[string]*types.Sig
	Effects effects.Table
}

// Compiled is a fully analyzed program, ready for per-loop parallelization.
type Compiled struct {
	File    *source.File
	Info    *types.Info
	Low     *lower.Result
	Model   *commset.Model
	CG      *callgraph.Graph
	Summary *effects.Summary
	Diags   source.DiagList
}

// Compile runs the front end through the commset model. It returns an error
// when any stage reports diagnostics.
func Compile(opts Options) (*Compiled, error) {
	c := &Compiled{File: opts.File}
	prog := parser.Parse(opts.File, &c.Diags)
	if err := c.Diags.Err(); err != nil {
		return c, err
	}
	c.Info = types.Check(prog, opts.Sigs, &c.Diags)
	if err := c.Diags.Err(); err != nil {
		return c, err
	}
	c.Low = lower.Lower(c.Info, &c.Diags)
	if err := c.Diags.Err(); err != nil {
		return c, err
	}
	c.CG = callgraph.Build(c.Low.Prog)
	c.Model = commset.BuildModel(c.Info, c.Low)
	c.Model.CheckWellFormed(c.CG, &c.Diags, opts.File.Name)
	if err := c.Diags.Err(); err != nil {
		return c, err
	}
	c.Summary = effects.Summarize(c.Low.Prog, opts.Effects)
	return c, nil
}

// LoopAnalysis bundles the artifacts for one target loop: its CFG context,
// unit structure, and commutativity-annotated PDG.
type LoopAnalysis struct {
	Fn    *ir.Func
	G     *cfg.Graph
	Loop  *cfg.Loop
	Units *lower.LoopUnits
	PDG   *pdg.PDG
	Dep   *depend.Result

	layoutOnce sync.Once
	layout     *Layout
}

// Layout is the position tables of an analyzed loop's function that depend
// only on the loop, by instruction ID: what an executor stepping the loop
// instruction by instruction needs.
type Layout struct {
	// Pos locates each instruction of Fn.
	Pos []InstrPos
	// UnitOf maps each instruction to its unit index, Control for the
	// condition and the post increment, NoUnit outside the loop.
	UnitOf []int
	// Units, Cond and Post are the membership sets of the loop's units,
	// its condition and its post increment.
	Units      [][]bool
	Cond, Post []bool
	// Exit is the loop's exit block, or -1 when it has none.
	Exit int
}

// InstrPos locates one instruction: its block ID and its index there.
type InstrPos struct{ Block, Index int }

// UnitOf values of Layout that are not unit indices.
const (
	Control = -1 // the loop condition and post increment
	NoUnit  = -2 // instructions outside the loop
)

// Layout returns the loop's layout, building it on first use. The loop
// analysis owns it, so it lives exactly as long as the analysis; analyses
// that never execute never build it.
func (la *LoopAnalysis) Layout() *Layout {
	la.layoutOnce.Do(func() { la.layout = newLayout(la) })
	return la.layout
}

func newLayout(la *LoopAnalysis) *Layout {
	n := la.Fn.NumInstrs()
	l := &Layout{Pos: make([]InstrPos, n), UnitOf: make([]int, n), Exit: -1}
	for _, b := range la.Fn.Blocks {
		for i, in := range b.Instrs {
			l.Pos[in.ID] = InstrPos{Block: b.ID, Index: i}
			l.UnitOf[in.ID] = NoUnit
		}
	}
	set := func(instrs []*ir.Instr, unit int) []bool {
		s := make([]bool, n)
		for _, in := range instrs {
			s[in.ID] = true
			l.UnitOf[in.ID] = unit
		}
		return s
	}
	l.Units = make([][]bool, len(la.Units.Units))
	for ui, instrs := range la.Units.Units {
		l.Units[ui] = set(instrs, ui)
	}
	l.Cond, l.Post = set(la.Units.Cond, Control), set(la.Units.Post, Control)
	if len(la.Loop.Exits) > 0 {
		l.Exit = la.Loop.Exits[0]
	}
	return l
}

// AnalyzeLoop builds and annotates the PDG for the loop with the given
// header block in the named function.
func (c *Compiled) AnalyzeLoop(fnName string, header int) (*LoopAnalysis, error) {
	f := c.Low.Prog.Funcs[fnName]
	if f == nil {
		return nil, fmt.Errorf("pipeline: no function %s", fnName)
	}
	g := cfg.New(f)
	var loop *cfg.Loop
	for _, l := range g.Loops() {
		if l.Header == header {
			loop = l
			break
		}
	}
	if loop == nil {
		return nil, fmt.Errorf("pipeline: no loop with header b%d in %s", header, fnName)
	}
	var units *lower.LoopUnits
	for _, lu := range c.Low.Loops {
		if lu.Func == fnName && lu.Header == header {
			units = lu
			break
		}
	}
	var controlIDs map[int]bool
	if units != nil {
		controlIDs = map[int]bool{}
		for _, in := range units.Cond {
			controlIDs[in.ID] = true
		}
		for _, in := range units.Post {
			controlIDs[in.ID] = true
		}
	}
	p := pdg.Build(f, loop, g, c.Summary, controlIDs)
	dep := depend.Analyze(p, c.Low, c.Summary)
	return &LoopAnalysis{Fn: f, G: g, Loop: loop, Units: units, PDG: p, Dep: dep}, nil
}

// AnalyzeFuncLoops analyzes every recorded loop of the named function in
// source order — the whole-program view analysis tools need (a pragma may
// target a setup loop rather than the hot loop).
func (c *Compiled) AnalyzeFuncLoops(fnName string) ([]*LoopAnalysis, error) {
	var out []*LoopAnalysis
	for _, lu := range c.Loops(fnName) {
		la, err := c.AnalyzeLoop(fnName, lu.Header)
		if err != nil {
			return nil, err
		}
		out = append(out, la)
	}
	return out, nil
}

// Loops returns every recorded loop of the named function, outermost first
// (by unit-record order, which follows source order).
func (c *Compiled) Loops(fnName string) []*lower.LoopUnits {
	var out []*lower.LoopUnits
	for _, lu := range c.Low.Loops {
		if lu.Func == fnName {
			out = append(out, lu)
		}
	}
	return out
}
