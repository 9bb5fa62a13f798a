// Package transform implements the parallelizing transforms of the COMMSET
// compiler (paper Section 4.5): DOALL, DSWP, and PS-DSWP.
//
// The transforms operate at the granularity of loop-body units — the
// top-level statements of the loop body recorded by the lowerer — with
// dependences aggregated from the instruction-level PDG after Algorithm 1
// has annotated commutativity:
//
//   - uco edges are treated as non-existent,
//   - ico edges are treated as intra-iteration edges,
//   - loop-carried flow on induction-variable slots is privatized,
//   - the loop-control machinery (header condition and post increment) is a
//     pseudo-unit owned by the iteration dispatcher; edges out of it are
//     satisfied by per-iteration tokens, edges into it serialize the loop.
//
// DOALL requires the absence of inter-iteration unit dependences. The DSWP
// family partitions the unit-level DAG of strongly connected components
// into pipeline stages balanced by profile weight; PS-DSWP replicates the
// heaviest run of stages whose SCCs carry no loop-carried dependences
// (paper: "can replicate a stage with no loop carried SCCs").
package transform

import (
	"fmt"
	"strings"

	"repro/internal/pdg"
	"repro/internal/pipeline"
)

// ControlUnit is the pseudo-unit index for loop-control instructions.
const ControlUnit = -1

// Kind identifies a schedule family.
type Kind int

// Schedule kinds.
const (
	Sequential Kind = iota
	DOALL
	DSWP
	PSDSWP
)

// String names the schedule kind as in the paper.
func (k Kind) String() string {
	switch k {
	case Sequential:
		return "Sequential"
	case DOALL:
		return "DOALL"
	case DSWP:
		return "DSWP"
	case PSDSWP:
		return "PS-DSWP"
	}
	return "?"
}

// Stage is one pipeline stage: the units it executes, in topological order,
// and whether it may be replicated across threads.
type Stage struct {
	Units    []int
	Parallel bool
	Weight   int64
}

// Schedule is one parallelization plan for a loop.
type Schedule struct {
	Kind   Kind
	Stages []Stage // DOALL: one parallel stage; Sequential: one stage

	// SharedSlots are frame slots promoted to shared storage: they are
	// read-modified-written by commutative member calls and must be
	// accessed atomically under the member's locks.
	SharedSlots []int

	// Estimate is the compiler's speedup estimate for the given thread
	// count (used to pick the default schedule, Section 4.5).
	Estimate float64

	// Notes record why schedules were or were not applicable.
	Notes []string
}

// String renders the schedule in the paper's notation, e.g.
// "DSWP [S, DOALL, S]".
func (s *Schedule) String() string {
	switch s.Kind {
	case Sequential:
		return "Sequential"
	case DOALL:
		return "DOALL"
	}
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		if st.Parallel {
			parts[i] = "DOALL"
		} else {
			parts[i] = "S"
		}
	}
	return fmt.Sprintf("%s [%s]", s.Kind, strings.Join(parts, ", "))
}

// UnitGraph is the unit-level dependence graph derived from the PDG. Its
// tables are indexed by unit or by instruction ID and are complete once
// BuildUnitGraph returns.
type UnitGraph struct {
	La *pipeline.LoopAnalysis

	NumUnits int
	// UnitOf maps each instruction ID of the loop's function to its unit
	// index (ControlUnit for loop control, loop glue and instructions
	// outside the loop).
	UnitOf []int

	// Intra[u] lists, in ascending order, the unit targets of unit u's
	// intra-iteration dependences; LC[u] likewise for loop-carried
	// dependences (after relaxation), ControlUnit included. Self
	// loop-carried dependences appear as LC[u] containing u.
	Intra [][]int
	LC    [][]int

	// IntoControl marks, by unit, the units with dependences into the loop
	// control (e.g. pointer-chasing loop conditions).
	IntoControl []bool

	// Weights holds per-unit profile weight (instruction cost sums).
	Weights []int64
	// ControlWeight is the loop-control pseudo-unit's weight.
	ControlWeight int64

	SharedSlots []int

	// sccs is the component DAG the pipeline partitioners share.
	sccs *sccResult
}

// BuildUnitGraph aggregates the analyzed PDG to unit granularity. weights
// maps instruction IDs to profiled cost; nil charges 1 per instruction.
func BuildUnitGraph(la *pipeline.LoopAnalysis, weights map[int]int64) *UnitGraph {
	units := la.Units
	nu := len(units.Units)
	g := &UnitGraph{
		La:          la,
		NumUnits:    nu,
		UnitOf:      make([]int, len(la.PDG.Instrs)),
		IntoControl: make([]bool, nu),
	}
	for id := range g.UnitOf {
		g.UnitOf[id] = ControlUnit // loop glue (branches) belongs to control
	}
	for ui, instrs := range units.Units {
		for _, in := range instrs {
			g.UnitOf[in.ID] = ui
		}
	}
	for _, in := range units.Cond {
		g.UnitOf[in.ID] = ControlUnit
	}
	for _, in := range units.Post {
		g.UnitOf[in.ID] = ControlUnit
	}

	// Weights.
	g.Weights = make([]int64, nu)
	cost := func(id int) int64 {
		if weights == nil {
			return 1
		}
		return weights[id]
	}
	for _, id := range la.PDG.Nodes {
		u := g.UnitOf[id]
		if u == ControlUnit {
			g.ControlWeight += cost(id)
		} else {
			g.Weights[u] += cost(id)
		}
	}

	// intra and lc are the dependence matrices: row u (a unit, never
	// control), column to+1 (a unit or control).
	intra := make([]bool, nu*(nu+1))
	lc := make([]bool, nu*(nu+1))
	addDep := func(m []bool, from, to int) { m[from*(nu+1)+to+1] = true }

	// Shared slots: read-modify-written accumulators of commutative member
	// calls in the loop (write-only region outputs stay private). Computed
	// up front so the edge walk can distinguish private-slot dependences.
	nslots := len(la.Fn.Locals)
	shared := make([]bool, nslots)
	for _, id := range la.Dep.MemberCalls {
		for _, s := range la.PDG.RMWSlots(la.PDG.Instrs[id]) {
			shared[s] = true
		}
	}

	// flowOut marks (slot, writer unit) pairs, at slot*nu+unit, where the
	// written value flows intra-iteration to another unit; anti edges into
	// such writers must be preserved (the snapshot cannot hold both pre-
	// and post-write values of the slot).
	flowOut := make([]bool, nslots*nu)
	for _, e := range la.PDG.Edges {
		slot, isSlot := e.LocalSlot()
		if !isSlot || e.LoopCarried || e.Kind != pdg.DepFlow || shared[slot] {
			continue
		}
		u1, u2 := g.UnitOf[e.From], g.UnitOf[e.To]
		if u1 != u2 && u1 != ControlUnit {
			flowOut[slot*nu+u1] = true
		}
	}

	for _, e := range la.PDG.Edges {
		if e.Comm == pdg.CommUCO {
			continue // treated as non-existent
		}
		if e.IVSlot {
			continue // privatized induction variable
		}
		u1 := g.UnitOf[e.From]
		u2 := g.UnitOf[e.To]
		lcDep := e.LoopCarried && e.Comm == pdg.CommNone // ico => intra
		if u1 == ControlUnit {
			// Satisfied by per-iteration tokens from the dispatcher.
			continue
		}
		if u2 == ControlUnit {
			// Only value flow into the loop control serializes the loop
			// (e.g. a pointer-chasing traversal feeding the condition).
			// Anti-dependences into control are satisfied by token copies:
			// each iteration receives its control values by value.
			if e.Kind == pdg.DepFlow || e.Kind == pdg.DepOutput {
				g.IntoControl[u1] = true
				addDep(lc, u1, ControlUnit)
			}
			continue
		}
		if e.Kind == pdg.DepControl {
			// Intra-iteration control between units follows unit order.
			continue
		}
		if u1 == u2 && !lcDep {
			continue
		}
		// Private-slot anti dependences between units are satisfied by the
		// executors' value-copy discipline: each stage receives an
		// iteration-start snapshot overlaid with flow-forwarded values, so
		// a later overwrite never clobbers an earlier stage's read. They
		// are dropped unless the written value also flows forward (both
		// pre- and post-write values would be needed). Output dependences
		// stay: they order writers so the last writer in source order is
		// also last in stage order, which the forwarding overlay and
		// live-out merge rely on.
		if slot, isSlot := e.LocalSlot(); isSlot && !shared[slot] && u1 != u2 && e.Kind == pdg.DepAnti {
			if !flowOut[slot*nu+u2] {
				continue
			}
		}
		if lcDep {
			addDep(lc, u1, u2)
			// A genuinely loop-carried scalar chain between distinct units
			// (an upward-exposed private-slot read of another unit's write,
			// e.g. em3d's list traversal) delivers previous-iteration
			// values. Only the dispatcher's iteration-start snapshot can
			// supply those, so the writing unit must join the control
			// stage: close a cycle with the control pseudo-unit.
			if slot, isSlot := e.LocalSlot(); isSlot && !shared[slot] && u1 != u2 && e.Kind == pdg.DepFlow {
				g.IntoControl[u1] = true
				addDep(lc, u1, ControlUnit)
			}
		} else {
			addDep(intra, u1, u2)
		}
	}
	g.Intra, g.LC = depLists(intra, nu), depLists(lc, nu)

	for s, sh := range shared {
		if sh {
			g.SharedSlots = append(g.SharedSlots, s)
		}
	}
	g.sccs = g.unitSCCs()
	return g
}

// depLists turns a dependence matrix of BuildUnitGraph into per-unit
// ascending target lists sharing one backing array.
func depLists(m []bool, nu int) [][]int {
	n := 0
	for _, d := range m {
		if d {
			n++
		}
	}
	all := make([]int, 0, n)
	lists := make([][]int, nu)
	for u := range lists {
		start := len(all)
		for c, d := range m[u*(nu+1) : (u+1)*(nu+1)] {
			if d {
				all = append(all, c-1)
			}
		}
		lists[u] = all[start:len(all):len(all)]
	}
	return lists
}

// HasLoopCarried reports whether any inter-iteration unit dependence
// remains (including unit self-dependences and dependences into control).
func (g *UnitGraph) HasLoopCarried() bool {
	for _, tos := range g.LC {
		if len(tos) > 0 {
			return true
		}
	}
	return false
}

// TotalWeight is the per-iteration weight of the whole body plus control.
func (g *UnitGraph) TotalWeight() int64 {
	w := g.ControlWeight
	for _, uw := range g.Weights {
		w += uw
	}
	return w
}
