package transform

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/pipeline"
)

// IrregularIteration reports whether the loop body's units contain control
// flow that ends an iteration early or leaves the loop — a mid-body
// `return`, `break`, or `continue` at the top level of the hot loop. Such
// loops need control speculation to parallelize (paper Section 6, future
// work); the transforms fall back to a sequential schedule and report why.
func IrregularIteration(la *pipeline.LoopAnalysis) (bool, string) {
	// Block IDs of the post group (a branch into it from a unit is a
	// `continue`) and of the loop itself.
	postBlocks := make([]bool, len(la.Fn.Blocks))
	for _, in := range la.Units.Post {
		postBlocks[la.PDG.BlockOf[in.ID]] = true
	}
	headerTargets := func(t int) bool {
		return t == la.Loop.Header || postBlocks[t]
	}

	// A mid-loop return takes precedence in the diagnostic: its then-arm is
	// not part of the natural loop, so the branch check below would
	// otherwise misreport it as a break.
	for ui, unit := range la.Units.Units {
		for _, in := range unit {
			if in.Op == ir.OpRet {
				return true, fmt.Sprintf("unit %d returns from inside the loop", ui)
			}
		}
	}
	for ui, unit := range la.Units.Units {
		// The final instruction group of a unit legitimately flows to the
		// next unit; only *internal* branches to post/header/outside count.
		for _, in := range unit {
			switch in.Op {
			case ir.OpBr, ir.OpCondBr:
				for _, t := range in.Targets {
					if !la.Loop.Contains(t) {
						return true, fmt.Sprintf("unit %d breaks out of the loop", ui)
					}
					if headerTargets(t) && !lastInstrOfUnit(unit, in) {
						return true, fmt.Sprintf("unit %d continues the loop early", ui)
					}
				}
			}
		}
	}
	return false, ""
}

// lastInstrOfUnit reports whether in is the unit's final instruction (the
// natural fallthrough of the last statement in the body).
func lastInstrOfUnit(unit []*ir.Instr, in *ir.Instr) bool {
	return len(unit) > 0 && unit[len(unit)-1] == in
}
