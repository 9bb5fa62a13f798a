package exec

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/vm/interp"
)

// loopCode holds the tables of one analyzed loop that depend only on the
// program: main's instructions resolved once — positions, loop units,
// global slots, callee indices and operators — and the membership sets of
// the instruction groups the stepper runs. Like interp's compiled code it
// is built on first use and shared read-only by every run of the loop.
type loopCode struct {
	// instrPos locates every instruction of main: block ID and index,
	// indexed by the dense instruction ID.
	instrPos []instrLoc
	// unitOf maps loop instruction IDs to unit indices (-1 for control,
	// noUnit for instructions outside the loop), indexed by instruction ID.
	unitOf []int
	// gslot, callee, bin and un resolve main's global accesses to heap
	// slots, its call sites to callee indices (see interp.Callees) and its
	// operators to their functions, indexed by instruction ID.
	gslot  []int32
	callee []int32
	bin    []interp.BinFn
	un     []interp.UnFn
	// units, cond and post are the dense membership sets (by instruction
	// ID) of the loop's units, its condition and its post increment.
	units      [][]bool
	cond, post []bool
	// exitBlock is the loop's unique exit target.
	exitBlock int
}

type loopKey struct {
	prog *ir.Program
	la   *pipeline.LoopAnalysis
}

var loopCache sync.Map // loopKey -> *loopCode

// loopCodeOf returns the tables of la's loop in prog, building them on
// first use.
func loopCodeOf(prog *ir.Program, la *pipeline.LoopAnalysis) *loopCode {
	key := loopKey{prog, la}
	v, ok := loopCache.Load(key)
	if !ok {
		v, _ = loopCache.LoadOrStore(key, buildLoopCode(prog, la))
	}
	return v.(*loopCode)
}

func buildLoopCode(prog *ir.Program, la *pipeline.LoopAnalysis) *loopCode {
	n := la.Fn.NumInstrs()
	lc := &loopCode{
		instrPos: make([]instrLoc, n),
		unitOf:   make([]int, n),
		gslot:    make([]int32, n),
		callee:   make([]int32, n),
		bin:      make([]interp.BinFn, n),
		un:       make([]interp.UnFn, n),
	}
	heap := interp.NewHeap(prog)
	for _, b := range la.Fn.Blocks {
		for i, in := range b.Instrs {
			lc.instrPos[in.ID] = instrLoc{block: b.ID, index: i}
			switch in.Op {
			case ir.OpLoadGlobal, ir.OpStoreGlobal:
				lc.gslot[in.ID] = int32(heap.SlotOf(in.Name))
			case ir.OpCall:
				lc.callee[in.ID] = int32(interp.CalleeIndex(prog, in.Name))
			case ir.OpBin:
				lc.bin[in.ID] = interp.ResolveBin(in.BinOp)
			case ir.OpUn:
				lc.un[in.ID] = interp.ResolveUn(in.BinOp)
			}
		}
	}
	set := func(instrs []*ir.Instr) []bool {
		s := make([]bool, n)
		for _, in := range instrs {
			s[in.ID] = true
		}
		return s
	}
	for i := range lc.unitOf {
		lc.unitOf[i] = noUnit
	}
	lc.units = make([][]bool, len(la.Units.Units))
	for ui, instrs := range la.Units.Units {
		lc.units[ui] = set(instrs)
		for _, in := range instrs {
			lc.unitOf[in.ID] = ui
		}
	}
	lc.cond, lc.post = set(la.Units.Cond), set(la.Units.Post)
	for _, in := range la.Units.Cond {
		lc.unitOf[in.ID] = -1
	}
	for _, in := range la.Units.Post {
		lc.unitOf[in.ID] = -1
	}
	lc.exitBlock = -1
	for _, e := range la.Loop.Exits {
		lc.exitBlock = e
		break
	}
	return lc
}
