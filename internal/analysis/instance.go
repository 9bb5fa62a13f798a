package analysis

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/pdg"
	"repro/internal/pipeline"
	"repro/internal/symexec"
)

// This file makes the conflict footprints alias-aware. The effect system
// names whole abstract locations ("t:bitmaps" is every bitmap in the
// program), so two accesses to different bitmaps, files, or pool slots
// still collide on the location. Builtins now declare which argument
// carries the instance handle (effects.Decl.InstanceBy) and which calls
// return globally fresh handles (effects.Decl.Allocates); here the
// analyzer resolves each endpoint of a dependence to a symbolic handle
// value and drops the location from the conflict set when the handles are
// provably distinct.
//
// Handle values use the symexec lattice: constants and induction-variable
// affine forms compare arithmetically, and allocation-rooted handles
// (symexec.Alloc) compare by allocator freshness — handles rooted at
// distinct allocation sites are never equal, and a handle re-allocated
// every iteration differs from itself across iterations.

// conflictLocsAt filters conflictLocs(in1, in2) of edge e's endpoints by
// disjointness: a location is dropped when both endpoints access it through
// handles that are provably unequal under the edge's iteration assumption
// (distinct bitmaps, files, pool slots), or through keyed accesses whose
// key values are provably unequal (distinct elements — a different element
// of any handle never conflicts). Endpoints whose handle or key cannot be
// named keep the location (sound default).
//
// The result depends on the edge alone, and the unsound check asks for it
// once per relaxed edge and the race check once per concurrent schedule,
// so it is computed once per edge per run.
func (v *vet) conflictLocsAt(la *pipeline.LoopAnalysis, e *pdg.Edge) []effects.Loc {
	if locs, ok := v.edgeLocs[e]; ok {
		return locs
	}
	locs := v.filterConflictLocs(la, e)
	if v.edgeLocs == nil {
		v.edgeLocs = map[*pdg.Edge][]effects.Loc{}
	}
	v.edgeLocs[e] = locs
	return locs
}

func (v *vet) filterConflictLocs(la *pipeline.LoopAnalysis, e *pdg.Edge) []effects.Loc {
	in1, in2 := la.PDG.Instrs[la.Dep.Of(e.From)], la.PDG.Instrs[la.Dep.Of(e.To)]
	if in1 == nil || in2 == nil {
		return nil
	}
	assume := symexec.SameIteration
	i1, i2 := 1, 1
	if e.LoopCarried {
		assume = symexec.DifferentIteration
		i2 = 2
	}
	var out []effects.Loc
	for _, loc := range v.conflictLocs(in1.Name, in2.Name) {
		h1, ok1 := v.instanceVal(la, in1, loc, i1)
		h2, ok2 := v.instanceVal(la, in2, loc, i2)
		if ok1 && ok2 && symexec.ValsEqual(h1, h2, assume) == symexec.False {
			continue
		}
		k1, ok1 := v.keyVal(la, in1, loc, i1)
		k2, ok2 := v.keyVal(la, in2, loc, i2)
		if ok1 && ok2 && symexec.ValsEqual(k1, k2, assume) == symexec.False {
			continue
		}
		out = append(out, loc)
	}
	return out
}

// keyVal resolves the element key through which call instruction `in`
// accesses loc: the declared key argument for builtins, the key-flow
// summary's keying parameter for user callees. ok is false when some
// access to loc is unkeyed.
func (v *vet) keyVal(la *pipeline.LoopAnalysis, in *ir.Instr, loc effects.Loc, inst int) (symexec.Val, bool) {
	if in.Op != ir.OpCall {
		return symexec.Val{}, false
	}
	ks := v.keyedParams(in.Name, loc)
	k, x, ok := -1, xformID, false
	for p, px := range ks {
		if !ok || p < k {
			k, x, ok = p, px, true
		}
	}
	if !ok || k < 0 || k >= len(in.Args) {
		return symexec.Val{}, false
	}
	val := v.symVal(la, in, in.Args[k], inst, 0)
	if x != xformID {
		// The callee accesses element a*arg+b: apply the transform to the
		// symbolic argument where the algebra can represent it.
		switch val.Kind {
		case symexec.KConst:
			if val.C.T != ast.TInt {
				return symexec.Val{}, false
			}
			val = symexec.IntConst(x.a*val.C.I + x.b)
		case symexec.KAffine:
			val = symexec.Affine(x.a*val.A, x.a*val.B+x.b, val.Inst)
		default:
			return symexec.Val{}, false
		}
	}
	return val, val.Kind != symexec.KUnknown
}

// instanceVal resolves the handle through which call instruction `in`
// accesses loc, as a symbolic value for iteration instance inst. ok is
// false when the instruction's accesses to loc are not provably confined
// to one nameable handle.
func (v *vet) instanceVal(la *pipeline.LoopAnalysis, in *ir.Instr, loc effects.Loc, inst int) (symexec.Val, bool) {
	if in.Op != ir.OpCall {
		return symexec.Val{}, false
	}
	if s, ok := v.keyflow().fns[in.Name]; ok {
		switch d := s.inst[loc]; d.kind {
		case iParam:
			if d.param < len(in.Args) {
				return v.handleVal(la, in, in.Args[d.param], inst)
			}
		case iConst:
			return symexec.Affine(0, d.c, inst), true
		case iAlloc:
			// Every access in the callee loads the handle from a global
			// stored exactly once, straight from an allocator. The handle
			// is only trustworthy during the loop when that store runs
			// before the loop: same function, outside the loop, in a block
			// dominating the header (otherwise a load could observe the
			// global's initial value and collide with another site's).
			g := d.site[len("g:"):]
			if v.globalAllocDominatesLoop(la, g) {
				return symexec.Alloc(d.site, false, inst), true
			}
		case iFresh:
			// Every access in the callee uses a handle allocated during
			// that very execution; allocator freshness makes handles of
			// distinct executions distinct. The call site identifies the
			// execution, the instance distinguishes iterations.
			return symexec.Alloc(fmt.Sprintf("fresh:%s:%d", in.Name, in.ID), true, inst), true
		}
		return symexec.Val{}, false
	}
	a, ok := v.c.Summary.InstanceArg(in.Name, loc)
	if !ok || a < 0 || a >= len(in.Args) {
		return symexec.Val{}, false
	}
	return v.handleVal(la, in, in.Args[a], inst)
}

// handleVal names the handle carried by register r at instruction `at` in
// the analyzed loop's function.
func (v *vet) handleVal(la *pipeline.LoopAnalysis, at *ir.Instr, r int, inst int) (symexec.Val, bool) {
	val := v.symVal(la, at, r, inst, 0)
	return val, val.Kind != symexec.KUnknown
}

// symVal derives the symbolic value of register r at instruction `at` in
// the analyzed loop's function: constants and induction variables become
// affine forms (with arithmetic folded through OpBin/OpUn), loop-invariant
// slots and globals become invariants, and allocator-rooted handles become
// symexec.Alloc values that compare by freshness.
func (v *vet) symVal(la *pipeline.LoopAnalysis, at *ir.Instr, r int, inst, depth int) symexec.Val {
	def := la.PDG.DefOfReg(at, r)
	if def == nil || depth > 8 {
		return symexec.UnknownVal()
	}
	switch def.Op {
	case ir.OpConst:
		if def.Val.T == ast.TInt {
			return symexec.Affine(0, def.Val.I, inst)
		}
		return symexec.Const(def.Val)
	case ir.OpLoadLocal:
		if la.PDG.IVSlots[def.Slot] {
			return symexec.Affine(1, 0, inst)
		}
		if st := v.keyflow().singleAllocStore(la.Fn, def.Slot); st != nil {
			site := fmt.Sprintf("l:%s:%d", la.Fn.Name, def.Slot)
			if val, ok := v.allocStoreVal(la, st, def, site, inst); ok {
				return val
			}
		}
		if !slotStored(la.Fn, def.Slot) {
			return symexec.Invariant(fmt.Sprintf("s:%d", def.Slot))
		}
	case ir.OpLoadGlobal:
		if _, ok := v.keyflow().globalAlloc[def.Name]; ok &&
			v.globalAllocDominatesLoop(la, def.Name) {
			return symexec.Alloc("g:"+def.Name, false, inst)
		}
		if !v.globalWritten(def.Name) {
			return symexec.Invariant("g:" + def.Name)
		}
	case ir.OpBin:
		x := v.symVal(la, def, def.A, inst, depth+1)
		y := v.symVal(la, def, def.B, inst, depth+1)
		return affineFold(def.BinOp, x, y, inst)
	case ir.OpUn:
		if def.BinOp == "-" {
			x := v.symVal(la, def, def.A, inst, depth+1)
			if x.Kind == symexec.KAffine {
				return symexec.Affine(-x.A, -x.B, inst)
			}
		}
	}
	return symexec.UnknownVal()
}

// affineFold folds integer arithmetic over affine operands, mirroring the
// dependence analyzer's symbolic evaluation.
func affineFold(op string, x, y symexec.Val, inst int) symexec.Val {
	if x.Kind != symexec.KAffine || y.Kind != symexec.KAffine {
		return symexec.UnknownVal()
	}
	switch op {
	case "+":
		return symexec.Affine(x.A+y.A, x.B+y.B, inst)
	case "-":
		return symexec.Affine(x.A-y.A, x.B-y.B, inst)
	case "*":
		if x.A == 0 {
			return symexec.Affine(x.B*y.A, x.B*y.B, inst)
		}
		if y.A == 0 {
			return symexec.Affine(y.B*x.A, y.B*x.B, inst)
		}
	}
	return symexec.UnknownVal()
}

// globalWritten reports whether any function in the program writes global
// g (an unwritten global is loop-invariant everywhere).
func (v *vet) globalWritten(g string) bool {
	loc := effects.GlobalLoc(g)
	for _, fe := range v.c.Summary.Fns {
		if fe.Writes[loc] {
			return true
		}
	}
	return false
}

// allocStoreVal classifies a handle loaded (by load) from a local slot
// whose single store st takes an allocator result: loop-invariant when the
// store runs before the loop, freshly re-allocated per iteration when the
// store runs inside the loop and dominates the load (so the load always
// observes the current iteration's allocation).
func (v *vet) allocStoreVal(la *pipeline.LoopAnalysis, st, load *ir.Instr, site string, inst int) (symexec.Val, bool) {
	sb := la.Fn.BlockOfInstr(st)
	lb := la.Fn.BlockOfInstr(load)
	if sb == nil || lb == nil {
		return symexec.Val{}, false
	}
	if !la.Loop.Blocks[sb.ID] {
		if la.PDG.Dom.Dominates(sb.ID, la.Loop.Header) {
			return symexec.Alloc(site, false, inst), true
		}
		return symexec.Val{}, false
	}
	if sb.ID == lb.ID {
		if instrIndex(sb, st) < instrIndex(lb, load) {
			return symexec.Alloc(site, true, inst), true
		}
		return symexec.Val{}, false
	}
	if la.PDG.Dom.Dominates(sb.ID, lb.ID) {
		return symexec.Alloc(site, true, inst), true
	}
	return symexec.Val{}, false
}

// globalAllocDominatesLoop reports whether global g's single
// allocation-rooted store runs before every iteration of la's loop: the
// store sits in the same function, outside the loop, in a block dominating
// the loop header.
func (v *vet) globalAllocDominatesLoop(la *pipeline.LoopAnalysis, g string) bool {
	kf := v.keyflow()
	if kf.globalStoreFn[g] != la.Fn.Name {
		return false
	}
	st := kf.globalStoreIn[g]
	sb := la.Fn.BlockOfInstr(st)
	if sb == nil || la.Loop.Blocks[sb.ID] {
		return false
	}
	return la.PDG.Dom.Dominates(sb.ID, la.Loop.Header)
}
