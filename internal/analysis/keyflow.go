package analysis

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/ir"
)

// This file computes the whole-program key-flow and instance-flow
// summaries that make the footprint checks interprocedural. For every user
// function and every abstract location it (transitively) touches, the
// summary answers two questions:
//
//   - keyed: which parameters of the function key *every* access to the
//     location, and through which affine transform (the element touched
//     always equals a*param+b for one fixed transform per parameter)? A
//     predicate key forwarded through a helper to a keyed builtin then
//     still proves coverage in covers(), including shifted or scaled
//     forwarding like bitmap_set(bm, k+1): an injective transform maps
//     distinct keys to distinct elements.
//   - inst: which handle (instance) of the location do the accesses go
//     through — a parameter, a constant, the single allocator-rooted store
//     of a global, or handles freshly allocated inside the function?
//     Provably distinct handles make the whole conflict vanish.
//
// Summaries are computed bottom-up over the call graph's strongly
// connected components; within an SCC (mutual recursion) the computation
// starts from the optimistic top element and shrinks to a greatest fixed
// point. The optimistic start is sound because every concrete access event
// has finite call depth: unwinding any access chain ends at a builtin or a
// raw global access, whose keyedness and instance are not assumptions but
// facts, and the fixed point is consistent with every finite unwinding.

// keyXform is the affine map from a keying value to the accessed element:
// element = a*key + b. The identity transform is {1, 0}. A transform with
// a != 0 is injective over the integers, so distinct keys still prove
// distinct elements.
type keyXform struct {
	a, b int64
}

// xformID is the identity transform (the element is the key itself).
var xformID = keyXform{1, 0}

// then composes two transforms: first inner (key -> value), then outer
// (value -> element).
func (outer keyXform) then(inner keyXform) keyXform {
	return keyXform{outer.a * inner.a, outer.a*inner.b + outer.b}
}

func (x keyXform) String() string {
	return fmt.Sprintf("%d*k%+d", x.a, x.b)
}

// instDesc is the summary-level instance descriptor of a location's
// accesses within one function.
type instDesc struct {
	kind  instKind
	param int    // iParam: parameter slot supplying the handle
	c     int64  // iConst: constant handle
	site  string // iAlloc: allocation-rooted single-store site ("g:<name>")
}

type instKind int

const (
	// iNone: no access seen yet (bottom).
	iNone instKind = iota
	// iParam: every access goes through the handle in parameter `param`.
	iParam
	// iConst: every access uses the constant handle `c`.
	iConst
	// iAlloc: every access uses the handle held by single-store site
	// `site`, whose stored value comes straight from a fresh-handle
	// allocator.
	iAlloc
	// iFresh: every access uses a handle allocated during the current
	// execution of the function (an allocator call inside the body).
	// Distinct dynamic instances therefore touch disjoint handles.
	iFresh
	// iTop: accesses mix handles or use one the analysis cannot name.
	iTop
)

func (d instDesc) String() string {
	switch d.kind {
	case iNone:
		return "none"
	case iParam:
		return fmt.Sprintf("param:%d", d.param)
	case iConst:
		return fmt.Sprintf("const:%d", d.c)
	case iAlloc:
		return "alloc:" + d.site
	case iFresh:
		return "fresh"
	}
	return "top"
}

// joinInst combines the instance descriptors of two access groups: bottom
// is the identity, equal descriptors stay, two fresh groups stay fresh
// (all handles are still instance-local), and anything else mixes to top.
func joinInst(a, b instDesc) instDesc {
	if a.kind == iNone {
		return b
	}
	if b.kind == iNone {
		return a
	}
	if a == b {
		return a
	}
	if a.kind == iFresh && b.kind == iFresh {
		return instDesc{kind: iFresh}
	}
	return instDesc{kind: iTop}
}

// fnKeyFlow is one function's summary.
type fnKeyFlow struct {
	// keyed[loc] maps the parameter slots that key every access to loc to
	// the affine transform every access applies to them; a missing or empty
	// entry means some access is unkeyed (or mixes transforms).
	keyed map[effects.Loc]map[int]keyXform
	// inst[loc] describes the handle of every access to loc.
	inst map[effects.Loc]instDesc
}

// allocSite records a single-store site whose stored value comes from a
// fresh-handle allocator call.
type allocSite struct {
	site string
	locs map[effects.Loc]bool // locations the allocator returns handles of
}

// keyFlow holds the whole-program summaries plus the single-store
// allocation-site maps they are built from.
type keyFlow struct {
	v   *vet
	fns map[string]*fnKeyFlow

	// globalAlloc maps a global name to its allocation site when the
	// global is stored exactly once in the whole program and the stored
	// value comes straight from an allocator call.
	globalAlloc map[string]allocSite
	// globalStoreFn/globalStoreIn locate that single store (for the
	// dominance check at use sites).
	globalStoreFn map[string]string
	globalStoreIn map[string]*ir.Instr
}

// newKeyFlow computes summaries for every user function, bottom-up over
// call-graph SCCs with a per-SCC fixed point.
func newKeyFlow(v *vet) *keyFlow {
	kf := &keyFlow{
		v:             v,
		fns:           map[string]*fnKeyFlow{},
		globalAlloc:   map[string]allocSite{},
		globalStoreFn: map[string]string{},
		globalStoreIn: map[string]*ir.Instr{},
	}
	kf.collectGlobalAllocs()

	prog := v.c.Low.Prog
	universe := map[string]bool{}
	for name := range prog.Funcs {
		universe[name] = true
	}
	for _, scc := range v.c.CG.SCCs(universe) {
		// A function on no call cycle reads only final callee summaries,
		// so one computation is its fixed point.
		if fn := scc[0]; len(scc) == 1 {
			if _, self := slices.BinarySearch(v.c.CG.Callees[fn], fn); !self {
				kf.fns[fn] = kf.compute(fn)
				continue
			}
		}
		// Optimistic start for the component: every unstored parameter
		// keys every touched location, and no access has been seen.
		for _, fn := range scc {
			kf.fns[fn] = kf.optimistic(fn)
		}
		// The keyed part of the lattice is "same transform or gone": set
		// shrinking terminates, but a recursive cycle could in principle
		// oscillate between transform values without shrinking. Past a
		// generous round bound, collapse the SCC's keyed maps (sound: an
		// unkeyed summary claims less) and let the instance part finish.
		for changed, rounds := true, 0; changed; rounds++ {
			changed = false
			for _, fn := range scc {
				next := kf.compute(fn)
				if !kf.fns[fn].equal(next) {
					kf.fns[fn] = next
					changed = true
				}
			}
			if changed && rounds > 4*len(scc)+8 {
				for _, fn := range scc {
					for loc := range kf.fns[fn].keyed {
						kf.fns[fn].keyed[loc] = map[int]keyXform{}
					}
				}
			}
		}
	}
	return kf
}

// optimistic builds the top summary for a function: every location it
// touches is keyed by every unstored parameter and has the bottom instance
// descriptor.
func (kf *keyFlow) optimistic(fn string) *fnKeyFlow {
	s := &fnKeyFlow{keyed: map[effects.Loc]map[int]keyXform{}, inst: map[effects.Loc]instDesc{}}
	f := kf.v.c.Low.Prog.Funcs[fn]
	fe := kf.v.c.Summary.Fns[fn]
	if f == nil || fe == nil {
		return s
	}
	var params map[int]bool
	for p := 0; p < f.Params; p++ {
		if !slotStored(f, p) {
			if params == nil {
				params = map[int]bool{}
			}
			params[p] = true
		}
	}
	touch := func(loc effects.Loc) {
		if _, ok := s.keyed[loc]; ok {
			return
		}
		ps := map[int]keyXform{}
		for p := range params {
			ps[p] = xformID
		}
		s.keyed[loc] = ps
		s.inst[loc] = instDesc{kind: iNone}
	}
	for _, loc := range fe.Reads {
		touch(loc)
	}
	for _, loc := range fe.Writes {
		touch(loc)
	}
	return s
}

func (s *fnKeyFlow) equal(o *fnKeyFlow) bool {
	if len(s.keyed) != len(o.keyed) || len(s.inst) != len(o.inst) {
		return false
	}
	for loc, ps := range s.keyed {
		ops, ok := o.keyed[loc]
		if !ok || len(ps) != len(ops) {
			return false
		}
		for p, x := range ps {
			if ox, ok := ops[p]; !ok || ox != x {
				return false
			}
		}
	}
	for loc, d := range s.inst {
		if o.inst[loc] != d {
			return false
		}
	}
	return true
}

// compute re-derives one function's summary from the current summaries of
// its callees.
func (kf *keyFlow) compute(fn string) *fnKeyFlow {
	s := &fnKeyFlow{keyed: map[effects.Loc]map[int]keyXform{}, inst: map[effects.Loc]instDesc{}}
	f := kf.v.c.Low.Prog.Funcs[fn]
	if f == nil {
		return s
	}
	access := func(loc effects.Loc, ps map[int]keyXform, d instDesc) {
		if _, seen := s.keyed[loc]; !seen {
			if ps == nil {
				ps = map[int]keyXform{}
			}
			s.keyed[loc] = ps
			s.inst[loc] = d
			return
		}
		for p, x := range s.keyed[loc] {
			if ox, ok := ps[p]; !ok || ox != x {
				delete(s.keyed[loc], p)
			}
		}
		s.inst[loc] = joinInst(s.inst[loc], d)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoadGlobal, ir.OpStoreGlobal:
				// A raw global access is unkeyed and uninstanced.
				access(effects.GlobalLoc(in.Name), nil, instDesc{kind: iTop})
			case ir.OpCall:
				kf.callAccesses(f, b, in, access)
			}
		}
	}
	return s
}

// callAccesses feeds the per-location key and instance contributions of
// one call instruction into access.
func (kf *keyFlow) callAccesses(f *ir.Func, b *ir.Block, in *ir.Instr, access func(effects.Loc, map[int]keyXform, instDesc)) {
	r, w := kf.v.c.Summary.CallEffects(in.Name)
	callee := kf.fns[in.Name] // nil for builtins
	var posBuf [8]int
	for _, loc := range effects.Union(r, w) {
		// Keyed positions of the callee for loc, as callee parameter (=
		// argument) indices in ascending order, with the transform the
		// callee applies.
		calleePos := posBuf[:0]
		var calleeX map[int]keyXform
		if callee != nil {
			calleeX = callee.keyed[loc]
			for p := range calleeX {
				calleePos = append(calleePos, p)
			}
			slices.Sort(calleePos)
		} else if k, ok := kf.v.c.Summary.KeyedArg(in.Name, loc); ok {
			calleePos = append(calleePos, k)
		}
		var ps map[int]keyXform
		for _, k := range calleePos {
			if k < 0 || k >= len(in.Args) {
				continue
			}
			// The accessed element is calleeX[k] of the argument, and the
			// argument may itself be an affine function of an unstored
			// parameter: compose the two transforms.
			if slot, ax, ok := affineOfReg(f, b, in, in.Args[k], 0); ok {
				if ps == nil {
					ps = map[int]keyXform{}
				}
				if _, dup := ps[slot]; !dup {
					x := xformID
					if callee != nil {
						x = calleeX[k]
					}
					ps[slot] = x.then(ax)
				}
			}
		}

		// Instance descriptor of the access in f's context.
		d := instDesc{kind: iTop}
		if callee != nil {
			switch cd := callee.inst[loc]; cd.kind {
			case iNone:
				// Mid-fixpoint optimism: the callee has shown no access
				// yet, so this call contributes nothing for loc.
				if len(calleePos) == 0 && callee.keyed[loc] == nil {
					continue
				}
				d = instDesc{kind: iNone}
			case iParam:
				if cd.param < len(in.Args) {
					d = kf.resolveHandle(f, b, in, in.Args[cd.param])
				}
			default:
				d = cd
			}
		} else if a, ok := kf.v.c.Summary.InstanceArg(in.Name, loc); ok {
			if a >= 0 && a < len(in.Args) {
				d = kf.resolveHandle(f, b, in, in.Args[a])
			}
		}
		access(loc, ps, d)
	}
}

// resolveHandle names the handle carried by register r at instruction `at`
// within f, as a summary-level instance descriptor.
func (kf *keyFlow) resolveHandle(f *ir.Func, b *ir.Block, at *ir.Instr, r int) instDesc {
	def := defBefore(b, at, r)
	if def == nil {
		return instDesc{kind: iTop}
	}
	switch def.Op {
	case ir.OpConst:
		if def.Val.T == ast.TInt {
			return instDesc{kind: iConst, c: def.Val.I}
		}
	case ir.OpLoadLocal:
		slot := def.Slot
		if slot < f.Params && !slotStored(f, slot) {
			return instDesc{kind: iParam, param: slot}
		}
		// A local whose only store in the function takes the result of a
		// fresh-handle allocator, in this block before the access with no
		// intervening store: every value it can hold here was allocated
		// during the current execution.
		if st := kf.singleAllocStore(f, slot); st != nil &&
			instrIndex(b, st) >= 0 && instrIndex(b, st) < instrIndex(b, def) {
			return instDesc{kind: iFresh}
		}
	case ir.OpLoadGlobal:
		if _, ok := kf.globalAlloc[def.Name]; ok {
			return instDesc{kind: iAlloc, site: "g:" + def.Name}
		}
	}
	return instDesc{kind: iTop}
}

// singleAllocStore returns the only store to slot in f when that store's
// value comes straight from a fresh-handle allocator call, else nil.
func (kf *keyFlow) singleAllocStore(f *ir.Func, slot int) *ir.Instr {
	var store *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStoreLocal && in.Slot == slot {
				if store != nil {
					return nil
				}
				store = in
			}
			if in.Op == ir.OpCall {
				for _, s := range in.OutSlots {
					if s == slot {
						return nil
					}
				}
			}
		}
	}
	if store == nil {
		return nil
	}
	sb := f.BlockOfInstr(store)
	def := defBefore(sb, store, store.A)
	if def == nil || def.Op != ir.OpCall || len(kf.allocLocs(def.Name)) == 0 {
		return nil
	}
	return store
}

// allocLocs returns the locations builtin name allocates fresh handles of.
func (kf *keyFlow) allocLocs(name string) []effects.Loc {
	decl, ok := kf.v.c.Summary.Builtins[name]
	if !ok {
		return nil
	}
	return decl.Allocates
}

// collectGlobalAllocs finds globals stored exactly once in the whole
// program whose stored value comes straight from a fresh-handle allocator
// call: loads of such a global name an allocation-rooted handle.
func (kf *keyFlow) collectGlobalAllocs() {
	prog := kf.v.c.Low.Prog
	storeCount := map[string]int{}
	storeIn := map[string]*ir.Instr{}
	storeFnOf := map[string]string{}
	storeBlk := map[string]*ir.Block{}
	for _, name := range prog.Order {
		f := prog.Funcs[name]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStoreGlobal {
					storeCount[in.Name]++
					storeIn[in.Name] = in
					storeFnOf[in.Name] = name
					storeBlk[in.Name] = b
				}
			}
		}
	}
	for g, n := range storeCount {
		if n != 1 {
			continue
		}
		st := storeIn[g]
		def := defBefore(storeBlk[g], st, st.A)
		if def == nil || def.Op != ir.OpCall {
			continue
		}
		locs := kf.allocLocs(def.Name)
		if len(locs) == 0 {
			continue
		}
		ls := map[effects.Loc]bool{}
		for _, l := range locs {
			ls[l] = true
		}
		kf.globalAlloc[g] = allocSite{site: "g:" + g, locs: ls}
		kf.globalStoreFn[g] = storeFnOf[g]
		kf.globalStoreIn[g] = st
	}
}

// keyedParams returns the callee argument positions that key every access
// of callee `name` to loc, with the affine transform each applies: the
// declared key argument for builtins (identity transform), the key-flow
// summary for user functions.
func (v *vet) keyedParams(name string, loc effects.Loc) map[int]keyXform {
	if s, ok := v.keyflow().fns[name]; ok {
		return s.keyed[loc]
	}
	if k, ok := v.c.Summary.KeyedArg(name, loc); ok {
		return map[int]keyXform{k: xformID}
	}
	return nil
}

// keyflow lazily computes the whole-program summaries.
func (v *vet) keyflow() *keyFlow {
	if v.kf == nil {
		v.kf = newKeyFlow(v)
	}
	return v.kf
}

// affineOfReg resolves a register to an affine function a*p+b of an
// unstored parameter slot p, if it is one: a plain parameter load is the
// identity, and +, -, * against integer constants (and unary minus)
// compose. The parameter's value at the use is then exactly its incoming
// value, transformed.
func affineOfReg(f *ir.Func, b *ir.Block, before *ir.Instr, reg, depth int) (slot int, x keyXform, ok bool) {
	if depth > 6 {
		return 0, keyXform{}, false
	}
	def := defBefore(b, before, reg)
	if def == nil {
		return 0, keyXform{}, false
	}
	switch def.Op {
	case ir.OpLoadLocal:
		if def.Slot < f.Params && !slotStored(f, def.Slot) {
			return def.Slot, xformID, true
		}
	case ir.OpUn:
		if def.BinOp == "-" {
			if s, ax, ok := affineOfReg(f, b, def, def.A, depth+1); ok {
				return s, keyXform{-ax.a, -ax.b}, true
			}
		}
	case ir.OpBin:
		sa, xa, oka := affineOfReg(f, b, def, def.A, depth+1)
		sb, xb, okb := affineOfReg(f, b, def, def.B, depth+1)
		ca, cok1 := intConstOf(b, def, def.A)
		cb, cok2 := intConstOf(b, def, def.B)
		switch def.BinOp {
		case "+":
			if oka && cok2 {
				return sa, keyXform{xa.a, xa.b + cb}, true
			}
			if cok1 && okb {
				return sb, keyXform{xb.a, xb.b + ca}, true
			}
		case "-":
			if oka && cok2 {
				return sa, keyXform{xa.a, xa.b - cb}, true
			}
			if cok1 && okb {
				return sb, keyXform{-xb.a, ca - xb.b}, true
			}
		case "*":
			if oka && cok2 && cb != 0 {
				return sa, keyXform{xa.a * cb, xa.b * cb}, true
			}
			if cok1 && okb && ca != 0 {
				return sb, keyXform{xb.a * ca, xb.b * ca}, true
			}
		}
	}
	return 0, keyXform{}, false
}

// intConstOf resolves a register to its integer constant value, if its
// definition is an integer OpConst.
func intConstOf(b *ir.Block, before *ir.Instr, reg int) (int64, bool) {
	def := defBefore(b, before, reg)
	if def == nil || def.Op != ir.OpConst || def.Val.T != ast.TInt {
		return 0, false
	}
	return def.Val.I, true
}
