package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/builtins"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/symexec"
	"repro/internal/types"
)

// This file is the commutativity verifier: the analyzer pass behind
// -checks=commute. The paper's front end trusts that annotated blocks
// commute; this pass audits the claim with a differencing abstraction.
// For every pair of members of a commset (each member against itself for
// Self sets, distinct members pairwise for Group sets), it binds a common
// symbolic pre-state, executes both orders A;B and B;A over the builtin
// effect models (commexec.go), and diffs the two post-states over every
// observable location plus the members' own results. A non-empty
// difference is reported as `commute-unverified` with a concrete
// counterexample valuation of the symbolic inputs.
//
// Set predicates are assumed, exactly as the runtime enforces them: a
// predicated pair is verified under the disequalities the predicate
// implies for the relaxed instances. Self-set pairs additionally know the
// two instances are distinct dynamic executions, which makes their fresh
// allocations distinct.

// boundMember is one member instance with its symbolic arguments.
type boundMember struct {
	fn     string
	f      *ir.Func
	instNo int
	args   []*symexec.Term
	ident  *symexec.Term
	pred   []*symexec.Term // predicate argument terms, by position
	pos    source.Pos
}

func (v *vet) checkCommute() {
	env := newCommEnv(v)
	for _, s := range v.c.Model.Sets {
		members := v.c.Model.Members[s]
		if s.SelfSet {
			for _, fn := range members {
				v.verifyPair(env, s, fn, fn)
			}
		} else {
			for i, f1 := range members {
				for _, f2 := range members[i+1:] {
					v.verifyPair(env, s, f1, f2)
				}
			}
		}
	}
}

func setDisplay(s *types.Set) string {
	if s.Anon {
		return "SELF"
	}
	return s.Name
}

func (v *vet) verifyPair(env *commEnv, s *types.Set, fn1, fn2 string) {
	key := fmt.Sprintf("commute|%s@%s|%s|%s", s.Name, s.DeclPos, fn1, fn2)
	if !v.once(key) {
		return
	}
	facts := symexec.NewFacts(symexec.SameIteration)
	b1, why1 := v.bindMember(env, s, fn1, 1)
	b2, why2 := v.bindMember(env, s, fn2, 2)
	if why1 != "" || why2 != "" {
		why := why1
		if why == "" {
			why = why2
		}
		v.commuteWarn(s, fn1, fn2, b1, why)
		return
	}
	if fn1 == fn2 {
		// Two instances of one member are distinct dynamic executions:
		// their execution identities — and hence their fresh allocations —
		// differ even before any predicate is consulted.
		facts.AddDistinct(b1.ident, b2.ident)
	}
	if s.Pred != nil {
		n := len(s.Pred.Params1)
		if len(b1.pred) == n && len(b2.pred) == n {
			for j := 0; j < n; j++ {
				if v.keyConstrains(s, j) {
					addDistinctDerived(facts, b1.pred[j], b2.pred[j])
				}
			}
		}
	}
	stAB, rAB1, rAB2, bailAB := v.execOrder(env, facts, b1, b2)
	if bailAB != "" {
		v.commuteWarn(s, fn1, fn2, b1, bailAB)
		return
	}
	stBA, rBA2, rBA1, bailBA := v.execOrder(env, facts, b2, b1)
	if bailBA != "" {
		v.commuteWarn(s, fn1, fn2, b1, bailBA)
		return
	}
	cmp := &commExec{env: env, facts: facts}
	div := v.compareOrders(cmp, b1, b2, stAB, stBA, rAB1, rAB2, rBA1, rBA2)
	if div == nil {
		return // verified: the difference of the two post-states is empty
	}
	cex := counterexample(div.terms, b1, b2)
	v.diags.Errorf(v.c.File.Name, b1.pos,
		"commute-unverified: %s of commset %s do not provably commute: the orders A;B and B;A diverge at %s (counterexample: %s; order A;B yields %s, order B;A yields %s)",
		v.pairDesc(fn1, fn2), setDisplay(s), div.at, cex, div.a, div.b).
		Related(v.c.File.Name, source.Span{Start: b2.pos}, "second member instance here")
}

func (v *vet) commuteWarn(s *types.Set, fn1, fn2 string, b1 *boundMember, why string) {
	pos := s.DeclPos
	if b1 != nil {
		pos = b1.pos
	}
	// A dynamic verdict for this pair discharges the cannot-decide: the
	// sanitizer replayed both orders on a captured concrete pre-state.
	if d, ok := v.opts.Discharge[DischargeKey(s.Name, fn1, fn2)]; ok {
		switch d.Verdict {
		case "verified":
			v.diags.Notef(v.c.File.Name, pos,
				"commute-unverified: cannot decide statically whether %s of commset %s commute (%s); verified-dynamic by sanitizer replay (%s)",
				v.pairDesc(fn1, fn2), setDisplay(s), why, d.Replay)
			return
		case "violation":
			v.diags.Errorf(v.c.File.Name, pos,
				"commute-violation: %s of commset %s do not commute, refuted by sanitizer replay; counterexample: %s (replay: %s)",
				v.pairDesc(fn1, fn2), setDisplay(s), d.Diff, d.Replay)
			return
		}
	}
	v.diags.Warnf(v.c.File.Name, pos,
		"commute-unverified: cannot decide whether %s of commset %s commute: %s",
		v.pairDesc(fn1, fn2), setDisplay(s), why)
}

// addDistinctDerived records a ≠ b and the base disequalities it implies:
// distinct images under one injective affine map mean distinct preimages.
func addDistinctDerived(f *symexec.Facts, a, b *symexec.Term) {
	if a == nil || b == nil || a.Key() == b.Key() {
		return
	}
	f.AddDistinct(a, b)
	ba, la, oa := linParts(a)
	bb, lb, ob := linParts(b)
	if la == lb && oa == ob && la != 0 && (ba != a || bb != b) {
		addDistinctDerived(f, ba, bb)
	}
}

// execOrder runs first;second over a fresh symbolic pre-state. Structural
// limits (irreducible control flow, recursion depth) surface as bailMsg.
func (v *vet) execOrder(env *commEnv, facts *symexec.Facts, first, second *boundMember) (st *commState, rFirst, rSecond []*symexec.Term, bailMsg string) {
	defer func() {
		if r := recover(); r != nil {
			if cb, ok := r.(commBail); ok {
				bailMsg = cb.reason
				return
			}
			panic(r)
		}
	}()
	x := &commExec{env: env, facts: facts, state: newCommState()}
	x.instNo, x.ident, x.occ = first.instNo, first.ident, map[string]int{}
	rFirst = x.execFunc(first.f, first.args)
	x.instNo, x.ident, x.occ = second.instNo, second.ident, map[string]int{}
	rSecond = x.execFunc(second.f, second.args)
	st = x.state
	return
}

// divergence is one observable on which the two orders differ.
type divergence struct {
	at    string
	a, b  string
	terms []*symexec.Term
}

func (v *vet) compareOrders(cmp *commExec, b1, b2 *boundMember, stAB, stBA *commState, rAB1, rAB2, rBA1, rBA2 []*symexec.Term) *divergence {
	checkResults := func(fn string, ra, rb []*symexec.Term) *divergence {
		if len(ra) != len(rb) {
			return &divergence{at: "the results of " + v.displayName(fn),
				a: fmt.Sprintf("%d values", len(ra)), b: fmt.Sprintf("%d values", len(rb))}
		}
		for i := range ra {
			if symexec.TermsEqual(ra[i], rb[i], cmp.facts) != symexec.True {
				return &divergence{at: fmt.Sprintf("result %d of %s", i, v.displayName(fn)),
					a: ra[i].String(), b: rb[i].String(), terms: []*symexec.Term{ra[i], rb[i]}}
			}
		}
		return nil
	}
	if d := checkResults(b1.fn, rAB1, rBA1); d != nil {
		return d
	}
	if d := checkResults(b2.fn, rAB2, rBA2); d != nil {
		return d
	}
	for _, loc := range sortedLocs(stAB, stBA) {
		na := cmp.normalizeLog(stAB.logs[loc])
		nb := cmp.normalizeLog(stBA.logs[loc])
		if len(na) != len(nb) {
			return &divergence{at: string(loc),
				a: fmt.Sprintf("%d writes", len(na)), b: fmt.Sprintf("%d writes", len(nb))}
		}
		for i := range na {
			if !cmp.entriesEquivalent(&na[i], &nb[i]) {
				return &divergence{at: string(loc), a: entryDesc(&na[i]), b: entryDesc(&nb[i]),
					terms: entryTerms(&na[i], &nb[i])}
			}
		}
	}
	return nil
}

func entryTerms(es ...*writeEntry) []*symexec.Term {
	var out []*symexec.Term
	for _, e := range es {
		for _, t := range []*symexec.Term{e.handle, e.key, e.val, e.guard} {
			if t != nil {
				out = append(out, t)
			}
		}
	}
	return out
}

func entryDesc(e *writeEntry) string {
	cell := string(e.loc)
	if e.handle != nil {
		cell += "[" + e.handle.String() + "]"
	}
	if e.key != nil {
		cell += "[" + e.key.String() + "]"
	}
	if e.field != "" {
		cell += "." + e.field
	}
	s := kindName(e.kind) + " " + cell + " = " + e.val.String()
	if e.guard != nil {
		s += " (when " + e.guard.String() + ")"
	}
	return s
}

// counterexample renders a concrete valuation of the symbolic inputs the
// divergence depends on. Indices respect every recorded disequality
// (distinct symbols get distinct small integers).
func counterexample(terms []*symexec.Term, b1, b2 *boundMember) string {
	all := append([]*symexec.Term{}, terms...)
	all = append(all, b1.pred...)
	all = append(all, b2.pred...)
	seen := map[string]bool{}
	var names []string
	for _, t := range all {
		if t == nil {
			continue
		}
		for _, s := range t.Syms() {
			if !seen[s.Key()] {
				seen[s.Key()] = true
				names = append(names, s.String())
			}
		}
	}
	if len(names) == 0 {
		return "any common pre-state"
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, i)
	}
	return strings.Join(parts, ", ")
}

// --- member binding ---

// bindMember builds the symbolic calling context of one member instance.
// Function members get opaque per-instance parameters. Region members are
// bound at their (unique) call site: induction variables become the
// instance's iteration symbol, loop-invariant live-ins become shared
// terms, allocation-rooted live-ins resolve to allocation-class tokens,
// and anything loop-varying becomes an opaque per-instance symbol.
func (v *vet) bindMember(env *commEnv, s *types.Set, fn string, inst int) (*boundMember, string) {
	f := v.c.Low.Prog.Funcs[fn]
	if f == nil {
		return nil, fmt.Sprintf("member %s has no lowered function", fn)
	}
	if frefs, ok := v.c.Low.FuncMembs[fn]; ok {
		bm := &boundMember{fn: fn, f: f, instNo: inst, pos: f.Pos,
			ident: symexec.Sym("exec:"+fn, inst)}
		bm.args = make([]*symexec.Term, f.Params)
		for i := 0; i < f.Params; i++ {
			name := strconv.Itoa(i)
			if i < len(f.Locals) && f.Locals[i].Name != "" {
				name = f.Locals[i].Name
			}
			bm.args[i] = symexec.Sym("p:"+fn+":"+name, inst)
		}
		for _, ref := range frefs {
			if ref.Set == s {
				for _, idx := range ref.ParamIdx {
					if idx >= 0 && idx < len(bm.args) {
						bm.pred = append(bm.pred, bm.args[idx])
					}
				}
				break
			}
		}
		return bm, ""
	}
	// Region member: locate the enabled call site.
	caller, blk, call := v.regionCallSite(fn)
	if call == nil {
		return &boundMember{fn: fn, f: f, instNo: inst, pos: f.Pos},
			fmt.Sprintf("no call site found for region %s", v.displayName(fn))
	}
	pos := f.Pos
	if p, ok := v.c.Low.RegionFuncs[fn]; ok {
		pos = p
	}
	fc := env.cfgOf(caller)
	var L *cfg.Loop
	for _, l := range fc.Loops {
		if l.Contains(blk.ID) && (L == nil || len(l.Blocks) < len(L.Blocks)) {
			L = l
		}
	}
	var ivSlots []bool
	var ivTerm *symexec.Term
	if L != nil {
		ivTerm = symexec.Sym("it:"+caller.Name+":b"+strconv.Itoa(L.Header), inst)
		for _, lc := range v.loops {
			if lc.fn == caller.Name && lc.la.Loop.Header == L.Header {
				ivSlots = lc.la.PDG.IVSlots
				break
			}
		}
	}
	bm := &boundMember{fn: fn, f: f, instNo: inst, pos: pos}
	if ivTerm != nil {
		bm.ident = ivTerm
	} else {
		bm.ident = symexec.Sym("exec:"+fn, inst)
	}
	bind := func(r int) *symexec.Term {
		return v.bindArgReg(env, caller, blk, call, r, inst, L, ivTerm, ivSlots, fn)
	}
	bm.args = make([]*symexec.Term, len(call.Args))
	for i, r := range call.Args {
		bm.args[i] = bind(r)
	}
	for _, ref := range v.c.Low.CallMembs[call] {
		if ref.Set == s {
			for _, r := range ref.ArgRegs {
				bm.pred = append(bm.pred, bind(r))
			}
			break
		}
	}
	return bm, ""
}

// regionCallSite finds the first call of the region function, in program
// order (inlining can clone the call; any one binding is representative).
func (v *vet) regionCallSite(fn string) (*ir.Func, *ir.Block, *ir.Instr) {
	prog := v.c.Low.Prog
	for _, name := range prog.Order {
		f := prog.Funcs[name]
		if f == nil || f.Name == fn {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Name == fn {
					return f, b, in
				}
			}
		}
	}
	return nil, nil, nil
}

// bindArgReg maps one live-in register of a region call to a symbolic term.
func (v *vet) bindArgReg(env *commEnv, caller *ir.Func, blk *ir.Block, call *ir.Instr, r, inst int, L *cfg.Loop, ivTerm *symexec.Term, ivSlots []bool, fn string) *symexec.Term {
	root := rootLoad(blk, call, r, 0)
	if root == nil {
		def := defBefore(blk, call, r)
		if def != nil {
			switch def.Op {
			case ir.OpConst:
				return constTerm(def.Val)
			case ir.OpLoadGlobal:
				if _, ok := v.keyflow().globalAlloc[def.Name]; ok {
					return symexec.App("new:g:" + def.Name)
				}
				return symexec.Sym("g:"+def.Name, inst)
			}
		}
		return symexec.Sym("opq:"+fn+":r"+strconv.Itoa(r), inst)
	}
	slot := root.Slot
	if L != nil && slot < len(ivSlots) && ivSlots[slot] {
		return ivTerm
	}
	if t := v.freshArgTerm(caller, slot, L, ivTerm); t != nil {
		return t
	}
	if L != nil && slotStoredInLoop(caller, L, slot) {
		return symexec.Sym("var:"+caller.Name+":"+slotName(caller, slot), inst)
	}
	return symexec.Sym("inv:"+caller.Name+":"+slotName(caller, slot), 0)
}

func slotName(f *ir.Func, slot int) string {
	if slot < len(f.Locals) && f.Locals[slot].Name != "" {
		return f.Locals[slot].Name
	}
	return "s" + strconv.Itoa(slot)
}

func slotStoredInLoop(f *ir.Func, l *cfg.Loop, slot int) bool {
	for _, bid := range l.Blocks {
		for _, in := range f.Blocks[bid].Instrs {
			if in.Op == ir.OpStoreLocal && in.Slot == slot {
				return true
			}
			if in.Op == ir.OpCall {
				for _, s := range in.OutSlots {
					if s == slot {
						return true
					}
				}
			}
		}
	}
	return false
}

// freshArgTerm resolves a slot to a fresh-allocation token when its unique
// non-constant writer stores an allocator result (directly, or through a
// region out-slot or helper return). Constant initializer stores
// (`int fp = 0;` before the allocating block) are treated as dead inits:
// member arguments bind to the post-allocation value.
func (v *vet) freshArgTerm(caller *ir.Func, slot int, L *cfg.Loop, ivTerm *symexec.Term) *symexec.Term {
	w, wb, outIdx := uniqueNonConstWriter(caller, slot)
	if w == nil {
		return nil
	}
	var site string
	if outIdx < 0 {
		def := defBefore(wb, w, w.A)
		if def == nil || def.Op != ir.OpCall {
			return nil
		}
		site = v.freshCallSite(caller, wb, def, 0)
	} else {
		site = v.freshRetSite(w.Name, outIdx, 0)
	}
	if site == "" {
		return nil
	}
	if L != nil && L.Contains(wb.ID) && ivTerm != nil {
		// Re-allocated every iteration: the token is per-instance, shaped
		// exactly like the one the executor mints when it runs the
		// allocating member itself, so producer and consumer agree.
		return symexec.App(site, ivTerm, symexec.IntTerm(0))
	}
	return symexec.App(site)
}

// uniqueNonConstWriter returns the single non-constant writer of a slot:
// an OpStoreLocal (outIdx -1) or a region call writing it as out-slot
// number outIdx. Constant stores are ignored as dominated initializers.
func uniqueNonConstWriter(f *ir.Func, slot int) (*ir.Instr, *ir.Block, int) {
	var w *ir.Instr
	var wb *ir.Block
	outIdx := -1
	count := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStoreLocal:
				if in.Slot != slot {
					continue
				}
				if def := defBefore(b, in, in.A); def != nil && def.Op == ir.OpConst {
					continue
				}
				count++
				w, wb, outIdx = in, b, -1
			case ir.OpCall:
				for k, s := range in.OutSlots {
					if s == slot {
						count++
						w, wb, outIdx = in, b, k
					}
				}
			}
		}
	}
	if count != 1 {
		return nil, nil, -1
	}
	return w, wb, outIdx
}

// freshCallSite names the allocation class of a call result: builtins with
// a ResFresh model allocate here; helper calls resolve through their
// return value.
func (v *vet) freshCallSite(f *ir.Func, b *ir.Block, call *ir.Instr, depth int) string {
	if depth > 4 {
		return ""
	}
	if callee := v.c.Low.Prog.Funcs[call.Name]; callee != nil {
		return v.freshRetSite(call.Name, 0, depth+1)
	}
	if m, ok := builtins.ModelOf(call.Name); ok && m.Result == builtins.ResFresh {
		// Must match the executor's token shape (execBuiltin).
		return "new:" + call.Name + "@" + f.Name + ":" + strconv.Itoa(call.ID)
	}
	return ""
}

// freshRetSite resolves return value retIdx of a user function (a region's
// out-slot or a helper's result) to an allocation class, if its unique
// source is a fresh allocation.
func (v *vet) freshRetSite(fnName string, retIdx, depth int) string {
	if depth > 4 {
		return ""
	}
	f := v.c.Low.Prog.Funcs[fnName]
	if f == nil {
		return ""
	}
	var ret *ir.Instr
	var rb *ir.Block
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpRet && len(in.Args) > 0 {
				if ret != nil {
					return "" // several returns: no unique source
				}
				ret, rb = in, b
			}
		}
	}
	if ret == nil || retIdx >= len(ret.Args) {
		return ""
	}
	r := ret.Args[retIdx]
	if root := rootLoad(rb, ret, r, 0); root != nil {
		w, wb, outIdx := uniqueNonConstWriter(f, root.Slot)
		if w == nil {
			return ""
		}
		if outIdx >= 0 {
			return v.freshRetSite(w.Name, outIdx, depth+1)
		}
		def := defBefore(wb, w, w.A)
		if def == nil || def.Op != ir.OpCall {
			return ""
		}
		return v.freshCallSite(f, wb, def, depth+1)
	}
	if def := defBefore(rb, ret, r); def != nil && def.Op == ir.OpCall {
		return v.freshCallSite(f, rb, def, depth+1)
	}
	return ""
}
