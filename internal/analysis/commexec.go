package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/cfg"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/symexec"
	"repro/internal/vm/value"
)

// This file is the symbolic executor behind the commutativity verifier
// (commute.go): it runs a pair of commset members in both orders over a
// common symbolic pre-state and produces, per abstract location, a
// chronological log of writes whose difference the verifier then decides.
//
// The abstraction is a differencing one: rather than modeling full stores,
// each location carries its write log over first-order terms
// (symexec.Term). Reads resolve against the log (strong update when a
// covering assign is found, an uninterpreted "read" application folding in
// every possibly-overlapping write otherwise), so any interference between
// the two members shows up syntactically in the terms, and the two orders
// compare equal exactly when every interleaving-sensitive effect has been
// proved disjoint, idempotent, or order-insensitive by quotient (sums,
// set-semantics streams, RNG draws).

// wKind classifies one write-log entry.
type wKind int

const (
	// wAssign is a strong update of a cell: last writer wins.
	wAssign wKind = iota
	// wBump contributes to an abstract commutative accumulator.
	wBump
	// wAppend emits to an order-insensitive externalization stream.
	wAppend
	// wScramble perturbs an entropy pool (quotiented to a multiset).
	wScramble
	// wSummary is a weak update of unknown extent (loop summaries,
	// unmodeled calls): it may or may not rewrite any cell it overlaps.
	wSummary
)

func kindName(k wKind) string {
	switch k {
	case wAssign:
		return "assign"
	case wBump:
		return "bump"
	case wAppend:
		return "append"
	case wScramble:
		return "scramble"
	case wSummary:
		return "summary"
	}
	return "?"
}

// writeEntry is one write in a location's chronological log. A nil handle
// means the whole location; a nil key means the whole handle.
type writeEntry struct {
	kind   wKind
	loc    effects.Loc
	handle *symexec.Term
	key    *symexec.Term
	field  string
	val    *symexec.Term
	guard  *symexec.Term // path condition; nil = unconditional
	inst   int           // which member instance wrote (1 or 2)
}

// commState is the symbolic post-state of an execution order: per-location
// write logs over a common, implicit symbolic pre-state.
type commState struct {
	logs map[effects.Loc][]writeEntry
}

func newCommState() *commState { return &commState{logs: map[effects.Loc][]writeEntry{}} }

// sortedLocs returns the union of written locations of the given states.
func sortedLocs(states ...*commState) []effects.Loc {
	seen := map[effects.Loc]bool{}
	var out []effects.Loc
	for _, s := range states {
		for loc := range s.logs {
			if !seen[loc] {
				seen[loc] = true
				out = append(out, loc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// commBail aborts an execution that left the fragment the verifier can
// decide (irreducible control flow, call-depth limits). It is reported as
// a warning, never as a verified/refuted verdict.
type commBail struct{ reason string }

// commEnv is the per-program cache shared by all pair verifications.
type commEnv struct {
	v *vet
	// cfgs holds the control-flow context of each function executed so
	// far, starting with those of the analyzed loops' functions.
	cfgs map[string]*cfg.Flow
}

func newCommEnv(v *vet) *commEnv {
	e := &commEnv{v: v, cfgs: map[string]*cfg.Flow{}}
	for _, lc := range v.loops {
		e.cfgs[lc.la.Fn.Name] = lc.la.Flow
	}
	return e
}

func (e *commEnv) cfgOf(f *ir.Func) *cfg.Flow {
	if fc, ok := e.cfgs[f.Name]; ok {
		return fc
	}
	fc := cfg.NewFlow(f)
	e.cfgs[f.Name] = fc
	return fc
}

// loopInputs collects the terms a loop body reads: they parameterize the
// loop's effect summary, so interference with a peer's writes changes the
// summary and surfaces in the state difference.
type loopInputs struct {
	seen  map[string]bool
	terms []*symexec.Term
}

// commExec executes one order (first;second) of a member pair.
type commExec struct {
	env   *commEnv
	facts *symexec.Facts
	state *commState

	// current member execution context
	instNo int
	ident  *symexec.Term
	occ    map[string]int

	guard     *symexec.Term
	collector []*loopInputs
	depth     int
	steps     int
}

const (
	maxCallDepth = 14
	maxSteps     = 200000
)

func (x *commExec) bail(format string, args ...any) {
	panic(commBail{reason: fmt.Sprintf(format, args...)})
}

func (x *commExec) prog() *ir.Program { return x.env.v.c.Low.Prog }

// cframe is one function activation: local slots carry cross-block
// dataflow, registers are block-local by IR construction.
type cframe struct {
	f     *ir.Func
	slots []*symexec.Term
	regs  []*symexec.Term
}

func (x *commExec) appendEntry(e writeEntry) {
	e.inst = x.instNo
	x.state.logs[e.loc] = append(x.state.logs[e.loc], e)
}

func (x *commExec) noteInput(t *symexec.Term) {
	if n := len(x.collector); n > 0 && t != nil {
		col := x.collector[n-1]
		if !col.seen[t.Key()] {
			col.seen[t.Key()] = true
			col.terms = append(col.terms, t)
		}
	}
}

func (x *commExec) popCollector() *loopInputs {
	n := len(x.collector)
	col := x.collector[n-1]
	x.collector = x.collector[:n-1]
	// Inner-loop reads are outer-loop reads too.
	for _, t := range col.terms {
		x.noteInput(t)
	}
	return col
}

// --- term construction helpers ---

func constTerm(v value.Value) *symexec.Term {
	if v.T == ast.TInt {
		return symexec.IntTerm(v.I)
	}
	return symexec.ValTerm(symexec.Const(v))
}

func boolConst(b bool) *symexec.Term {
	return symexec.ValTerm(symexec.Const(value.Bool(b)))
}

func constOf(t *symexec.Term) (int64, bool) {
	if t != nil && t.Kind == symexec.TVal && t.V.Kind == symexec.KAffine && t.V.A == 0 {
		return t.V.B, true
	}
	return 0, false
}

// linParts views a term as A*base + B.
func linParts(t *symexec.Term) (base *symexec.Term, a, b int64) {
	if t.Kind == symexec.TLin {
		return t.Args[0], t.A, t.B
	}
	return t, 1, 0
}

func negTerm(c *symexec.Term) *symexec.Term {
	if c == nil {
		return nil
	}
	if c.Kind == symexec.TApp && c.Op == "not" {
		return c.Args[0]
	}
	if c.Kind == symexec.TVal && c.V.Kind == symexec.KConst && c.V.C.T == ast.TBool {
		return boolConst(!c.V.C.B)
	}
	return symexec.App("not", c)
}

func conj(g, c *symexec.Term) *symexec.Term {
	if g == nil {
		return c
	}
	if c == nil {
		return g
	}
	return symexec.App("and", g, c)
}

// conjuncts flattens nested "and" applications.
func conjuncts(g *symexec.Term, out []*symexec.Term) []*symexec.Term {
	if g == nil {
		return out
	}
	if g.Kind == symexec.TApp && g.Op == "and" {
		for _, a := range g.Args {
			out = conjuncts(a, out)
		}
		return out
	}
	return append(out, g)
}

// guardsExclusive reports whether two path conditions are mutually
// exclusive: one carries a conjunct whose negation the other carries.
func guardsExclusive(a, b *symexec.Term) bool {
	if a == nil || b == nil {
		return false
	}
	ca, cb := conjuncts(a, nil), conjuncts(b, nil)
	neg := map[string]bool{}
	for _, c := range ca {
		neg[negTerm(c).Key()] = true
	}
	for _, c := range cb {
		if neg[c.Key()] {
			return true
		}
	}
	return false
}

func (x *commExec) boolTri(t *symexec.Term) symexec.Tri {
	if t == nil {
		return symexec.Unknown
	}
	if t.Kind == symexec.TVal && t.V.Kind == symexec.KConst && t.V.C.T == ast.TBool {
		if t.V.C.B {
			return symexec.True
		}
		return symexec.False
	}
	if t.Kind == symexec.TApp && t.Op == "not" {
		switch x.boolTri(t.Args[0]) {
		case symexec.True:
			return symexec.False
		case symexec.False:
			return symexec.True
		}
	}
	return symexec.Unknown
}

func (x *commExec) termBin(op string, a, b *symexec.Term) *symexec.Term {
	ca, aok := constOf(a)
	cb, bok := constOf(b)
	switch op {
	case "+", "-", "*", "/", "%":
		if aok && bok {
			switch op {
			case "+":
				return symexec.IntTerm(ca + cb)
			case "-":
				return symexec.IntTerm(ca - cb)
			case "*":
				return symexec.IntTerm(ca * cb)
			case "/":
				if cb != 0 {
					return symexec.IntTerm(ca / cb)
				}
			case "%":
				if cb != 0 {
					return symexec.IntTerm(ca % cb)
				}
			}
			return symexec.App("b:"+op, a, b)
		}
		if a.Kind == symexec.TVal && b.Kind == symexec.TVal {
			if r, ok := symexec.ArithVals(op, a.V, b.V); ok {
				return symexec.ValTerm(r)
			}
		}
		switch op {
		case "+":
			if bok {
				return symexec.Lin(a, 1, cb)
			}
			if aok {
				return symexec.Lin(b, 1, ca)
			}
			ba, la, oa := linParts(a)
			bb, lb, ob := linParts(b)
			if symexec.TermsEqual(ba, bb, x.facts) == symexec.True {
				return symexec.Lin(ba, la+lb, oa+ob)
			}
		case "-":
			if bok {
				return symexec.Lin(a, 1, -cb)
			}
			ba, la, oa := linParts(a)
			bb, lb, ob := linParts(b)
			if symexec.TermsEqual(ba, bb, x.facts) == symexec.True {
				return symexec.Lin(ba, la-lb, oa-ob)
			}
		case "*":
			if bok {
				return symexec.Lin(a, cb, 0)
			}
			if aok {
				return symexec.Lin(b, ca, 0)
			}
		}
		return symexec.App("b:"+op, a, b)
	case "==", "!=":
		switch symexec.TermsEqual(a, b, x.facts) {
		case symexec.True:
			return boolConst(op == "==")
		case symexec.False:
			return boolConst(op == "!=")
		}
		return symexec.App("cmp:"+op, a, b)
	case "<", "<=", ">", ">=":
		if a.Kind == symexec.TVal && b.Kind == symexec.TVal {
			if tri := symexec.CompareVals(op, a.V, b.V, x.facts.Assume); tri != symexec.Unknown {
				return boolConst(tri == symexec.True)
			}
		}
		ba, la, oa := linParts(a)
		bb, lb, ob := linParts(b)
		if la == lb && symexec.TermsEqual(ba, bb, x.facts) == symexec.True {
			// a - b == oa - ob regardless of the shared base.
			var r bool
			switch op {
			case "<":
				r = oa < ob
			case "<=":
				r = oa <= ob
			case ">":
				r = oa > ob
			case ">=":
				r = oa >= ob
			}
			return boolConst(r)
		}
		return symexec.App("cmp:"+op, a, b)
	case "&&", "||":
		ta, tb := x.boolTri(a), x.boolTri(b)
		if ta != symexec.Unknown && tb != symexec.Unknown {
			if op == "&&" {
				return boolConst(ta == symexec.True && tb == symexec.True)
			}
			return boolConst(ta == symexec.True || tb == symexec.True)
		}
		return symexec.App("b:"+op, a, b)
	}
	return symexec.App("b:"+op, a, b)
}

// --- cell addressing ---

// cellRel is the relation of a log entry to a read cell.
type cellRel int

const (
	relDisjoint cellRel = iota
	relMay
	relCovers
)

// entryCellRel classifies whether entry e provably covers, provably
// misses, or may touch the cell (handle, key, field).
func (x *commExec) entryCellRel(e *writeEntry, handle, key *symexec.Term, field string) cellRel {
	if e.field != "" && field != "" && e.field != field {
		return relDisjoint
	}
	hEq := symexec.Unknown
	switch {
	case e.handle == nil || handle == nil:
		// A whole-location access overlaps every handle.
	default:
		hEq = symexec.TermsEqual(e.handle, handle, x.facts)
		if hEq == symexec.False {
			return relDisjoint
		}
	}
	if e.key != nil && key != nil {
		switch symexec.TermsEqual(e.key, key, x.facts) {
		case symexec.False:
			// Distinct keys name distinct cells whether or not the handles
			// coincide.
			return relDisjoint
		case symexec.Unknown:
			return relMay
		}
	}
	// Keys are equal (or at least one side addresses a whole handle).
	// Coverage: the entry writes at least the whole extent of the cell.
	handleCovered := e.handle == nil || (handle != nil && hEq == symexec.True)
	keyCovered := e.key == nil || key != nil
	fieldCovered := e.field == "" || field != ""
	if handleCovered && keyCovered && fieldCovered {
		return relCovers
	}
	return relMay
}

// preTerm names the pre-state contents of a cell. Allocation-rooted
// globals resolve to their allocation class so handle disjointness carries
// through global loads.
func (x *commExec) preTerm(loc effects.Loc, handle, key *symexec.Term, field string) *symexec.Term {
	if g, ok := strings.CutPrefix(string(loc), "g:"); ok {
		if _, isAlloc := x.env.v.keyflow().globalAlloc[g]; isAlloc {
			return symexec.App("new:g:" + g)
		}
	}
	op := "pre:" + string(loc)
	if field != "" {
		op += "/" + field
	}
	var args []*symexec.Term
	if handle != nil {
		args = append(args, handle)
	}
	if key != nil {
		args = append(args, key)
	}
	return symexec.App(op, args...)
}

func entryTerm(e *writeEntry) *symexec.Term {
	hole := symexec.App("_")
	pick := func(t *symexec.Term) *symexec.Term {
		if t == nil {
			return hole
		}
		return t
	}
	op := "e:" + kindName(e.kind) + ":" + string(e.loc)
	if e.field != "" {
		op += "/" + e.field
	}
	return symexec.App(op, pick(e.handle), pick(e.key), pick(e.val), pick(e.guard))
}

// readCell resolves the current contents of a cell against the write log:
// the nearest unconditional covering assign gives a strong value; any
// possibly-overlapping later writes fold into an uninterpreted read
// application, making interference visible in the term.
func (x *commExec) readCell(loc effects.Loc, handle, key *symexec.Term, field string) *symexec.Term {
	log := x.state.logs[loc]
	var influences []*writeEntry
	var base *symexec.Term
	exact := false
	for i := len(log) - 1; i >= 0; i-- {
		e := &log[i]
		rel := x.entryCellRel(e, handle, key, field)
		if rel == relDisjoint {
			continue
		}
		if rel == relCovers && e.kind == wAssign && e.guard == nil {
			base = e.val
			sameGrain := (e.handle == nil) == (handle == nil) &&
				(e.key == nil) == (key == nil) && e.field == field
			exact = sameGrain
			break
		}
		influences = append(influences, e)
	}
	if base == nil {
		base = x.preTerm(loc, handle, key, field)
		exact = true
	}
	if !exact {
		// A coarser assign covers the cell: the cell's value is a
		// deterministic projection of the written aggregate.
		var args []*symexec.Term
		args = append(args, base)
		if handle != nil {
			args = append(args, handle)
		}
		if key != nil {
			args = append(args, key)
		}
		if field != "" {
			args = append(args, symexec.StrTerm(field))
		}
		base = symexec.App("elem", args...)
	}
	var res *symexec.Term
	if len(influences) == 0 {
		res = base
	} else {
		args := []*symexec.Term{base}
		// influences were gathered newest-first; restore log order.
		for i := len(influences) - 1; i >= 0; i-- {
			args = append(args, entryTerm(influences[i]))
		}
		if handle != nil {
			args = append(args, handle)
		}
		if key != nil {
			args = append(args, key)
		}
		res = symexec.App("read:"+string(loc)+"/"+field, args...)
	}
	x.noteInput(res)
	return res
}

// --- execution ---

// execFunc runs a function on argument terms and returns its return-value
// terms (regions return several, one per live-out slot).
func (x *commExec) execFunc(f *ir.Func, args []*symexec.Term) []*symexec.Term {
	if x.depth > maxCallDepth {
		x.bail("call depth exceeds %d in %s (unbounded recursion?)", maxCallDepth, f.Name)
	}
	fr := &cframe{f: f, slots: make([]*symexec.Term, len(f.Locals)), regs: make([]*symexec.Term, f.NumRegs)}
	for i := range fr.slots {
		if i < f.Params && i < len(args) {
			fr.slots[i] = args[i]
		} else {
			fr.slots[i] = symexec.IntTerm(0)
		}
	}
	fc := x.env.cfgOf(f)
	rets, _ := x.runBlocks(fr, fc, 0, -1, nil)
	return rets
}

// runBlocks interprets from block b until `stop` (exclusive) or a return.
// With restrict non-nil, leaving the set is an error (loop-body passes).
func (x *commExec) runBlocks(fr *cframe, fc *cfg.Flow, b, stop int, restrict []bool) ([]*symexec.Term, bool) {
	for {
		if b == stop {
			return nil, false
		}
		if restrict != nil && !restrict[b] {
			x.bail("loop in %s leaves its body early (break?)", fr.f.Name)
		}
		if l := fc.LoopAt(b); l != nil {
			b = x.summarizeLoop(fr, fc, l, restrict)
			continue
		}
		blk := fr.f.Blocks[b]
		for _, in := range blk.Instrs {
			if in.IsTerminator() {
				break
			}
			x.execInstr(fr, in)
		}
		t := blk.Terminator()
		if t == nil {
			x.bail("block b%d of %s has no terminator", b, fr.f.Name)
		}
		switch t.Op {
		case ir.OpBr:
			b = t.Targets[0]
		case ir.OpRet:
			rets := make([]*symexec.Term, len(t.Args))
			for i, r := range t.Args {
				rets[i] = fr.regs[r]
			}
			return rets, true
		case ir.OpCondBr:
			c := fr.regs[t.A]
			x.noteInput(c)
			switch x.boolTri(c) {
			case symexec.True:
				b = t.Targets[0]
			case symexec.False:
				b = t.Targets[1]
			default:
				ip := fc.Ipdom[b]
				if ip < 0 {
					x.bail("no postdominator for branch in %s", fr.f.Name)
				}
				if ip >= len(fr.f.Blocks) {
					return x.forkToReturn(fr, fc, t, c, restrict)
				}
				x.fork(fr, fc, t, c, ip, restrict)
				b = ip
			}
		}
	}
}

func cloneSlots(s []*symexec.Term) []*symexec.Term {
	out := make([]*symexec.Term, len(s))
	copy(out, s)
	return out
}

func cloneOcc(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mergeOcc(dst, a, b map[string]int) {
	for k, v := range a {
		if v > dst[k] {
			dst[k] = v
		}
	}
	for k, v := range b {
		if v > dst[k] {
			dst[k] = v
		}
	}
}

// fork runs both arms of an undecidable branch to their immediate
// postdominator under complementary path conditions, then merges the
// frames with if-then-else terms. Log entries keep their guards: the
// normalization lets mutually exclusive entries commute.
func (x *commExec) fork(fr *cframe, fc *cfg.Flow, t *ir.Instr, cond *symexec.Term, stop int, restrict []bool) {
	slots0 := cloneSlots(fr.slots)
	occ0 := cloneOcc(x.occ)
	guard0 := x.guard

	x.guard = conj(guard0, cond)
	if _, ret := x.runBlocks(fr, fc, t.Targets[0], stop, restrict); ret {
		x.bail("branch arm returns before its join in %s", fr.f.Name)
	}
	slots1 := fr.slots
	occ1 := x.occ

	x.guard = conj(guard0, negTerm(cond))
	fr.slots = cloneSlots(slots0)
	x.occ = cloneOcc(occ0)
	if _, ret := x.runBlocks(fr, fc, t.Targets[1], stop, restrict); ret {
		x.bail("branch arm returns before its join in %s", fr.f.Name)
	}

	for i := range fr.slots {
		a, bT := slots1[i], fr.slots[i]
		if symexec.TermsEqual(a, bT, x.facts) != symexec.True {
			fr.slots[i] = symexec.App("ite", cond, a, bT)
		} else {
			fr.slots[i] = a
		}
	}
	merged := cloneOcc(occ0)
	mergeOcc(merged, occ1, x.occ)
	x.occ = merged
	x.guard = guard0
}

// forkToReturn handles an undecidable branch whose join is the function
// exit: both arms run to their returns and the results merge.
func (x *commExec) forkToReturn(fr *cframe, fc *cfg.Flow, t *ir.Instr, cond *symexec.Term, restrict []bool) ([]*symexec.Term, bool) {
	if restrict != nil {
		x.bail("conditional return inside a loop body in %s", fr.f.Name)
	}
	slots0 := cloneSlots(fr.slots)
	occ0 := cloneOcc(x.occ)
	guard0 := x.guard

	x.guard = conj(guard0, cond)
	r1, ret1 := x.runBlocks(fr, fc, t.Targets[0], -1, nil)
	occ1 := x.occ

	x.guard = conj(guard0, negTerm(cond))
	fr.slots = cloneSlots(slots0)
	x.occ = cloneOcc(occ0)
	r2, ret2 := x.runBlocks(fr, fc, t.Targets[1], -1, nil)

	x.guard = guard0
	merged := cloneOcc(occ0)
	mergeOcc(merged, occ1, x.occ)
	x.occ = merged
	if !ret1 || !ret2 || len(r1) != len(r2) {
		x.bail("divergent return structure in %s", fr.f.Name)
	}
	out := make([]*symexec.Term, len(r1))
	for i := range r1 {
		if symexec.TermsEqual(r1[i], r2[i], x.facts) == symexec.True {
			out[i] = r1[i]
		} else {
			out[i] = symexec.App("ite", cond, r1[i], r2[i])
		}
	}
	return out, true
}

func lvTainted(t *symexec.Term) bool { return t != nil && t.ContainsOpPrefix("lv:") }

// summarizeLoop widens a loop in one pass: written slots are havocked to
// loop-varying markers, the body runs once to discover what it reads and
// writes, and the whole loop collapses to per-(location, handle) summary
// entries whose values are uninterpreted functions of everything the body
// read. Commutative write kinds keep their kind (a loop of bumps is still
// a bump); assigns weaken to wSummary. Returns the loop's unique exit.
func (x *commExec) summarizeLoop(fr *cframe, fc *cfg.Flow, l *cfg.Loop, restrict []bool) int {
	exit := -1
	for _, bid := range l.Blocks {
		for _, s := range fr.f.Blocks[bid].Succs() {
			if !l.Contains(s) {
				if exit != -1 && exit != s {
					x.bail("loop at b%d of %s has multiple exits", l.Header, fr.f.Name)
				}
				exit = s
			}
		}
	}
	if exit == -1 {
		x.bail("loop at b%d of %s never exits", l.Header, fr.f.Name)
	}
	if restrict != nil && !restrict[exit] && exit != l.Header {
		// The inner loop's exit must stay inside the outer body.
		x.bail("nested loop at b%d of %s exits the enclosing body", l.Header, fr.f.Name)
	}
	id := fr.f.Name + ":b" + strconv.Itoa(l.Header)

	written := map[int]bool{}
	for _, bid := range l.Blocks {
		for _, in := range fr.f.Blocks[bid].Instrs {
			switch in.Op {
			case ir.OpStoreLocal:
				written[in.Slot] = true
			case ir.OpCall:
				for _, s := range in.OutSlots {
					written[s] = true
				}
			}
		}
	}

	lens := map[effects.Loc]int{}
	for loc, lg := range x.state.logs {
		lens[loc] = len(lg)
	}
	col := &loopInputs{seen: map[string]bool{}}
	x.collector = append(x.collector, col)

	// Phase 0: run the header on the entry state. If the loop provably
	// never runs, its effects are just the header's own.
	hdr := fr.f.Blocks[l.Header]
	for _, in := range hdr.Instrs {
		if in.IsTerminator() {
			break
		}
		x.execInstr(fr, in)
	}
	ht := hdr.Terminator()
	inLoop := -1
	if ht == nil {
		x.bail("loop header b%d of %s has no terminator", l.Header, fr.f.Name)
	}
	switch ht.Op {
	case ir.OpCondBr:
		cond := fr.regs[ht.A]
		x.noteInput(cond)
		entered := x.boolTri(cond)
		if l.Contains(ht.Targets[0]) {
			inLoop = ht.Targets[0]
		} else {
			inLoop = ht.Targets[1]
			entered = symexec.Tri(0) // recompute below via negation
			switch x.boolTri(cond) {
			case symexec.True:
				entered = symexec.False
			case symexec.False:
				entered = symexec.True
			default:
				entered = symexec.Unknown
			}
		}
		if inLoop == exit {
			x.bail("loop at b%d of %s has no body", l.Header, fr.f.Name)
		}
		if entered == symexec.False {
			x.popCollector()
			return exit
		}
	case ir.OpBr:
		inLoop = ht.Targets[0]
	default:
		x.bail("loop header b%d of %s ends in a return", l.Header, fr.f.Name)
	}

	// Phase 1: havoc the written slots and run one body pass.
	for s := range written {
		fr.slots[s] = symexec.App("lv:" + id + ":" + strconv.Itoa(s))
	}
	// Re-run the header on the havocked state so its reads are recorded
	// against a generic iteration, then take the in-loop branch.
	for _, in := range hdr.Instrs {
		if in.IsTerminator() {
			break
		}
		x.execInstr(fr, in)
	}
	if inLoop != l.Header {
		if _, ret := x.runBlocks(fr, fc, inLoop, l.Header, l.In); ret {
			x.bail("loop body of %s returns", fr.f.Name)
		}
	}
	x.popCollector()

	// Build the summary base: everything the pass read plus the raw write
	// entries it produced (their values carry the read/compute structure).
	inputs := make([]*symexec.Term, len(col.terms))
	copy(inputs, col.terms)
	symexec.SortTermsByKey(inputs)

	locs := make([]effects.Loc, 0, len(x.state.logs))
	for loc, lg := range x.state.logs {
		if len(lg) > lens[loc] {
			locs = append(locs, loc)
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })

	baseArgs := inputs
	for _, loc := range locs {
		for i := lens[loc]; i < len(x.state.logs[loc]); i++ {
			baseArgs = append(baseArgs, entryTerm(&x.state.logs[loc][i]))
		}
	}
	base := symexec.App("loop:"+id, baseArgs...)

	for _, loc := range locs {
		suf := append([]writeEntry(nil), x.state.logs[loc][lens[loc]:]...)
		x.state.logs[loc] = x.state.logs[loc][:lens[loc]]
		emitted := map[string]bool{}
		for i := range suf {
			e := &suf[i]
			kind := e.kind
			if kind == wAssign {
				kind = wSummary
			}
			h := e.handle
			if lvTainted(h) {
				h = nil
			}
			k := e.key
			if h == nil || lvTainted(k) {
				k = nil
			}
			dk := kindName(kind) + "|" + h.Key() + "|" + k.Key() + "|" + e.field
			if emitted[dk] {
				continue
			}
			emitted[dk] = true
			op := "fx:" + kindName(kind) + ":" + string(loc)
			if e.field != "" {
				op += "/" + e.field
			}
			vargs := []*symexec.Term{base}
			if h != nil {
				vargs = append(vargs, h)
			}
			if k != nil {
				vargs = append(vargs, k)
			}
			x.appendEntry(writeEntry{
				kind: kind, loc: loc, handle: h, key: k, field: e.field,
				val: symexec.App(op, vargs...), guard: x.guard,
			})
		}
	}

	wslots := make([]int, 0, len(written))
	for s := range written {
		wslots = append(wslots, s)
	}
	sort.Ints(wslots)
	for _, s := range wslots {
		fr.slots[s] = symexec.App("out:"+id+":"+strconv.Itoa(s), base)
	}
	return exit
}

func (x *commExec) execInstr(fr *cframe, in *ir.Instr) {
	x.steps++
	if x.steps > maxSteps {
		x.bail("symbolic execution budget exceeded in %s", fr.f.Name)
	}
	switch in.Op {
	case ir.OpConst:
		fr.regs[in.Dst] = constTerm(in.Val)
	case ir.OpLoadLocal:
		t := fr.slots[in.Slot]
		if t == nil {
			t = symexec.IntTerm(0)
		}
		fr.regs[in.Dst] = t
	case ir.OpStoreLocal:
		fr.slots[in.Slot] = fr.regs[in.A]
	case ir.OpLoadGlobal:
		fr.regs[in.Dst] = x.readCell(effects.GlobalLoc(in.Name), nil, nil, "")
	case ir.OpStoreGlobal:
		x.appendEntry(writeEntry{
			kind: wAssign, loc: effects.GlobalLoc(in.Name),
			val: fr.regs[in.A], guard: x.guard,
		})
	case ir.OpBin:
		fr.regs[in.Dst] = x.termBin(in.BinOp, fr.regs[in.A], fr.regs[in.B])
	case ir.OpUn:
		a := fr.regs[in.A]
		switch in.BinOp {
		case "!":
			switch x.boolTri(a) {
			case symexec.True:
				fr.regs[in.Dst] = boolConst(false)
			case symexec.False:
				fr.regs[in.Dst] = boolConst(true)
			default:
				fr.regs[in.Dst] = negTerm(a)
			}
		case "-":
			fr.regs[in.Dst] = symexec.Lin(a, -1, 0)
		default:
			fr.regs[in.Dst] = symexec.App("b:un"+in.BinOp, a)
		}
	case ir.OpCall:
		x.execCall(fr, in)
	}
}

func (x *commExec) refTerm(r builtins.Ref, args []*symexec.Term, res *symexec.Term) *symexec.Term {
	switch {
	case r == builtins.RefNone:
		return nil
	case r == builtins.RefResult:
		return res
	case int(r) >= 0 && int(r) < len(args):
		return args[r]
	}
	x.bail("builtin model references argument %d outside the call", int(r))
	return nil
}

func (x *commExec) execCall(fr *cframe, in *ir.Instr) {
	args := make([]*symexec.Term, len(in.Args))
	for i, r := range in.Args {
		args[i] = fr.regs[r]
	}
	if callee := x.prog().Funcs[in.Name]; callee != nil {
		x.depth++
		rets := x.execFunc(callee, args)
		x.depth--
		if len(in.OutSlots) > 0 {
			if len(rets) != len(in.OutSlots) {
				x.bail("region %s returns %d values for %d out-slots", in.Name, len(rets), len(in.OutSlots))
			}
			for i, s := range in.OutSlots {
				fr.slots[s] = rets[i]
			}
		}
		if in.Dst >= 0 {
			if len(rets) == 0 {
				x.bail("call to %s expected a result", in.Name)
			}
			fr.regs[in.Dst] = rets[0]
		}
		return
	}
	x.execBuiltin(fr, in, args)
}

func (x *commExec) execBuiltin(fr *cframe, in *ir.Instr, args []*symexec.Term) {
	siteID := fr.f.Name + ":" + strconv.Itoa(in.ID)
	model, ok := builtins.ModelOf(in.Name)
	if !ok {
		decl, known := x.env.v.c.Summary.Builtins[in.Name]
		if known && len(decl.Reads)+len(decl.Writes) > 0 {
			// Effectful but unmodeled: a deterministic function of its
			// arguments and everything it may read, havocking everything
			// it may write. Sound, and imprecise on purpose.
			vargs := append([]*symexec.Term{}, args...)
			for _, l := range decl.Reads {
				vargs = append(vargs, x.readCell(l, nil, nil, ""))
			}
			for _, l := range decl.Writes {
				x.appendEntry(writeEntry{
					kind: wSummary, loc: l,
					val:   symexec.App("w:"+in.Name+"@"+siteID+":"+string(l), vargs...),
					guard: x.guard,
				})
			}
			if in.Dst >= 0 {
				fr.regs[in.Dst] = symexec.App("call:"+in.Name, vargs...)
			}
			return
		}
		if in.Dst >= 0 {
			fr.regs[in.Dst] = symexec.App("b:"+in.Name, args...)
		}
		return
	}
	var res *symexec.Term
	switch model.Result {
	case builtins.ResFresh:
		k := "new:" + in.Name + "@" + siteID
		n := x.occ[k]
		x.occ[k] = n + 1
		res = symexec.App(k, x.ident, symexec.IntTerm(int64(n)))
	case builtins.ResDraw:
		k := "draw:" + in.Name + "@" + siteID
		n := x.occ[k]
		x.occ[k] = n + 1
		res = symexec.App(k, x.ident, symexec.IntTerm(int64(n)))
	case builtins.ResRead:
		res = x.readCell(model.Read.Loc,
			x.refTerm(model.Read.Handle, args, nil),
			x.refTerm(model.Read.Key, args, nil),
			model.Read.Field)
	default:
		if in.Dst >= 0 {
			res = symexec.App("b:"+in.Name, args...)
		}
	}
	for _, u := range model.Updates {
		h := x.refTerm(u.Handle, args, res)
		k := x.refTerm(u.Key, args, res)
		var kind wKind
		var val *symexec.Term
		switch u.Kind {
		case builtins.UAssign:
			kind = wAssign
			if u.ValConst != "" {
				val = symexec.StrTerm(u.ValConst)
			} else {
				vargs := append([]*symexec.Term{}, args...)
				for _, l := range u.ValReads {
					vargs = append(vargs, x.readCell(l, nil, nil, ""))
				}
				val = symexec.App("w:"+in.Name, vargs...)
			}
		case builtins.UBump:
			kind = wBump
			val = symexec.App("u:"+in.Name, args...)
		case builtins.UAppend:
			kind = wAppend
			val = symexec.App("u:"+in.Name, args...)
		case builtins.UScramble:
			kind = wScramble
			val = symexec.App("u:"+in.Name, args...)
		}
		x.appendEntry(writeEntry{
			kind: kind, loc: u.Loc, handle: h, key: k, field: u.Field,
			val: val, guard: x.guard,
		})
	}
	if in.Dst >= 0 {
		fr.regs[in.Dst] = res
	}
}

// --- log normalization and comparison ---

// entrySortKey orders log entries for normalization. The cell (handle,
// key, field) leads: entries on one cell keep their chronological order (a
// non-commuting same-cell run is "frozen", and freezing must not trap
// other cells' entries behind it in key order), while entries on different
// cells order globally by cell and can bubble past each other whenever the
// swaps are provably sound.
func entrySortKey(e *writeEntry) string {
	return e.handle.Key() + "|" + e.key.Key() + "|" + e.field + "|" + kindName(e.kind) + "|" + e.val.Key() + "|" + e.guard.Key()
}

// entriesCommute reports whether two adjacent log entries may be swapped
// without changing any observable: disjoint cells, matching commutative
// kinds (multiset quotient), equal-value assigns (idempotence), or
// mutually exclusive path conditions.
func (x *commExec) entriesCommute(a, b *writeEntry) bool {
	if guardsExclusive(a.guard, b.guard) {
		return true
	}
	if a.field != "" && b.field != "" && a.field != b.field {
		return true
	}
	if a.handle != nil && b.handle != nil &&
		symexec.TermsEqual(a.handle, b.handle, x.facts) == symexec.False {
		return true
	}
	if a.key != nil && b.key != nil &&
		symexec.TermsEqual(a.key, b.key, x.facts) == symexec.False {
		return true
	}
	if a.kind == b.kind && (a.kind == wBump || a.kind == wAppend || a.kind == wScramble) {
		return true
	}
	if a.kind == wAssign && b.kind == wAssign {
		if termNilEq(a.handle, b.handle, x.facts) && termNilEq(a.key, b.key, x.facts) &&
			a.field == b.field &&
			symexec.TermsEqual(a.val, b.val, x.facts) == symexec.True &&
			termNilEq(a.guard, b.guard, x.facts) {
			return true
		}
	}
	return false
}

func termNilEq(a, b *symexec.Term, f *symexec.Facts) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return symexec.TermsEqual(a, b, f) == symexec.True
}

// normalizeLog sorts a location's log by canonical entry key using only
// provably-valid adjacent swaps: two logs denote the same final contents
// iff (in this abstraction) their normal forms match entrywise.
func (x *commExec) normalizeLog(log []writeEntry) []writeEntry {
	out := append([]writeEntry(nil), log...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && entrySortKey(&out[j]) < entrySortKey(&out[j-1]) &&
			x.entriesCommute(&out[j-1], &out[j]); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// entriesEquivalent reports whether two normalized entries are the same
// abstract write.
func (x *commExec) entriesEquivalent(a, b *writeEntry) bool {
	return a.kind == b.kind && a.field == b.field &&
		termNilEq(a.handle, b.handle, x.facts) &&
		termNilEq(a.key, b.key, x.facts) &&
		symexec.TermsEqual(a.val, b.val, x.facts) == symexec.True &&
		termNilEq(a.guard, b.guard, x.facts)
}
