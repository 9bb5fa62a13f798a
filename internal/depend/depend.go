// Package depend implements the COMMSET Dependence Analyzer — Algorithm 1
// of the paper. It walks the memory dependence edges of a loop's PDG and
// annotates them as unconditionally commutative (uco) or inter-iteration
// commutative (ico):
//
//   - Both endpoints must be commutative member instances (after the
//     Metadata Manager's canonicalization every member is a function call:
//     a region call carrying CallMembs, or a call to a function with
//     interface-level membership).
//   - For an unpredicated common set the edge is annotated uco directly.
//   - For a predicated set, the predicate's formal parameters are bound to
//     the symbolic values of the actual arguments at the two call sites and
//     the predicate body is symbolically interpreted. On a loop-carried
//     edge the induction-variable inequality is asserted; a provably-true
//     predicate yields uco when the destination dominates the source and
//     ico otherwise. On an intra-iteration edge a provably-true predicate
//     yields uco.
//
// Group sets relax only pairs of distinct static members; Self sets relax
// only instances of the same static member — matching Section 3.1's
// semantics ("each block does not commute with itself" for Group sets).
package depend

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/pdg"
	"repro/internal/symexec"
	"repro/internal/types"
)

// membInst is one set membership of a call node.
type membInst struct {
	set    *types.Set
	member memberID
	// argRegs are the predicate actual-argument registers at the call site.
	argRegs []int
}

// memberID is a static member's identity: a region call instruction, or
// an interface-level member function (call is then -1).
type memberID struct {
	call int
	fn   string
}

// Analyzer annotates PDG edges with commutativity properties.
type Analyzer struct {
	p   *pdg.PDG
	low *lower.Result

	// rep folds argument-feeding loads into their call node, by
	// instruction ID.
	rep []int
	// calls are the member call instruction IDs in ascending order, and
	// membs[i] the memberships of calls[i].
	calls []int
	membs [][]membInst
	// storedSlots marks, by slot, the local slots written anywhere in the
	// loop.
	storedSlots []bool
	// writtenGlobals names the globals the loop writes.
	writtenGlobals []string
}

// Result reports the analyzer's derived structures for tools, tests, and
// the transforms: Rep folds argument-feeding loads into their member call
// node, and MemberCalls lists the loop's commutative member call
// instructions.
type Result struct {
	// Rep maps an instruction ID to its representative member call's ID
	// (identity for instructions that are not folded loads).
	Rep []int
	// MemberCalls holds the IDs of member call instructions in the loop,
	// in ascending order.
	MemberCalls []int
}

// Of maps an instruction ID through the representative relation.
func (r *Result) Of(id int) int {
	if id >= 0 && id < len(r.Rep) {
		return r.Rep[id]
	}
	return id
}

// Analyze runs Algorithm 1 over the PDG in place and reports the
// representative mapping used.
func Analyze(p *pdg.PDG, low *lower.Result, summary *effects.Summary) *Result {
	a := &Analyzer{
		p: p, low: low,
		rep:         make([]int, len(p.Instrs)),
		storedSlots: make([]bool, len(p.F.Locals)),
	}
	for id := range a.rep {
		a.rep[id] = id
	}
	a.collect(summary)
	a.annotate()
	return &Result{Rep: a.rep, MemberCalls: a.calls}
}

func (a *Analyzer) collect(summary *effects.Summary) {
	// Loop write sets for invariance checks.
	writeGlobal := func(name string) {
		if !slices.Contains(a.writtenGlobals, name) {
			a.writtenGlobals = append(a.writtenGlobals, name)
		}
	}
	for _, id := range a.p.Nodes {
		in := a.p.Instrs[id]
		switch in.Op {
		case ir.OpStoreLocal:
			a.storedSlots[in.Slot] = true
		case ir.OpStoreGlobal:
			writeGlobal(in.Name)
		case ir.OpCall:
			for _, s := range in.OutSlots {
				a.storedSlots[s] = true
			}
			_, w := summary.CallEffects(in.Name)
			for _, loc := range w {
				if g, ok := strings.CutPrefix(string(loc), "g:"); ok {
					writeGlobal(g)
				}
			}
		}
	}

	// Memberships and representative mapping.
	for _, id := range a.p.Nodes {
		in := a.p.Instrs[id]
		if in.Op != ir.OpCall {
			continue
		}
		var ms []membInst
		if refs, ok := a.low.CallMembs[in]; ok {
			for _, ref := range refs {
				ms = append(ms, membInst{
					set:     ref.Set,
					member:  memberID{call: in.ID},
					argRegs: ref.ArgRegs,
				})
			}
		}
		if refs, ok := a.low.FuncMembs[in.Name]; ok {
			for _, ref := range refs {
				mi := membInst{set: ref.Set, member: memberID{call: -1, fn: in.Name}}
				usable := true
				for _, pi := range ref.ParamIdx {
					if pi < 0 || pi >= len(in.Args) {
						usable = false
						break
					}
					mi.argRegs = append(mi.argRegs, in.Args[pi])
				}
				if usable {
					ms = append(ms, mi)
				}
			}
		}
		if len(ms) == 0 {
			continue
		}
		a.calls = append(a.calls, in.ID)
		a.membs = append(a.membs, ms)
		// Fold the loads feeding this member call (arguments and predicate
		// arguments) into the call node: a dependence that reaches the load
		// is a dependence on the member's execution.
		fold := func(reg int) {
			if def := a.p.DefOfReg(in, reg); def != nil {
				if def.Op == ir.OpLoadLocal || def.Op == ir.OpLoadGlobal {
					a.rep[def.ID] = in.ID
				}
			}
		}
		for _, r := range in.Args {
			fold(r)
		}
		for _, m := range ms {
			for _, r := range m.argRegs {
				fold(r)
			}
		}
	}
}

// membsOf returns the memberships of call instruction id, nil for a
// non-member.
func (a *Analyzer) membsOf(id int) []membInst {
	if i, ok := slices.BinarySearch(a.calls, id); ok {
		return a.membs[i]
	}
	return nil
}

func (a *Analyzer) annotate() {
	for _, e := range a.p.Edges {
		switch e.Kind {
		case pdg.DepFlow, pdg.DepAnti, pdg.DepOutput:
		default:
			continue
		}
		n1 := a.rep[e.From]
		n2 := a.rep[e.To]
		m1s := a.membsOf(n1)
		m2s := a.membsOf(n2)
		if len(m1s) == 0 || len(m2s) == 0 {
			continue // Lines 3-5: both endpoints must be member calls
		}
		best := pdg.CommNone
		for _, m1 := range m1s {
			for _, m2 := range m2s {
				if m1.set != m2.set {
					continue // Line 7: intersection of CommSets
				}
				c := a.judge(e, m1, m2, n1, n2)
				if c > best {
					best = c
				}
				if c > pdg.CommNone && !slices.Contains(e.CommBy, m1.set) {
					e.CommBy = append(e.CommBy, m1.set)
				}
			}
		}
		e.Comm = best
	}
}

// judge decides the annotation contributed by one common set.
func (a *Analyzer) judge(e *pdg.Edge, m1, m2 membInst, n1, n2 int) pdg.Comm {
	set := m1.set
	if set.SelfSet {
		// Self semantics: instances of the same static member commute.
		if m1.member != m2.member {
			return pdg.CommNone
		}
	} else {
		// Group semantics: distinct static members commute pairwise; a
		// member does not commute with itself.
		if m1.member == m2.member {
			return pdg.CommNone
		}
	}

	if set.Pred == nil {
		return pdg.CommUCO // Lines 9-11
	}

	env := symexec.Env{}
	for i, p := range set.Pred.Params1 {
		if i < len(m1.argRegs) {
			env[p] = a.symOfReg(a.p.Instrs[n1], m1.argRegs[i], 1)
		} else {
			env[p] = symexec.UnknownVal()
		}
	}
	for i, p := range set.Pred.Params2 {
		if i < len(m2.argRegs) {
			env[p] = a.symOfReg(a.p.Instrs[n2], m2.argRegs[i], 2)
		} else {
			env[p] = symexec.UnknownVal()
		}
	}

	if e.LoopCarried {
		// Lines 21-30: assert induction variable inequality.
		if symexec.EvalPredicate(set.Pred.Expr, env, symexec.DifferentIteration) != symexec.True {
			return pdg.CommNone
		}
		// uco when the destination member dominates the source member
		// (Lines 24-26), at instruction granularity.
		if a.dominates(n2, n1) {
			return pdg.CommUCO
		}
		return pdg.CommICO
	}
	// Lines 31-35: intra-iteration edge.
	if symexec.EvalPredicate(set.Pred.Expr, env, symexec.SameIteration) == symexec.True {
		return pdg.CommUCO
	}
	return pdg.CommNone
}

// dominates reports whether instruction x dominates instruction y: within
// one block by program order, across blocks by block dominance.
func (a *Analyzer) dominates(x, y int) bool {
	bx, by := a.p.BlockOf[x], a.p.BlockOf[y]
	if bx == by {
		return x <= y
	}
	return a.p.Flow.Dom.Dominates(bx, by)
}

// symOfReg derives the symbolic value of register r at member call `call`
// for instance inst.
func (a *Analyzer) symOfReg(call *ir.Instr, r int, inst int) symexec.Val {
	return a.symOfDef(a.p.DefOfReg(call, r), inst, 0)
}

func (a *Analyzer) symOfDef(def *ir.Instr, inst, depth int) symexec.Val {
	if def == nil || depth > 8 {
		return symexec.UnknownVal()
	}
	switch def.Op {
	case ir.OpConst:
		v := def.Val
		if v.T == ast.TInt {
			return symexec.Affine(0, v.I, inst)
		}
		return symexec.Const(v)
	case ir.OpLoadLocal:
		if a.p.IVSlots[def.Slot] {
			return symexec.Affine(1, 0, inst)
		}
		if !a.storedSlots[def.Slot] {
			return symexec.Invariant(fmt.Sprintf("s:%d", def.Slot))
		}
		return symexec.UnknownVal()
	case ir.OpLoadGlobal:
		if !slices.Contains(a.writtenGlobals, def.Name) {
			return symexec.Invariant("g:" + def.Name)
		}
		return symexec.UnknownVal()
	case ir.OpBin:
		x := a.symOfDef(a.p.DefOfReg(def, def.A), inst, depth+1)
		y := a.symOfDef(a.p.DefOfReg(def, def.B), inst, depth+1)
		r, _ := symexec.ArithVals(def.BinOp, x, y)
		return r
	case ir.OpUn:
		if def.BinOp == "-" {
			x := a.symOfDef(a.p.DefOfReg(def, def.A), inst, depth+1)
			if x.Kind == symexec.KAffine {
				return symexec.Affine(-x.A, -x.B, inst)
			}
		}
	}
	return symexec.UnknownVal()
}
