package analysis

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/symexec"
	"repro/internal/types"
)

// memb is one set membership of a member call instruction, resolved to the
// member function and the callee parameter indices bound to the set's
// predicate arguments.
type memb struct {
	set *types.Set
	fn  string // member function: a region function or an interface member
	// params[j] is the callee parameter index supplying predicate argument
	// j, or -1 when the binding could not be resolved statically.
	params []int
}

// resolveMembs resolves the memberships of call instruction in of la:
// region calls carry CallMembs (predicate arguments are live-in registers,
// mapped back to region parameter positions), and interface members carry
// FuncMembs with parameter indices directly.
func (v *vet) resolveMembs(la *pipeline.LoopAnalysis, in *ir.Instr) []memb {
	var out []memb
	if refs, ok := v.c.Low.CallMembs[in]; ok {
		blk := blockOf(la.Fn, in)
		for _, ref := range refs {
			m := memb{set: ref.Set, fn: in.Name}
			for _, reg := range ref.ArgRegs {
				m.params = append(m.params, argPosition(blk, in, reg))
			}
			out = append(out, m)
		}
	}
	if refs, ok := v.c.Low.FuncMembs[in.Name]; ok {
		for _, ref := range refs {
			out = append(out, memb{set: ref.Set, fn: in.Name, params: ref.ParamIdx})
		}
	}
	return out
}

// conflictLocs re-derives the abstract locations on which two member calls
// conflict, from the effect summaries: write/write, write/read, and
// read/write intersections. The PDG edge records only one causative
// location, so soundness checking must recover the full set.
func (v *vet) conflictLocs(fn1, fn2 string) []effects.Loc {
	r1, w1 := v.c.Summary.CallEffects(fn1)
	r2, w2 := v.c.Summary.CallEffects(fn2)
	var locs []effects.Loc
	for _, l := range effects.Union(w1, r1) {
		if hasLoc(w2, l) || hasLoc(w1, l) && hasLoc(r2, l) {
			locs = append(locs, l)
		}
	}
	return locs
}

// hasLoc reports whether the ascending list locs holds l.
func hasLoc(locs []effects.Loc, l effects.Loc) bool {
	_, ok := slices.BinarySearch(locs, l)
	return ok
}

// covers reports whether justifying set s actually protects the conflict on
// loc between member instances m1 and m2:
//
//   - a synchronized set serializes whole member executions under its lock,
//     covering every location the members touch;
//   - a COMMSETNOSYNC set without a predicate is the paper's "thread-safe
//     library" claim — trusted here (the unsound pass warns separately);
//   - a COMMSETNOSYNC set with a predicate covers loc only when both
//     members access loc exclusively through a predicate-bound key — via
//     matching injective affine transforms, so distinct keys still reach
//     distinct elements — and the predicate is provably false for equal
//     keys; or when the two members' transforms share a slope whose
//     residues differ (2k vs 2k+1), which keeps the footprints disjoint
//     regardless of the key values.
func (v *vet) covers(s *types.Set, m1, m2 memb, loc effects.Loc) bool {
	if !s.NoSync {
		return true
	}
	if s.Pred == nil {
		return true
	}
	j1 := v.keyedPositions(m1, loc)
	j2 := v.keyedPositions(m2, loc)
	for j, x1 := range j1 {
		x2, ok := j2[j]
		if !ok || x1.a == 0 || x1.a != x2.a {
			continue
		}
		if x1.b == x2.b && v.keyConstrains(s, j) {
			return true
		}
		if d := x1.b - x2.b; d%x1.a != 0 {
			// Same slope, incongruent offsets: a*k1+b1 = a*k2+b2 would need
			// a | (b2-b1), so the element sets are permanently disjoint.
			return true
		}
	}
	return false
}

// keyedPositions computes the predicate-argument positions that key every
// access to loc in the member function's body, with the affine transform
// the accesses apply to them: for each instruction touching loc, the
// positions whose bound parameter supplies the keying argument (possibly
// shifted or scaled), intersected across all accesses — an access keyed by
// a different transform of the same position drops it, since the combined
// footprint is no longer one injective image. An unkeyed access (a raw
// global access, an unkeyed builtin, or a user callee) empties the result.
func (v *vet) keyedPositions(m memb, loc effects.Loc) map[int]keyXform {
	f := v.c.Low.Prog.Funcs[m.fn]
	if f == nil {
		return nil
	}
	var out map[int]keyXform
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ps, touches := v.accessKeyPositions(f, b, in, m, loc)
			if !touches {
				continue
			}
			if out == nil {
				out = ps
			} else {
				for j, x := range out {
					if ox, ok := ps[j]; !ok || ox != x {
						delete(out, j)
					}
				}
			}
			if len(out) == 0 {
				return nil
			}
		}
	}
	return out
}

// accessKeyPositions inspects one instruction of a member body: touches
// reports whether it accesses loc, and ps maps the predicate positions
// keying that access to the affine transform applied (empty for an unkeyed
// access).
func (v *vet) accessKeyPositions(f *ir.Func, b *ir.Block, in *ir.Instr, m memb, loc effects.Loc) (ps map[int]keyXform, touches bool) {
	switch in.Op {
	case ir.OpLoadGlobal, ir.OpStoreGlobal:
		if effects.GlobalLoc(in.Name) != loc {
			return nil, false
		}
		return map[int]keyXform{}, true
	case ir.OpCall:
		r, w := v.c.Summary.CallEffects(in.Name)
		if !hasLoc(r, loc) && !hasLoc(w, loc) {
			return nil, false
		}
		// Keying callee positions: a declared key argument for builtins, the
		// interprocedural key-flow summary for user callees — a predicate key
		// forwarded through a helper still keys the access, and an affine
		// argument expression (bitmap_set(bm, k+1)) composes with the
		// callee's own transform.
		ks := v.keyedParams(in.Name, loc)
		if len(ks) == 0 {
			return map[int]keyXform{}, true
		}
		ps = map[int]keyXform{}
		var poss []int
		for k := range ks {
			poss = append(poss, k)
		}
		sort.Ints(poss)
		for _, k := range poss {
			if k < 0 || k >= len(in.Args) {
				continue
			}
			slot, ax, ok := affineOfReg(f, b, in, in.Args[k], 0)
			if !ok {
				continue
			}
			for j, p := range m.params {
				if p == slot {
					if _, dup := ps[j]; !dup {
						ps[j] = ks[k].then(ax)
					}
				}
			}
		}
		return ps, true
	}
	return nil, false
}

// blockOf finds the block of f containing instruction in.
func blockOf(f *ir.Func, in *ir.Instr) *ir.Block {
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if i == in {
				return b
			}
		}
	}
	return nil
}

// argPosition maps a membership-argument register to the call operand
// position carrying the same value. Lowering may evaluate the membership
// argument into its own register, separate from the call operand, so when
// no operand is the register itself, match through the root loads of both
// registers: loads of the same local slot with no intervening store, with
// plain local-to-local copies (j = i) traced back to the copied slot.
func argPosition(b *ir.Block, call *ir.Instr, reg int) int {
	for j, a := range call.Args {
		if a == reg {
			return j
		}
	}
	if b == nil {
		return -1
	}
	root := rootLoad(b, call, reg, 0)
	if root == nil {
		return -1
	}
	for j, a := range call.Args {
		d := rootLoad(b, call, a, 0)
		if d == nil || d.Slot != root.Slot {
			continue
		}
		first := root
		if instrIndex(b, d) < instrIndex(b, first) {
			first = d
		}
		if !storedBetween(b, first, call, root.Slot) {
			return j
		}
	}
	return -1
}

// rootLoad resolves a register used by `before` to the earliest local-slot
// load in b carrying the same value: the defining load itself, or — when
// the loaded slot was last written by a plain copy of another load (j = i)
// whose source slot is not overwritten before `before` — the copied load,
// recursively. Returns nil when the register is not defined by a load.
func rootLoad(b *ir.Block, before *ir.Instr, reg, depth int) *ir.Instr {
	if depth > 4 {
		return nil
	}
	def := defBefore(b, before, reg)
	if def == nil || def.Op != ir.OpLoadLocal {
		return nil
	}
	// Find the latest in-block write to the loaded slot before the load; a
	// call output is not a traceable copy, so it ends the chain at def.
	var st *ir.Instr
	for _, in := range b.Instrs {
		if in == def {
			break
		}
		if in.Op == ir.OpStoreLocal && in.Slot == def.Slot {
			st = in
		}
		if in.Op == ir.OpCall {
			for _, s := range in.OutSlots {
				if s == def.Slot {
					st = nil
				}
			}
		}
	}
	if st != nil {
		if src := rootLoad(b, st, st.A, depth+1); src != nil && !storedBetween(b, src, before, src.Slot) {
			return src
		}
	}
	return def
}

// instrIndex returns the position of in within b.
func instrIndex(b *ir.Block, in *ir.Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// storedBetween reports whether the local slot is overwritten strictly
// between instructions from and to in block b.
func storedBetween(b *ir.Block, from, to *ir.Instr, slot int) bool {
	active := false
	for _, in := range b.Instrs {
		if in == from {
			active = true
			continue
		}
		if in == to {
			return false
		}
		if !active {
			continue
		}
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
	return false
}

// defBefore finds the defining instruction of register r before instruction
// `before` within block b (registers are block-local by IR construction).
func defBefore(b *ir.Block, before *ir.Instr, r int) *ir.Instr {
	var def *ir.Instr
	for _, in := range b.Instrs {
		if in == before {
			break
		}
		if in.Dst == r {
			def = in
		}
	}
	return def
}

// slotStored reports whether the function ever overwrites the given local
// slot (parameters are installed by the call convention, not by stores).
func slotStored(f *ir.Func, slot int) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
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

// keyConstrains reports whether set s's predicate is provably false when
// predicate argument position j is equal across the two instances (all
// other arguments unconstrained). If so, any pair of instances the
// analyzer relaxed must have had distinct keys at position j, making
// key-indexed accesses disjoint.
func (v *vet) keyConstrains(s *types.Set, j int) bool {
	if s.Pred == nil {
		return false
	}
	env := symexec.Env{}
	bind := func(params []string, side string) {
		for i, p := range params {
			if i == j {
				env[p] = symexec.Invariant("key")
			} else {
				env[p] = symexec.Invariant(fmt.Sprintf("%s%d", side, i))
			}
		}
	}
	bind(s.Pred.Params1, "a")
	bind(s.Pred.Params2, "b")
	return symexec.EvalPredicate(s.Pred.Expr, env, symexec.DifferentIteration) == symexec.False
}

// membIn returns m1's membership of set s, if any.
func membIn(ms []memb, s *types.Set) (memb, bool) {
	for _, m := range ms {
		if m.set == s {
			return m, true
		}
	}
	return memb{}, false
}
