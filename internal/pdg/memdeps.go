package pdg

import (
	"slices"

	"repro/internal/effects"
	"repro/internal/ir"
)

// --- local variable slot dependences ---

// slotAccess is one local-slot read or write by a loop instruction.
type slotAccess struct {
	id    int
	slot  int
	write bool
}

// addLocalMemEdges adds dependences through the target function's local
// variable slots.
//
// Slots written by a region call's OutSlots are "shared": in parallel
// execution they live in shared storage read-modified-written atomically by
// commutative members, so they receive the same conservative treatment as
// globals — loop-carried edges in both directions for every conflicting
// pair (relaxable by Algorithm 1 when both endpoints are member calls).
//
// Plain slots are privatized per iteration by the parallel executors, so:
// flow (write→read) edges are intra-iteration per reachability, loop-carried
// only into upward-exposed reads (values genuinely flowing across
// iterations); anti and output edges are intra-iteration only.
func (b *builder) addLocalMemEdges() {
	var accesses []slotAccess
	shared := make([]bool, len(b.F.Locals))
	for _, id := range b.Nodes {
		in := b.Instrs[id]
		switch in.Op {
		case ir.OpLoadLocal:
			accesses = append(accesses, slotAccess{id: id, slot: in.Slot})
		case ir.OpStoreLocal:
			accesses = append(accesses, slotAccess{id: id, slot: in.Slot, write: true})
		case ir.OpCall:
			for _, s := range in.OutSlots {
				accesses = append(accesses, slotAccess{id: id, slot: s, write: true})
			}
			// Only read-modify-written slots are shared across threads;
			// write-only region outputs are per-iteration dataflow.
			for _, s := range b.RMWSlots(in) {
				shared[s] = true
			}
		}
	}
	if len(accesses) == 0 {
		return
	}
	exposed := b.upwardExposedLoads()

	// Slots are visited in index order, each with its accesses in node
	// order, so the edge list, and with it the PDG dump, is the same on
	// every build.
	slices.SortStableFunc(accesses, func(x, y slotAccess) int { return x.slot - y.slot })
	for len(accesses) > 0 {
		slot := accesses[0].slot
		n := 1
		for n < len(accesses) && accesses[n].slot == slot {
			n++
		}
		accs := accesses[:n]
		accesses = accesses[n:]
		loc := "slot " + b.F.Locals[slot].Name
		lid := -1 - slot
		sid := slot + 1
		iv := b.IVSlots[slot]
		if shared[slot] {
			b.addSharedSlotEdges(accs, loc, lid, sid)
			continue
		}
		for _, w := range accs {
			if !w.write {
				continue
			}
			for _, o := range accs {
				if o.write {
					// Output dependence, intra only.
					if o.id != w.id && b.canReachIntra(w.id, o.id) {
						b.addEdge(Edge{From: w.id, To: o.id, Kind: DepOutput, Loc: loc, SlotID: sid}, lid)
					}
					continue
				}
				// Flow: intra when the write reaches the read in-iteration.
				if b.canReachIntra(w.id, o.id) {
					b.addEdge(Edge{From: w.id, To: o.id, Kind: DepFlow, Loc: loc, SlotID: sid}, lid)
				}
				// Loop-carried flow into upward-exposed reads.
				if exposed[o.id-b.Nodes[0]] {
					b.addEdge(Edge{From: w.id, To: o.id, Kind: DepFlow, LoopCarried: true, Loc: loc, IVSlot: iv, SlotID: sid}, lid)
				}
				// Anti, intra only (locals are privatized per iteration).
				if b.canReachIntra(o.id, w.id) {
					b.addEdge(Edge{From: o.id, To: w.id, Kind: DepAnti, Loc: loc, SlotID: sid}, lid)
				}
			}
		}
	}
}

// addSharedSlotEdges applies the conservative shared-state treatment to one
// slot's accesses: intra edges per reachability plus loop-carried edges in
// both directions for every conflicting pair.
func (b *builder) addSharedSlotEdges(accs []slotAccess, loc string, lid, sid int) {
	for _, x := range accs {
		for _, y := range accs {
			switch {
			case x.write && !y.write:
				b.memEdgePair(x.id, y.id, DepFlow, loc, lid, sid)
			case !x.write && y.write:
				b.memEdgePair(x.id, y.id, DepAnti, loc, lid, sid)
			case x.write && y.write:
				if x.id == y.id {
					b.addEdge(Edge{From: x.id, To: x.id, Kind: DepOutput, LoopCarried: true, Loc: loc, SlotID: sid}, lid)
				} else {
					b.memEdgePair(x.id, y.id, DepOutput, loc, lid, sid)
				}
			}
		}
	}
}

// upwardExposedLoads computes, by instruction ID less Nodes[0], which
// OpLoadLocal instructions may observe a value from a previous iteration:
// loads not preceded on every intra-iteration path by a store to the same
// slot. The must-define dataflow runs over slot bitsets per block and
// iterates to a fixpoint so that inner-loop back edges (cycles in the
// iteration body) are handled precisely: an inner loop's own induction
// variable is defined before its header on every path from the outer
// header.
func (b *builder) upwardExposedLoads() []bool {
	// Rows are loop blocks by loop index, columns slots.
	nl, ns := len(b.Loop.Blocks), len(b.F.Locals)
	defs, in, out := newBitMatrix(nl, ns), newBitMatrix(nl, ns), newBitMatrix(nl, ns)
	universe := make([]uint64, defs.words)
	def := func(i, slot int) {
		defs.set(i, slot)
		universe[slot/64] |= 1 << (slot % 64)
	}
	for i, x := range b.Loop.Blocks {
		for _, instr := range b.F.BlockByID(x).Instrs {
			if instr.Op == ir.OpStoreLocal {
				def(i, instr.Slot)
			}
			if instr.Op == ir.OpCall {
				for _, s := range instr.OutSlots {
					def(i, s)
				}
			}
		}
	}

	// Optimistic initialization (OUT = universe) and iteration to fixpoint.
	for i := range b.Loop.Blocks {
		copy(out.row(i), universe)
	}
	order := b.intraTopoOrder()
	preds := b.Flow.G.Preds
	for changed := true; changed; {
		changed = false
		for _, x := range order {
			// IN is the intersection over intra-iteration predecessors;
			// nothing is defined at iteration start (the header).
			i := b.loopIndex(x)
			cur := in.row(i)
			clear(cur)
			first := true
			for _, pr := range preds[x] {
				if x == b.Loop.Header || !b.Loop.Contains(pr) {
					continue
				}
				po := out.row(b.loopIndex(pr))
				for w := range cur {
					if first {
						cur[w] = po[w]
					} else {
						cur[w] &= po[w]
					}
				}
				first = false
			}
			o, d := out.row(i), defs.row(i)
			for w := range cur {
				if v := cur[w] | d[w]; v != o[w] {
					o[w] = v
					changed = true
				}
			}
		}
	}

	exposed := make([]bool, b.Nodes[len(b.Nodes)-1]-b.Nodes[0]+1)
	have := make([]uint64, defs.words)
	for i, x := range b.Loop.Blocks {
		copy(have, in.row(i))
		for _, instr := range b.F.BlockByID(x).Instrs {
			switch instr.Op {
			case ir.OpLoadLocal:
				if have[instr.Slot/64]&(1<<(instr.Slot%64)) == 0 {
					exposed[instr.ID-b.Nodes[0]] = true
				}
			case ir.OpStoreLocal:
				have[instr.Slot/64] |= 1 << (instr.Slot % 64)
			case ir.OpCall:
				for _, s := range instr.OutSlots {
					have[s/64] |= 1 << (s % 64)
				}
			}
		}
	}
	return exposed
}

// intraTopoOrder orders loop blocks so that intra-iteration predecessors
// come first (header first, back edges ignored).
func (b *builder) intraTopoOrder() []int {
	visited := make([]bool, len(b.Loop.Blocks)) // by loop index
	order := make([]int, 0, len(b.Loop.Blocks))
	succs := b.Flow.G.Succs
	var dfs func(x int)
	dfs = func(x int) {
		visited[b.loopIndex(x)] = true
		for _, s := range succs[x] {
			if b.Loop.Contains(s) && s != b.Loop.Header && !visited[b.loopIndex(s)] {
				dfs(s)
			}
		}
		order = append(order, x)
	}
	dfs(b.Loop.Header)
	// Reverse postorder.
	slices.Reverse(order)
	return order
}

// --- shared memory (globals and substrate tags) ---

// addSharedMemEdges adds dependences through globals and builtin effect
// tags. These model externally visible state, so the loop-carried
// dependence detector is conservative: every conflicting pair receives
// loop-carried edges in both directions in addition to the intra-iteration
// edge implied by reachability (paper Section 4.3: edges are loop carried
// "whenever the source and/or destination nodes read and update shared
// memory state").
func (b *builder) addSharedMemEdges(summary *effects.Summary) {
	// Each access's locations, in ascending order.
	type memAccess struct {
		id            int
		reads, writes []effects.Loc
	}
	var accs []memAccess
	for _, id := range b.Nodes {
		in := b.Instrs[id]
		switch in.Op {
		case ir.OpLoadGlobal:
			accs = append(accs, memAccess{id: id, reads: []effects.Loc{effects.GlobalLoc(in.Name)}})
		case ir.OpStoreGlobal:
			accs = append(accs, memAccess{id: id, writes: []effects.Loc{effects.GlobalLoc(in.Name)}})
		case ir.OpCall:
			r, w := summary.CallEffects(in.Name)
			if len(r) == 0 && len(w) == 0 {
				continue
			}
			accs = append(accs, memAccess{id: id, reads: r, writes: w})
		}
	}

	for i := range accs {
		for j := range accs {
			x, y := accs[i], accs[j]
			// Flow/output from x's writes; anti from x's reads.
			if loc, ok := firstCommon(x.writes, y.reads); ok {
				b.memEdgePair(x.id, y.id, DepFlow, string(loc), b.memLoc(string(loc)), 0)
			}
			if loc, ok := firstCommon(x.writes, y.writes); ok && x.id != y.id {
				b.memEdgePair(x.id, y.id, DepOutput, string(loc), b.memLoc(string(loc)), 0)
			} else if ok && x.id == y.id {
				b.addEdge(Edge{From: x.id, To: x.id, Kind: DepOutput, LoopCarried: true, Loc: string(loc)}, b.memLoc(string(loc)))
			}
			if loc, ok := firstCommon(x.reads, y.writes); ok {
				b.memEdgePair(x.id, y.id, DepAnti, string(loc), b.memLoc(string(loc)), 0)
			}
		}
	}
}

// firstCommon returns the smallest location of two ascending lists'
// intersection.
func firstCommon(a, b []effects.Loc) (effects.Loc, bool) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return "", false
}

// memEdgePair adds the intra-iteration edge (when x reaches y within the
// iteration) and the conservative loop-carried edge x -> y. sid is the
// slot identity of a local-slot location, 0 otherwise.
func (b *builder) memEdgePair(x, y int, kind DepKind, loc string, lid, sid int) {
	if x != y && b.canReachIntra(x, y) {
		b.addEdge(Edge{From: x, To: y, Kind: kind, Loc: loc, SlotID: sid}, lid)
	}
	b.addEdge(Edge{From: x, To: y, Kind: kind, LoopCarried: true, Loc: loc, SlotID: sid}, lid)
}

// --- control dependences ---

// addControlEdges adds block-level control dependences computed from
// post-dominance: block Y is control dependent on branch block X when Y
// post-dominates a successor of X but not X itself. All instructions of Y
// depend on X's terminator. The loop-header branch additionally carries a
// loop-carried control dependence to every loop instruction (it decides
// whether the next iteration executes).
func (b *builder) addControlEdges() {
	pd := b.Flow.PostDom
	for _, x := range b.Loop.Blocks {
		term := b.F.BlockByID(x).Terminator()
		if term == nil || term.Op != ir.OpCondBr {
			continue
		}
		for _, y := range b.Loop.Blocks {
			if pd.Dominates(y, x) {
				continue
			}
			dep := false
			for _, s := range b.Flow.G.Succs[x] {
				if pd.Dominates(y, s) {
					dep = true
					break
				}
			}
			if !dep {
				continue
			}
			for _, in := range b.F.BlockByID(y).Instrs {
				b.addEdge(Edge{From: term.ID, To: in.ID, Kind: DepControl, Loc: "cd"}, 0)
			}
		}
	}

	// Loop-carried control: the header's exit branch controls the next
	// iteration of every node.
	hterm := b.F.BlockByID(b.Loop.Header).Terminator()
	if hterm != nil && hterm.Op == ir.OpCondBr {
		for _, id := range b.Nodes {
			b.addEdge(Edge{From: hterm.ID, To: id, Kind: DepControl, LoopCarried: true, Loc: "loop"}, 0)
		}
	}
}
