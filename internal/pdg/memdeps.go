package pdg

import (
	"fmt"

	"repro/internal/cfg"
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
func (p *PDG) addLocalMemEdges() {
	var accesses []slotAccess
	shared := map[int]bool{}
	for _, id := range p.Nodes {
		in := p.Instrs[id]
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
			for _, s := range p.RMWSlots(in) {
				shared[s] = true
			}
		}
	}

	reach := p.intraReach()
	exposed := p.upwardExposedLoads()

	bySlot := map[int][]slotAccess{}
	for _, a := range accesses {
		bySlot[a.slot] = append(bySlot[a.slot], a)
	}
	// Slots are visited in index order so the edge list, and with it the
	// PDG dump, is the same on every build.
	for slot := range p.F.Locals {
		accs := bySlot[slot]
		if len(accs) == 0 {
			continue
		}
		loc := fmt.Sprintf("slot %s", p.F.Locals[slot].Name)
		sid := slot + 1
		iv := p.IVSlots[slot]
		if shared[slot] {
			p.addSharedSlotEdges(accs, reach, loc, sid)
			continue
		}
		for _, w := range accs {
			if !w.write {
				continue
			}
			for _, o := range accs {
				if o.write {
					// Output dependence, intra only.
					if o.id != w.id && canReachIntra(p, reach, w.id, o.id) {
						p.addEdge(Edge{From: w.id, To: o.id, Kind: DepOutput, Loc: loc, SlotID: sid})
					}
					continue
				}
				// Flow: intra when the write reaches the read in-iteration.
				if canReachIntra(p, reach, w.id, o.id) {
					p.addEdge(Edge{From: w.id, To: o.id, Kind: DepFlow, Loc: loc, SlotID: sid})
				}
				// Loop-carried flow into upward-exposed reads.
				if exposed[o.id] {
					p.addEdge(Edge{From: w.id, To: o.id, Kind: DepFlow, LoopCarried: true, Loc: loc, IVSlot: iv, SlotID: sid})
				}
				// Anti, intra only (locals are privatized per iteration).
				if canReachIntra(p, reach, o.id, w.id) {
					p.addEdge(Edge{From: o.id, To: w.id, Kind: DepAnti, Loc: loc, SlotID: sid})
				}
			}
		}
	}
}

// addSharedSlotEdges applies the conservative shared-state treatment to one
// slot's accesses: intra edges per reachability plus loop-carried edges in
// both directions for every conflicting pair.
func (p *PDG) addSharedSlotEdges(accs []slotAccess, reach map[int]map[int]bool, loc string, sid int) {
	for _, a := range accs {
		for _, b := range accs {
			switch {
			case a.write && !b.write:
				p.memEdgePairSlot(reach, a.id, b.id, DepFlow, loc, sid)
			case !a.write && b.write:
				p.memEdgePairSlot(reach, a.id, b.id, DepAnti, loc, sid)
			case a.write && b.write:
				if a.id == b.id {
					p.addEdge(Edge{From: a.id, To: a.id, Kind: DepOutput, LoopCarried: true, Loc: loc, SlotID: sid})
				} else {
					p.memEdgePairSlot(reach, a.id, b.id, DepOutput, loc, sid)
				}
			}
		}
	}
}

// memEdgePairSlot is memEdgePair with a slot identity.
func (p *PDG) memEdgePairSlot(reach map[int]map[int]bool, a, b int, kind DepKind, loc string, sid int) {
	if a != b && canReachIntra(p, reach, a, b) {
		p.addEdge(Edge{From: a, To: b, Kind: kind, Loc: loc, SlotID: sid})
	}
	p.addEdge(Edge{From: a, To: b, Kind: kind, LoopCarried: true, Loc: loc, SlotID: sid})
}

// upwardExposedLoads computes which OpLoadLocal instructions may observe a
// value from a previous iteration: loads not preceded on every
// intra-iteration path by a store to the same slot. The must-define
// dataflow iterates to a fixpoint so that inner-loop back edges (cycles in
// the iteration body) are handled precisely: an inner loop's own induction
// variable is defined before its header on every path from the outer
// header.
func (p *PDG) upwardExposedLoads() map[int]bool {
	blocks := p.Loop.BlockIDs()
	type slotSet map[int]bool
	in := map[int]slotSet{}
	out := map[int]slotSet{}

	order := p.intraTopoOrder()

	intraPreds := func(b int) []int {
		var preds []int
		for _, pr := range p.G.Preds[b] {
			if p.Loop.Contains(pr) && b != p.Loop.Header {
				preds = append(preds, pr)
			}
		}
		return preds
	}

	universe := slotSet{}
	defsIn := map[int]slotSet{}
	for _, b := range blocks {
		ds := slotSet{}
		for _, instr := range p.F.BlockByID(b).Instrs {
			if instr.Op == ir.OpStoreLocal {
				ds[instr.Slot] = true
				universe[instr.Slot] = true
			}
			if instr.Op == ir.OpCall {
				for _, s := range instr.OutSlots {
					ds[s] = true
					universe[s] = true
				}
			}
		}
		defsIn[b] = ds
	}

	// Optimistic initialization (OUT = universe) and iteration to fixpoint.
	copySet := func(s slotSet) slotSet {
		c := make(slotSet, len(s))
		for k := range s {
			c[k] = true
		}
		return c
	}
	for _, b := range blocks {
		out[b] = copySet(universe)
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			preds := intraPreds(b)
			var cur slotSet
			if len(preds) == 0 {
				cur = slotSet{} // header: nothing defined at iteration start
			} else {
				cur = copySet(out[preds[0]])
				for _, pr := range preds[1:] {
					po := out[pr]
					for s := range cur {
						if !po[s] {
							delete(cur, s)
						}
					}
				}
			}
			in[b] = cur
			o := copySet(cur)
			for s := range defsIn[b] {
				o[s] = true
			}
			if !equalSlotSet(o, out[b]) {
				out[b] = o
				changed = true
			}
		}
	}

	exposed := map[int]bool{}
	for _, b := range blocks {
		have := slotSet{}
		for s := range in[b] {
			have[s] = true
		}
		for _, instr := range p.F.BlockByID(b).Instrs {
			switch instr.Op {
			case ir.OpLoadLocal:
				if !have[instr.Slot] {
					exposed[instr.ID] = true
				}
			case ir.OpStoreLocal:
				have[instr.Slot] = true
			case ir.OpCall:
				for _, s := range instr.OutSlots {
					have[s] = true
				}
			}
		}
	}
	return exposed
}

func equalSlotSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// intraTopoOrder orders loop blocks so that intra-iteration predecessors
// come first (header first, back edges ignored).
func (p *PDG) intraTopoOrder() []int {
	visited := map[int]bool{}
	var order []int
	var dfs func(b int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range p.G.Succs[b] {
			if p.Loop.Contains(s) && s != p.Loop.Header && !visited[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(p.Loop.Header)
	// Reverse postorder.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
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
func (p *PDG) addSharedMemEdges(summary *effects.Summary) {
	type memAccess struct {
		id     int
		reads  effects.Set
		writes effects.Set
	}
	var accs []memAccess
	for _, id := range p.Nodes {
		in := p.Instrs[id]
		switch in.Op {
		case ir.OpLoadGlobal:
			r := effects.Set{}
			r.Add(effects.GlobalLoc(in.Name))
			accs = append(accs, memAccess{id: id, reads: r, writes: effects.Set{}})
		case ir.OpStoreGlobal:
			w := effects.Set{}
			w.Add(effects.GlobalLoc(in.Name))
			accs = append(accs, memAccess{id: id, reads: effects.Set{}, writes: w})
		case ir.OpCall:
			r, w := summary.CallEffects(in.Name)
			if len(r) == 0 && len(w) == 0 {
				continue
			}
			accs = append(accs, memAccess{id: id, reads: r, writes: w})
		}
	}

	reach := p.intraReach()
	conflictLoc := func(a, b effects.Set) (effects.Loc, bool) {
		for _, l := range a.Sorted() {
			if b[l] {
				return l, true
			}
		}
		return "", false
	}

	for i := range accs {
		for j := range accs {
			a, b := accs[i], accs[j]
			// Flow/output from a's writes; anti from a's reads.
			if loc, ok := conflictLoc(a.writes, b.reads); ok {
				p.memEdgePair(reach, a.id, b.id, DepFlow, string(loc))
			}
			if loc, ok := conflictLoc(a.writes, b.writes); ok && a.id != b.id {
				p.memEdgePair(reach, a.id, b.id, DepOutput, string(loc))
			} else if ok && a.id == b.id {
				p.addEdge(Edge{From: a.id, To: a.id, Kind: DepOutput, LoopCarried: true, Loc: string(loc)})
			}
			if loc, ok := conflictLoc(a.reads, b.writes); ok {
				p.memEdgePair(reach, a.id, b.id, DepAnti, string(loc))
			}
		}
	}
}

// memEdgePair adds the intra-iteration edge (when a reaches b within the
// iteration) and the conservative loop-carried edge a -> b.
func (p *PDG) memEdgePair(reach map[int]map[int]bool, a, b int, kind DepKind, loc string) {
	if a != b && canReachIntra(p, reach, a, b) {
		p.addEdge(Edge{From: a, To: b, Kind: kind, Loc: loc})
	}
	p.addEdge(Edge{From: a, To: b, Kind: kind, LoopCarried: true, Loc: loc})
}

// --- control dependences ---

// addControlEdges adds block-level control dependences computed from
// post-dominance: block Y is control dependent on branch block X when Y
// post-dominates a successor of X but not X itself. All instructions of Y
// depend on X's terminator. The loop-header branch additionally carries a
// loop-carried control dependence to every loop instruction (it decides
// whether the next iteration executes).
func (p *PDG) addControlEdges() {
	ipdom := p.G.PostDominators()
	pd := cfg.NewDomTreeP(ipdom)

	for _, x := range p.Loop.BlockIDs() {
		term := p.F.BlockByID(x).Terminator()
		if term == nil || term.Op != ir.OpCondBr {
			continue
		}
		for _, y := range p.Loop.BlockIDs() {
			dep := false
			for _, s := range p.G.Succs[x] {
				if pd.Dominates(y, s) && !pd.Dominates(y, x) {
					dep = true
					break
				}
			}
			if !dep {
				continue
			}
			for _, in := range p.F.BlockByID(y).Instrs {
				p.addEdge(Edge{From: term.ID, To: in.ID, Kind: DepControl, Loc: "cd"})
			}
		}
	}

	// Loop-carried control: the header's exit branch controls the next
	// iteration of every node.
	hterm := p.F.BlockByID(p.Loop.Header).Terminator()
	if hterm != nil && hterm.Op == ir.OpCondBr {
		for _, id := range p.Nodes {
			p.addEdge(Edge{From: hterm.ID, To: id, Kind: DepControl, LoopCarried: true, Loc: "loop"})
		}
	}
}
