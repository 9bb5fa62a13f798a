// Package pdg builds the Program Dependence Graph for a target loop over IR
// instructions (paper Section 4.3, following Ferrante/Ottenstein/Warren).
//
// Nodes are the loop's instructions. Edges carry a dependence kind
// (register flow, memory flow/anti/output, control), a loop-carried flag
// from the loop-carried dependence detector, and — after the COMMSET
// dependence analyzer runs — a commutativity annotation (uco/ico).
//
// Memory is modeled at three granularities:
//
//   - local variable slots of the target function (exact, instruction
//     level, with a must-define analysis separating iteration-local
//     temporaries from genuinely loop-carried values),
//   - MiniC globals,
//   - substrate effect tags from builtin declarations, propagated through
//     callees by the effects summary.
//
// Induction variables (slots whose only in-loop store is the loop's post
// increment, in affine form) are detected here; their loop-carried flow is
// privatizable and flagged so transforms can treat it as benign, exactly as
// classic DOALL treats the iteration variable.
package pdg

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/types"
)

// DepKind classifies a dependence edge.
type DepKind int

// Dependence kinds.
const (
	DepRegFlow DepKind = iota // register def -> use, always intra-block
	DepFlow                   // memory write -> read
	DepAnti                   // memory read -> write
	DepOutput                 // memory write -> write
	DepControl                // branch -> controlled instruction
)

// String names the dependence kind.
func (k DepKind) String() string {
	switch k {
	case DepRegFlow:
		return "reg"
	case DepFlow:
		return "flow"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepControl:
		return "control"
	}
	return "?"
}

// Comm is the commutativity annotation assigned by the COMMSET dependence
// analyzer (Algorithm 1).
type Comm int

// Commutativity annotations.
const (
	CommNone Comm = iota
	CommUCO       // unconditionally commutative: edge treated as absent
	CommICO       // inter-iteration commutative: treated as intra-iteration
)

// String names the annotation as in the paper.
func (c Comm) String() string {
	switch c {
	case CommUCO:
		return "uco"
	case CommICO:
		return "ico"
	}
	return "-"
}

// Edge is one dependence edge between instruction IDs.
type Edge struct {
	From, To    int
	Kind        DepKind
	LoopCarried bool
	Loc         string // cause: "slot total", "t:io.console", "g:x", ...
	Comm        Comm
	// IVSlot marks loop-carried local flow on an induction-variable slot,
	// which transforms may treat as privatized.
	IVSlot bool
	// SlotID identifies local-slot edges: slot index + 1, or 0 when the
	// edge is not a local-slot dependence.
	SlotID int
	// CommBy lists the commutative sets that justified a non-None Comm
	// annotation (filled by the dependence analyzer). Analysis tools use it
	// to audit whether each justifying set's predicate and synchronization
	// actually cover the edge's conflicting locations.
	CommBy []*types.Set
}

// LocalSlot returns the slot index of a local-slot edge and whether the
// edge is one.
func (e *Edge) LocalSlot() (int, bool) {
	if e.SlotID > 0 {
		return e.SlotID - 1, true
	}
	return -1, false
}

// PDG is the dependence graph of one loop.
type PDG struct {
	F    *ir.Func
	Loop *cfg.Loop
	G    *cfg.Graph

	Nodes   []int // sorted instruction IDs within the loop
	InLoop  map[int]bool
	Edges   []*Edge
	Instrs  map[int]*ir.Instr
	BlockOf map[int]int // instr ID -> block ID

	// IVSlots are induction-variable slots of this loop.
	IVSlots map[int]bool

	Dom *cfg.DomTree

	edgeSet map[edgeKey]*Edge
}

type edgeKey struct {
	from, to int
	kind     DepKind
	lc       bool
	loc      string
}

// Build constructs the PDG for loop in f. summary supplies call effects.
// controlIDs, when non-nil, lists the instruction IDs of the loop's
// condition and post-increment groups: only slots updated there qualify as
// privatizable induction variables (the executors recompute control state
// per iteration; a counter updated in the body is a genuine loop-carried
// dependence).
func Build(f *ir.Func, loop *cfg.Loop, g *cfg.Graph, summary *effects.Summary, controlIDs map[int]bool) *PDG {
	p := &PDG{
		F: f, Loop: loop, G: g,
		InLoop:  map[int]bool{},
		Instrs:  map[int]*ir.Instr{},
		BlockOf: map[int]int{},
		IVSlots: map[int]bool{},
		edgeSet: map[edgeKey]*Edge{},
		Dom:     cfg.NewDomTree(g.Dominators()),
	}
	for _, bid := range loop.BlockIDs() {
		for _, in := range f.BlockByID(bid).Instrs {
			p.Nodes = append(p.Nodes, in.ID)
			p.InLoop[in.ID] = true
			p.Instrs[in.ID] = in
			p.BlockOf[in.ID] = bid
		}
	}
	sort.Ints(p.Nodes)

	p.detectIVs(controlIDs)
	p.addRegEdges()
	p.addLocalMemEdges()
	p.addSharedMemEdges(summary)
	p.addControlEdges()
	return p
}

func (p *PDG) addEdge(e Edge) *Edge {
	k := edgeKey{e.From, e.To, e.Kind, e.LoopCarried, e.Loc}
	if ex, ok := p.edgeSet[k]; ok {
		return ex
	}
	ne := &e
	p.edgeSet[k] = ne
	p.Edges = append(p.Edges, ne)
	return ne
}

// --- induction variables ---

// detectIVs finds slots whose only store within the loop writes
// load(slot) ± const, computed in the same block (the canonical post
// increment produced by the lowerer).
func (p *PDG) detectIVs(controlIDs map[int]bool) {
	storesBySlot := map[int][]*ir.Instr{}
	for _, id := range p.Nodes {
		in := p.Instrs[id]
		if in.Op == ir.OpStoreLocal {
			storesBySlot[in.Slot] = append(storesBySlot[in.Slot], in)
		}
		if in.Op == ir.OpCall {
			for _, s := range in.OutSlots {
				storesBySlot[s] = append(storesBySlot[s], nil) // region write: disqualifies
			}
		}
	}
	for slot, stores := range storesBySlot {
		if len(stores) != 1 || stores[0] == nil {
			continue
		}
		st := stores[0]
		if controlIDs != nil && !controlIDs[st.ID] {
			continue
		}
		blk := p.F.BlockByID(p.BlockOf[st.ID])
		if p.isAffineUpdate(blk, st, slot) {
			p.IVSlots[slot] = true
		}
	}
}

// isAffineUpdate reports whether store st writes slot with the value
// load(slot) ± const computed earlier in the same block.
func (p *PDG) isAffineUpdate(blk *ir.Block, st *ir.Instr, slot int) bool {
	def := defInBlock(blk, st, st.A)
	if def == nil || def.Op != ir.OpBin || (def.BinOp != "+" && def.BinOp != "-") {
		return false
	}
	a := defInBlock(blk, def, def.A)
	b := defInBlock(blk, def, def.B)
	isLoad := func(in *ir.Instr) bool {
		return in != nil && in.Op == ir.OpLoadLocal && in.Slot == slot
	}
	isConst := func(in *ir.Instr) bool { return in != nil && in.Op == ir.OpConst }
	return (isLoad(a) && isConst(b)) || (def.BinOp == "+" && isConst(a) && isLoad(b))
}

// defInBlock finds the defining instruction of register r before instr
// `before` within block blk.
func defInBlock(blk *ir.Block, before *ir.Instr, r int) *ir.Instr {
	var def *ir.Instr
	for _, in := range blk.Instrs {
		if in == before {
			break
		}
		if in.Dst == r {
			def = in
		}
	}
	return def
}

// DefOfReg exposes defInBlock for the dependence analyzer: it finds the
// in-block definition of register r before instruction `before`.
func (p *PDG) DefOfReg(before *ir.Instr, r int) *ir.Instr {
	blk := p.F.BlockByID(p.BlockOf[before.ID])
	return defInBlock(blk, before, r)
}

// RMWSlots returns the slots a region call both reads (through an argument
// loaded from the slot) and writes (through OutSlots) — the shared
// read-modify-write accumulators that must live in shared storage under
// parallel execution. Write-only outputs are per-iteration dataflow and
// stay private.
func (p *PDG) RMWSlots(call *ir.Instr) []int {
	if call.Op != ir.OpCall || len(call.OutSlots) == 0 {
		return nil
	}
	argSlots := map[int]bool{}
	for _, ld := range p.F.BlockByID(p.BlockOf[call.ID]).ArgLoads(call) {
		if ld != nil {
			argSlots[ld.Slot] = true
		}
	}
	var rmw []int
	for _, s := range call.OutSlots {
		if argSlots[s] {
			rmw = append(rmw, s)
		}
	}
	return rmw
}

// --- register dependences ---

func (p *PDG) addRegEdges() {
	for _, bid := range p.Loop.BlockIDs() {
		blk := p.F.BlockByID(bid)
		lastDef := map[int]*ir.Instr{}
		for _, in := range blk.Instrs {
			for _, r := range regUses(in) {
				if def := lastDef[r]; def != nil {
					p.addEdge(Edge{From: def.ID, To: in.ID, Kind: DepRegFlow, Loc: fmt.Sprintf("r%d", r)})
				}
			}
			if in.Dst >= 0 {
				lastDef[in.Dst] = in
			}
		}
	}
}

func regUses(in *ir.Instr) []int {
	var uses []int
	switch in.Op {
	case ir.OpStoreLocal, ir.OpStoreGlobal, ir.OpUn:
		uses = append(uses, in.A)
	case ir.OpCondBr:
		uses = append(uses, in.A)
	case ir.OpBin:
		uses = append(uses, in.A, in.B)
	case ir.OpCall, ir.OpRet:
		uses = append(uses, in.Args...)
	}
	return uses
}

// --- intra-iteration reachability ---

// intraReach computes block-level reachability within the loop ignoring
// back edges into the header (the "iteration body" DAG).
func (p *PDG) intraReach() map[int]map[int]bool {
	reach := map[int]map[int]bool{}
	for _, b := range p.Loop.BlockIDs() {
		r := map[int]bool{}
		var stack []int
		push := func(s int) {
			if s != p.Loop.Header && p.Loop.Contains(s) && !r[s] {
				r[s] = true
				stack = append(stack, s)
			}
		}
		for _, s := range p.G.Succs[b] {
			push(s)
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range p.G.Succs[x] {
				push(s)
			}
		}
		reach[b] = r
	}
	return reach
}

// canReachIntra reports whether execution can flow from instruction a to
// instruction b within a single iteration.
func canReachIntra(p *PDG, reach map[int]map[int]bool, a, b int) bool {
	ba, bb := p.BlockOf[a], p.BlockOf[b]
	if ba == bb {
		return a < b // IDs are dense in block order
	}
	return reach[ba][bb]
}
