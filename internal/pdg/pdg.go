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
//
// The graph is dense. Build reads the function's cfg.Flow, shared by every
// loop of the function, and fills slices indexed by instruction ID or slot
// (instruction IDs are dense per function). The edges live in one backing
// array in insertion order, deduplicated as they are added through an
// open-addressing table of edge indexes. Intra-iteration reachability and
// the upward-exposed-load dataflow are bit matrices over the loop's blocks
// and the slots. Scratch tables span the loop, not the whole function.
package pdg

import (
	"slices"
	"strconv"

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

// PDG is the dependence graph of one loop. Its tables are indexed by
// instruction ID (dense per function) or by local slot, and are complete
// once Build returns: readers may share a PDG without synchronization.
type PDG struct {
	F    *ir.Func
	Loop *cfg.Loop
	// Flow is the control-flow context of F, shared with every other loop
	// analysis of F.
	Flow *cfg.Flow

	Nodes []int // sorted instruction IDs within the loop
	// Edges lists the edges in insertion order; they point into one
	// backing array.
	Edges []*Edge
	// Instrs maps an instruction ID to the instruction, nil outside the
	// loop.
	Instrs []*ir.Instr
	// BlockOf maps every instruction ID of F to its block ID.
	BlockOf []int

	// IVSlots marks, by local slot, the induction-variable slots of this
	// loop.
	IVSlots []bool
}

// builder holds the scratch state of one Build.
type builder struct {
	*PDG
	edges []Edge
	// lids[i] is edges[i]'s location ID. slots is an open-addressing hash
	// table of edge indexes (-1: empty), keyed by the edge's identity
	// (From, To, Kind, LoopCarried and location ID); it deduplicates the
	// edges as they are added.
	lids  []int32
	slots []int32
	// locs interns shared-memory locations: an edge's location ID is its
	// index.
	locs []string
	// reach is the intra-iteration block reachability of the loop (see
	// intraReach).
	reach bitMatrix
}

// Build constructs the PDG for loop in f, whose control-flow context is
// flow. summary supplies call effects. control, when non-nil, marks by
// instruction ID the loop's condition and post-increment groups: only
// slots updated there qualify as privatizable induction variables (the
// executors recompute control state per iteration; a counter updated in
// the body is a genuine loop-carried dependence).
func Build(f *ir.Func, loop *cfg.Loop, flow *cfg.Flow, summary *effects.Summary, control []bool) *PDG {
	n := f.NumInstrs()
	b := &builder{PDG: &PDG{
		F: f, Loop: loop, Flow: flow,
		Instrs:  make([]*ir.Instr, n),
		BlockOf: flow.BlockOf,
		IVSlots: make([]bool, len(f.Locals)),
	}}
	for _, bid := range loop.Blocks {
		for _, in := range f.BlockByID(bid).Instrs {
			b.Nodes = append(b.Nodes, in.ID)
			b.Instrs[in.ID] = in
		}
	}
	// Blocks are visited in ascending ID order and IDs are dense in block
	// order, so Nodes is already sorted.
	b.edges = make([]Edge, 0, 4*len(b.Nodes))
	b.lids = make([]int32, 0, 4*len(b.Nodes))
	b.growSlots(8 * len(b.Nodes))
	b.reach = b.intraReach()

	b.detectIVs(control)
	b.addRegEdges()
	b.addLocalMemEdges()
	b.addSharedMemEdges(summary)
	b.addControlEdges()
	b.Edges = make([]*Edge, len(b.edges))
	for i := range b.edges {
		b.Edges[i] = &b.edges[i]
	}
	return b.PDG
}

// addEdge appends e unless an edge with the same identity exists. locID
// is e.Loc's integer form: a register number for register edges, -1-slot
// for local-slot edges, an index of builder.locs for shared-memory edges
// and 0 for control edges; register, memory and control edges never share
// a kind, so within a kind equal IDs mean equal locations.
func (b *builder) addEdge(e Edge, locID int) {
	if 2*len(b.edges) >= len(b.slots) {
		b.growSlots(2 * len(b.slots))
	}
	lid := int32(locID)
	mask := len(b.slots) - 1
	for i := edgeHash(e.From, e.To, lid) & mask; ; i = (i + 1) & mask {
		j := b.slots[i]
		if j < 0 {
			b.slots[i] = int32(len(b.edges))
			b.lids = append(b.lids, lid)
			b.edges = append(b.edges, e)
			return
		}
		if x := &b.edges[j]; x.From == e.From && x.To == e.To && x.Kind == e.Kind && x.LoopCarried == e.LoopCarried && b.lids[j] == lid {
			return
		}
	}
}

// edgeHash mixes an edge's endpoints and location ID; edges differing only
// in kind or loop-carried flag share a probe sequence.
func edgeHash(from, to int, lid int32) int {
	h := (uint64(from)<<32 ^ uint64(to) ^ uint64(uint32(lid))<<16) * 0x9E3779B97F4A7C15
	return int(h >> 33)
}

// growSlots rebuilds the dedup table with at least n slots, a power of two.
func (b *builder) growSlots(n int) {
	size := 16
	for size < n {
		size *= 2
	}
	b.slots = make([]int32, size)
	for i := range b.slots {
		b.slots[i] = -1
	}
	mask := size - 1
	for j := range b.edges {
		e := &b.edges[j]
		i := edgeHash(e.From, e.To, b.lids[j]) & mask
		for b.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		b.slots[i] = int32(j)
	}
}

// memLoc interns a shared-memory location, returning its ID.
func (b *builder) memLoc(loc string) int {
	for i, l := range b.locs {
		if l == loc {
			return i
		}
	}
	b.locs = append(b.locs, loc)
	return len(b.locs) - 1
}

// --- induction variables ---

// detectIVs finds slots whose only store within the loop writes
// load(slot) ± const, computed in the same block (the canonical post
// increment produced by the lowerer).
func (b *builder) detectIVs(control []bool) {
	// store[slot] is the slot's only in-loop store; stores counts them, a
	// region write counting as disqualifying.
	store := make([]*ir.Instr, len(b.F.Locals))
	stores := make([]int, len(b.F.Locals))
	for _, id := range b.Nodes {
		in := b.Instrs[id]
		if in.Op == ir.OpStoreLocal {
			store[in.Slot] = in
			stores[in.Slot]++
		}
		if in.Op == ir.OpCall {
			for _, s := range in.OutSlots {
				stores[s] = 2
			}
		}
	}
	for slot, st := range store {
		if stores[slot] != 1 {
			continue
		}
		if control != nil && !control[st.ID] {
			continue
		}
		blk := b.F.BlockByID(b.BlockOf[st.ID])
		if isAffineUpdate(blk, st, slot) {
			b.IVSlots[slot] = true
		}
	}
}

// isAffineUpdate reports whether store st writes slot with the value
// load(slot) ± const computed earlier in the same block.
func isAffineUpdate(blk *ir.Block, st *ir.Instr, slot int) bool {
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
	loads := p.F.BlockByID(p.BlockOf[call.ID]).ArgLoads(call)
	var rmw []int
	for _, s := range call.OutSlots {
		for _, ld := range loads {
			if ld != nil && ld.Slot == s {
				rmw = append(rmw, s)
				break
			}
		}
	}
	return rmw
}

// --- register dependences ---

// regLocs holds the location strings of the first registers, so register
// edges need not format one each.
var regLocs = func() []string {
	locs := make([]string, 256)
	for r := range locs {
		locs[r] = "r" + strconv.Itoa(r)
	}
	return locs
}()

func regLoc(r int) string {
	if r < len(regLocs) {
		return regLocs[r]
	}
	return "r" + strconv.Itoa(r)
}

func (b *builder) addRegEdges() {
	// The registers the loop reads lie in [lo, hi]; definitions of others
	// are never looked up.
	lo, hi := b.F.NumRegs, -1
	var buf [2]int
	for _, id := range b.Nodes {
		for _, r := range regUses(b.Instrs[id], buf[:0]) {
			lo, hi = min(lo, r), max(hi, r)
		}
	}
	if hi < lo {
		return
	}
	read := func(r int) bool { return r >= lo && r <= hi }
	// lastDef[r-lo] is the latest definition of register r in the current
	// block; registers are block-local, so entries of earlier blocks are
	// cleared as each block ends.
	lastDef := make([]*ir.Instr, hi-lo+1)
	for _, bid := range b.Loop.Blocks {
		blk := b.F.BlockByID(bid)
		for _, in := range blk.Instrs {
			for _, r := range regUses(in, buf[:0]) {
				if def := lastDef[r-lo]; def != nil {
					b.addEdge(Edge{From: def.ID, To: in.ID, Kind: DepRegFlow, Loc: regLoc(r)}, r)
				}
			}
			if read(in.Dst) {
				lastDef[in.Dst-lo] = in
			}
		}
		for _, in := range blk.Instrs {
			if read(in.Dst) {
				lastDef[in.Dst-lo] = nil
			}
		}
	}
}

// regUses returns the registers in reads, appending operands to buf.
func regUses(in *ir.Instr, buf []int) []int {
	switch in.Op {
	case ir.OpStoreLocal, ir.OpStoreGlobal, ir.OpUn, ir.OpCondBr:
		return append(buf, in.A)
	case ir.OpBin:
		return append(buf, in.A, in.B)
	case ir.OpCall, ir.OpRet:
		return in.Args
	}
	return nil
}

// --- intra-iteration reachability ---

// bitMatrix is a bit matrix over small dense indexes, one row of words
// per index.
type bitMatrix struct {
	words int
	bits  []uint64
}

func newBitMatrix(rows, cols int) bitMatrix {
	w := (cols + 63) / 64
	return bitMatrix{words: w, bits: make([]uint64, rows*w)}
}

func (m bitMatrix) row(i int) []uint64 { return m.bits[i*m.words : (i+1)*m.words] }

func (m bitMatrix) has(i, j int) bool { return m.bits[i*m.words+j/64]&(1<<(j%64)) != 0 }

func (m bitMatrix) set(i, j int) { m.bits[i*m.words+j/64] |= 1 << (j % 64) }

// loopIndex returns the index of loop block x in Loop.Blocks, the row and
// column of x in the loop's block matrices.
func (b *builder) loopIndex(x int) int {
	i, _ := slices.BinarySearch(b.Loop.Blocks, x)
	return i
}

// intraReach computes block-level reachability within the loop ignoring
// back edges into the header (the "iteration body" DAG): row i holds the
// loop blocks reachable from the loop's i-th block, by loop index.
func (b *builder) intraReach() bitMatrix {
	nl := len(b.Loop.Blocks)
	reach := newBitMatrix(nl, nl)
	succs := b.Flow.G.Succs
	var stack []int
	for i, x := range b.Loop.Blocks {
		push := func(s int) {
			if s == b.Loop.Header || !b.Loop.Contains(s) {
				return
			}
			if j := b.loopIndex(s); !reach.has(i, j) {
				reach.set(i, j)
				stack = append(stack, s)
			}
		}
		for _, s := range succs[x] {
			push(s)
		}
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range succs[y] {
				push(s)
			}
		}
	}
	return reach
}

// canReachIntra reports whether execution can flow from instruction a to
// instruction b within a single iteration.
func (b *builder) canReachIntra(x, y int) bool {
	bx, by := b.BlockOf[x], b.BlockOf[y]
	if bx == by {
		return x < y // IDs are dense in block order
	}
	return b.reach.has(b.loopIndex(bx), b.loopIndex(by))
}
