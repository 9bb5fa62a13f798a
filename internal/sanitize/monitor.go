package sanitize

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/builtins"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// Mode selects what the monitor does with the instrumentation stream.
type Mode int

const (
	// Detect (phase 1, parallel runs): vector-clock race detection with
	// commset-aware routing. Conflicting cross-thread accesses whose
	// extents share a commset become oracle candidates; other unordered
	// conflicts become race reports. No state is captured, so the pass
	// is cheap enough to run on every campaign cell.
	Detect Mode = iota
	// Capture (phase 2, parallel runs): an identical deterministic rerun
	// that snapshots the concrete pre-state of the member invocations
	// named by the Detect pass's candidates, then replays each racing
	// pair in both orders offline. It only numbers invocations and
	// records its targets: the race engine stays off.
	Capture
	// VerifyAll (sequential runs): there are no races to observe, so the
	// race engine stays off and the monitor proactively snapshots the
	// first few invocations of every member and pairs all same-set
	// invocations for replay. This is the mode behind commsetvet
	// -sanitize-out / -discharge.
	VerifyAll
)

// SetTag names one commset an extent belongs to. Anonymous SELF sets
// carry their unique "SELF@fn#n" name, so Name alone identifies a set.
type SetTag struct {
	Name string `json:"name"`
	Self bool   `json:"self"`
}

// member is one member function as the detect pass records it: its name
// and commsets, interned once per monitor.
type member struct {
	fn   string
	sets []SetTag
}

// extent is one open member invocation on a thread's stack: its gseq,
// the global member-invocation sequence number, incremented at every
// MemberEnter (because the DES is deterministic, gseq values are stable
// across reruns and serve as capture targets and replay seeds), and, in
// the detect pass, its interned member's index plus one.
type extent struct {
	gseq   int64
	member int32
}

// access is one read or write recorded in a shadow cell: the thread, its
// own clock component at access time (its epoch, at least 1, so 0 marks
// no access), and the innermost member extent it happened under (member
// 0 outside any member).
type access struct {
	clk    int64
	gseq   int64
	member int32
	tid    int32
}

// extent returns the member extent an access happened under.
func (a access) extent() extent { return extent{a.gseq, a.member} }

// shadow is the per-location shadow cell: the last write plus the reads
// since that write, one per thread in the order the threads first read —
// the first in r, the later ones in the monitor's overflow read set
// more-1 (0 for none). raced marks a cell that already has its race
// report (one report per cell). A cell holds no pointer.
type shadow struct {
	w, r  access
	more  int32
	raced bool
	key   cellKey
}

// RaceReport is one unordered conflicting access pair that no common
// commset licenses.
type RaceReport struct {
	Cell         string `json:"cell"`
	Kind         string `json:"kind"` // write-write, write-read, read-write
	FirstThread  int    `json:"first_thread"`
	SecondThread int    `json:"second_thread"`
	FirstExtent  string `json:"first_extent,omitempty"`
	SecondExtent string `json:"second_extent,omitempty"`
}

// Candidate is one observed racing pair routed to the commute oracle: two
// member invocations of a common commset that touched the same location.
// GseqA < GseqB; the replay snapshot is taken at A's entry.
type Candidate struct {
	Set   string `json:"set"`
	FnA   string `json:"fn_a"`
	FnB   string `json:"fn_b"`
	GseqA int64  `json:"gseq_a"`
	GseqB int64  `json:"gseq_b"`
	Cell  string `json:"cell"`
}

// Shadow-cell kinds.
const (
	cellGlobal  = iota // a MiniC global variable
	cellSlot           // a promoted shared frame slot
	cellBuiltin        // a builtin effect location
)

// cellKey identifies a shadow cell: a global by slot, a shared frame
// slot, or an interned builtin effect location with the call's instance
// handle and element key when the declaration names them. cellName
// renders the cell's name, only when a race or candidate records it.
type cellKey struct {
	inst, key       int64
	loc             int32 // global slot, frame slot, or interned location
	kind            int8
	hasInst, hasKey bool
}

// cellName renders a cell's name: g:<global>, cell:<slot>, or the
// builtin effect location with #<handle> and @<key> when specialized.
func (m *Monitor) cellName(k cellKey) string {
	switch k.kind {
	case cellGlobal:
		return "g:" + m.prog.Globals[k.loc].Name
	case cellSlot:
		return "cell:" + strconv.Itoa(int(k.loc))
	}
	s := m.locs[k.loc].name
	if k.hasInst {
		s += "#" + strconv.FormatInt(k.inst, 10)
	}
	if k.hasKey {
		s += "@" + strconv.FormatInt(k.key, 10)
	}
	return s
}

// locCells holds one builtin effect location's shadow cells, each as its
// index plus one (0 for none yet): the cell of the whole location, and
// dense tables of cells by handle and by handle then key. A handle's
// keys are kept in blocks of keyBlockLen consecutive keys, allocated from
// the monitor's paged block store as the handle first touches them, and
// byBoth holds each handle's block indices (plus one). A handle past
// denseHandles or a key past denseKeys (or a negative one), and a key
// without a handle, key their cells in the monitor's far map instead.
type locCells struct {
	loc    int32
	name   string
	whole  int32
	byInst []int32
	byBoth [][denseKeys / keyBlockLen]int32
}

// keyBlock holds the cells of keyBlockLen consecutive keys of one handle.
type keyBlock [keyBlockLen]int32

// Bounds of the dense cell tables: they cover handles below denseHandles
// and keys below denseKeys.
const (
	denseHandles = 1 << 16
	denseKeys    = 1 << 10
	keyBlockLen  = 64
)

// planStep is one shadow-cell access of a builtin call: the location's
// cells, the access kind, and the argument indices that specialize the
// location (-1 when the declaration names none).
type planStep struct {
	cells     *locCells
	write     bool
	inst, key int
}

// plan is one callee's access plan, built on its first traced call.
type plan struct{ steps []planStep }

// candKey deduplicates candidates per (set, unordered member pair).
type candKey struct{ set, f1, f2 string }

// thread is one simulated thread's sanitizer state: its vector clock
// (detect pass only) and its stack of open member extents.
type thread struct {
	clock vclock
	stack []extent
}

// top returns the innermost open extent (member 0 when none is open).
func (t *thread) top() extent {
	if len(t.stack) == 0 {
		return extent{}
	}
	return t.stack[len(t.stack)-1]
}

// tokClock is the push-time clock of one queue push, shared by every
// token of the push until the last of them is popped.
type tokClock struct {
	c    vclock
	refs int
}

// pageBits sizes the pages of the monitor's paged tables (256 entries).
const pageBits = 8

// paged is an append-only table kept in fixed-size pages, so growing it
// never moves or copies what it holds.
type paged[T any] struct{ pages [][]T }

// at returns entry i, adding pages up to it.
func (p *paged[T]) at(i int64) *T {
	for int(i>>pageBits) >= len(p.pages) {
		p.pages = append(p.pages, make([]T, 1<<pageBits))
	}
	return &p.pages[i>>pageBits][i&(1<<pageBits-1)]
}

// grow returns entry i of s, extending s with zero entries to cover it.
func grow[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

const (
	targetArgs = 1 // record arguments and returns only
	targetFull = 2 // also snapshot heap + cells + world at entry
)

// verifyAllSnapCap bounds how many full pre-state snapshots VerifyAll
// takes per member function; later invocations record args only. It also
// bounds how many anchors VerifyAll tries per (set, member pair).
const verifyAllSnapCap = 4

// verifyAllScanCap bounds the number of member invocations VerifyAll
// considers when pairing, so pathological corpora stay cheap.
const verifyAllScanCap = 2048

// Monitor is the sanitizer core. It implements des.Probe (happens-before
// edges), interp.Tracer (global and builtin accesses), and the member and
// shared-cell hooks called by exec. All exported hook methods are
// nil-safe so the executor can call them unconditionally. A monitor
// observes runs of the program it was built over: the tracer names
// globals by slot and builtins by callee index in that program.
//
// Only the detect pass runs the race engine — vector clocks, shadow cells
// and member extents. A capture or VerifyAll monitor numbers member
// invocations, keeps each thread's extent stack and records its targets;
// its probe, tracer and shared-cell hooks return at once, and it reports
// no races and no candidates (nothing reads a capture pass's, and a
// single thread cannot race).
//
// The DES serializes thread goroutines (exactly one runs between
// yields), so the monitor needs no locking and its output is
// deterministic.
//
// The detect pass's per-event hooks build no string, and its shadow
// memory is dense and pointer-light. Clocks and extent stacks are indexed
// by thread ID, and a lock's release clock is overwritten in place.
// Globals, shared frame slots and builtin calls arrive as indices (global
// slot, frame slot, callee index); a callee's access plan is built once,
// and a builtin-effect cell sits in its location's dense table by handle
// and key. Cells and key blocks live in fixed-size pages, and a cell
// holds no pointer. A member extent is its gseq and its interned
// member's index, kept on the thread's stack and in each access, so a
// member call allocates nothing. A cell's name is rendered only when a
// race or candidate records it.
type Monitor struct {
	mode  Mode
	prog  *ir.Program
	world *builtins.World
	eff   effects.Table

	gseq    int64
	threads []*thread

	// The race engine (detect pass only).
	lockC   map[string]*vclock
	tokC    map[int64]*tokClock
	tokFree []*tokClock
	// members are the interned members; memberIdx finds one's index plus
	// one by name, and lastMember is the last one entered.
	members    []member
	memberIdx  map[string]int32
	lastMember int32
	cells      paged[shadow] // by cell index
	ncells     int32
	blocks     paged[keyBlock] // key blocks of locCells.byBoth
	nblocks    int32
	// reads are the overflow read sets of the cells read by more than
	// one thread since their last write.
	reads [][]access
	// Interned cells, each as its index plus one: globals by slot and
	// shared frame slots densely, builtin-effect cells through each
	// callee's plan into its locations' tables, or in far.
	globals  []int32
	slots    []int32
	plans    []*plan // by callee index
	locs     []*locCells
	locIndex map[effects.Loc]int32
	far      map[cellKey]int32

	races []RaceReport

	candSeen map[candKey]bool
	cands    []Candidate

	// Recording (capture and VerifyAll passes).
	targets   map[int64]int
	invs      map[int64]*Invocation
	snapCount map[string]int
}

// New builds a monitor over prog and the live world of the run being
// instrumented. The world pointer is used to clone pre-states at capture
// time; the effect table routes builtin calls to shadow cells.
func New(mode Mode, prog *ir.Program, world *builtins.World) *Monitor {
	return &Monitor{
		mode:      mode,
		prog:      prog,
		world:     world,
		eff:       world.EffectTable(),
		lockC:     map[string]*vclock{},
		tokC:      map[int64]*tokClock{},
		memberIdx: map[string]int32{},
		locIndex:  map[effects.Loc]int32{},
		far:       map[cellKey]int32{},
		candSeen:  map[candKey]bool{},
		targets:   map[int64]int{},
		invs:      map[int64]*Invocation{},
		snapCount: map[string]int{},
	}
}

// NewCapture builds a phase-2 monitor that snapshots the invocations
// named by cands (produced by a Detect-mode run of the same cell).
func NewCapture(prog *ir.Program, world *builtins.World, cands []Candidate) *Monitor {
	m := New(Capture, prog, world)
	for _, c := range cands {
		m.targets[c.GseqA] = targetFull
		if m.targets[c.GseqB] == 0 {
			m.targets[c.GseqB] = targetArgs
		}
	}
	return m
}

// Races returns the race reports accumulated so far.
func (m *Monitor) Races() []RaceReport {
	if m == nil {
		return nil
	}
	return m.races
}

// Candidates returns the oracle candidates accumulated so far, one per
// (set, unordered member pair).
func (m *Monitor) Candidates() []Candidate {
	if m == nil {
		return nil
	}
	return m.cands
}

// detects reports whether m runs the race engine: a non-nil detect-pass
// monitor.
func (m *Monitor) detects() bool { return m != nil && m.mode == Detect }

// thread returns tid's state, creating it on first use.
func (m *Monitor) thread(tid int) *thread {
	t := grow(&m.threads, tid)
	if *t == nil {
		*t = &thread{}
		if m.mode == Detect {
			(*t).clock = newClock(tid)
		}
	}
	return *t
}

// ---- des.Probe ----

// ThreadSpawned adds the parent→child happens-before edge.
func (m *Monitor) ThreadSpawned(parent, child int) {
	if !m.detects() {
		return
	}
	ct := m.thread(child)
	if parent >= 0 {
		pt := m.thread(parent)
		ct.clock.join(pt.clock)
		pt.clock.tick(parent)
	}
}

// LockAcquired joins the lock's release clock into the acquirer. TM
// commits ride on this edge too: the TM executor serializes commits
// through spin locks.
func (m *Monitor) LockAcquired(tid int, lock string) {
	if !m.detects() {
		return
	}
	if lc := m.lockC[lock]; lc != nil {
		m.thread(tid).clock.join(*lc)
	}
}

// LockReleased copies the releaser's clock into the lock's release clock,
// overwriting the previous release in place, and ticks.
func (m *Monitor) LockReleased(tid int, lock string) {
	if !m.detects() {
		return
	}
	t := m.thread(tid)
	lc := m.lockC[lock]
	if lc == nil {
		lc = new(vclock)
		m.lockC[lock] = lc
	}
	lc.assign(t.clock)
	t.clock.tick(tid)
}

// QueuePushed records the pusher's clock per token; QueuePopped joins it
// into the popper. Pipeline stage joins and DOALL worker joins are
// queue messages, so join edges are covered here. The tokens of one
// batched push share one push-time clock, recycled once every one of
// them has been popped.
func (m *Monitor) QueuePushed(tid int, queue string, seqs []int64) {
	if !m.detects() || len(seqs) == 0 {
		return
	}
	t := m.thread(tid)
	var tc *tokClock
	if n := len(m.tokFree); n > 0 {
		tc = m.tokFree[n-1]
		m.tokFree = m.tokFree[:n-1]
	} else {
		tc = &tokClock{}
	}
	tc.c.assign(t.clock)
	tc.refs = len(seqs)
	for _, s := range seqs {
		m.tokC[s] = tc
	}
	t.clock.tick(tid)
}

// QueuePopped joins each popped token's push-time clock into the popper.
func (m *Monitor) QueuePopped(tid int, queue string, seqs []int64) {
	if !m.detects() {
		return
	}
	t := m.thread(tid)
	for _, s := range seqs {
		tc := m.tokC[s]
		if tc == nil {
			continue
		}
		t.clock.join(tc.c)
		delete(m.tokC, s)
		if tc.refs--; tc.refs == 0 {
			m.tokFree = append(m.tokFree, tc)
		}
	}
}

// ---- interp.Tracer ----

// TraceGlobal records an access of the global in slot (its index in
// the program's Globals).
func (m *Monitor) TraceGlobal(tid, slot int, write bool) {
	if !m.detects() {
		return
	}
	m.access(tid, m.denseCell(&m.globals, slot, cellKey{kind: cellGlobal, loc: int32(slot)}), write)
}

// TraceBuiltin expands a call of the builtin at callee index callee into
// shadow-cell accesses using its effect declaration, specializing
// locations by instance handle and element key where the declaration
// names the argument, so bitmap_set(bm, 3) and bitmap_set(bm, 4) land in
// distinct shadow cells. Locations the call allocates are skipped: the
// result is fresh by construction, and the allocator bump commutes under
// handle renaming (the same freshness reasoning the static passes use).
func (m *Monitor) TraceBuiltin(tid, callee int, args []value.Value) {
	if !m.detects() {
		return
	}
	p := grow(&m.plans, callee)
	if *p == nil {
		*p = &plan{steps: m.buildPlan(interp.Callees(m.prog)[callee])}
	}
	for i := range (*p).steps {
		s := &(*p).steps[i]
		m.access(tid, m.builtinCell(s, args), s.write)
	}
}

// buildPlan turns a builtin's effect declaration into its access plan:
// every written location the call does not allocate, then every read
// location it neither writes nor allocates, each with the argument
// indices that specialize it. The handle and key arguments of every
// instanced or keyed builtin are ints by signature, so the plan keys
// cells by the arguments' integer payloads.
func (m *Monitor) buildPlan(name string) []planStep {
	d, ok := m.eff[name]
	if !ok {
		return nil
	}
	fresh := map[effects.Loc]bool{}
	for _, loc := range d.Allocates {
		fresh[loc] = true
	}
	written := map[effects.Loc]bool{}
	var plan []planStep
	step := func(loc effects.Loc, write bool) {
		s := planStep{cells: m.locCells(loc), write: write, inst: -1, key: -1}
		if i, ok := d.InstanceBy[loc]; ok {
			s.inst = i
		}
		if i, ok := d.KeyedBy[loc]; ok {
			s.key = i
		}
		plan = append(plan, s)
	}
	for _, loc := range d.Writes {
		written[loc] = true
		if !fresh[loc] {
			step(loc, true)
		}
	}
	for _, loc := range d.Reads {
		if !written[loc] && !fresh[loc] {
			step(loc, false)
		}
	}
	return plan
}

// locCells returns the cell tables of a builtin effect location,
// interning the location on first use.
func (m *Monitor) locCells(loc effects.Loc) *locCells {
	i, ok := m.locIndex[loc]
	if !ok {
		i = int32(len(m.locs))
		m.locIndex[loc] = i
		m.locs = append(m.locs, &locCells{loc: i, name: string(loc)})
	}
	return m.locs[i]
}

// builtinCell returns the cell one plan step of a call accesses, creating
// it on first use.
func (m *Monitor) builtinCell(s *planStep, args []value.Value) int32 {
	lc := s.cells
	k := cellKey{kind: cellBuiltin, loc: lc.loc}
	if s.inst >= 0 && s.inst < len(args) {
		k.inst, k.hasInst = args[s.inst].I, true
	}
	if s.key >= 0 && s.key < len(args) {
		k.key, k.hasKey = args[s.key].I, true
	}
	var slot *int32
	switch {
	case !k.hasInst && !k.hasKey:
		slot = &lc.whole
	case !k.hasInst || k.inst < 0 || k.inst >= denseHandles:
		// A key without a handle (no builtin declares one) or a handle
		// past the dense tables.
	case !k.hasKey:
		slot = grow(&lc.byInst, int(k.inst))
	case k.key >= 0 && k.key < denseKeys:
		b := &grow(&lc.byBoth, int(k.inst))[k.key/keyBlockLen]
		if *b == 0 {
			m.nblocks++
			*b = m.nblocks
		}
		slot = &m.blocks.at(int64(*b - 1))[k.key%keyBlockLen]
	}
	if slot == nil {
		ci, ok := m.far[k]
		if !ok {
			ci = m.newCell(k)
			m.far[k] = ci
		}
		return ci
	}
	if *slot == 0 {
		*slot = m.newCell(k) + 1
	}
	return *slot - 1
}

// denseCell returns the cell at entry i of a dense table, creating the
// cell with key k on first use.
func (m *Monitor) denseCell(t *[]int32, i int, k cellKey) int32 {
	p := grow(t, i)
	if *p == 0 {
		*p = m.newCell(k) + 1
	}
	return *p - 1
}

// ---- exec hooks ----

// Cell records a promoted-shared-frame-slot access.
func (m *Monitor) Cell(tid int, slot int, write bool) {
	if !m.detects() {
		return
	}
	m.access(tid, m.denseCell(&m.slots, slot, cellKey{kind: cellSlot, loc: int32(slot)}), write)
}

// MemberEnter opens a member extent on tid's stack and, depending on
// mode, records the invocation: args always when targeted, plus a full
// pre-state snapshot (heap, shared cells, world clone) for replay
// anchors. snap supplies the executor-side state (globals map and
// shared-cell values) without the monitor reaching into exec; it is
// called, if at all, before MemberEnter returns. The detect pass records
// only the extent.
func (m *Monitor) MemberEnter(tid int, fn string, sets []SetTag, args []value.Value,
	argSlots, outSlots map[int]int, snap func() (map[string]value.Value, map[int]value.Value)) {
	if m == nil {
		return
	}
	g := m.gseq
	m.gseq++
	t := m.thread(tid)
	if m.mode == Detect {
		t.stack = append(t.stack, extent{g, m.intern(fn, sets)})
		return
	}
	t.stack = append(t.stack, extent{gseq: g})

	kind := 0
	switch m.mode {
	case Capture:
		kind = m.targets[g]
	case VerifyAll:
		kind = targetArgs
		if m.snapCount[fn] < verifyAllSnapCap {
			kind = targetFull
			m.snapCount[fn]++
		}
	}
	if kind == 0 {
		return
	}
	inv := &Invocation{
		Gseq:     g,
		Fn:       fn,
		Sets:     append([]SetTag(nil), sets...),
		Args:     append([]value.Value(nil), args...),
		ArgSlots: copySlots(argSlots),
		OutSlots: copySlots(outSlots),
	}
	if kind == targetFull {
		var heap map[string]value.Value
		var cells map[int]value.Value
		if snap != nil {
			heap, cells = snap()
		}
		inv.Pre = &Snapshot{
			Heap:  heap,
			Cells: cells,
			World: m.world.Clone(),
			Base:  m.world.Baseline(),
		}
	}
	m.invs[g] = inv
}

// MemberExit closes tid's innermost member extent and records the
// invocation's results when it was targeted.
func (m *Monitor) MemberExit(tid int, rets []value.Value, err error) {
	if m == nil {
		return
	}
	t := m.thread(tid)
	n := len(t.stack)
	if n == 0 {
		return
	}
	g := t.stack[n-1].gseq
	t.stack = t.stack[:n-1]
	if m.mode == Detect {
		return
	}
	if inv := m.invs[g]; inv != nil {
		inv.Rets = append([]value.Value(nil), rets...)
		if err != nil {
			inv.Err = err.Error()
		}
	}
}

// intern returns the index plus one of member fn with sets, interning
// it on first use. A member entered again right away is found without a
// lookup.
func (m *Monitor) intern(fn string, sets []SetTag) int32 {
	if i := m.lastMember; i > 0 && m.members[i-1].is(fn, sets) {
		return i
	}
	i := m.memberIdx[fn]
	if i == 0 || !m.members[i-1].is(fn, sets) {
		// A name entered with other sets than before is a member of its own.
		i = int32(slices.IndexFunc(m.members, func(mb member) bool { return mb.is(fn, sets) }) + 1)
		if i == 0 {
			m.members = append(m.members, member{fn, sets})
			i = int32(len(m.members))
			if m.memberIdx[fn] == 0 {
				m.memberIdx[fn] = i
			}
		}
	}
	m.lastMember = i
	return i
}

func (mb member) is(fn string, sets []SetTag) bool {
	return mb.fn == fn && slices.Equal(mb.sets, sets)
}

func copySlots(s map[int]int) map[int]int {
	if len(s) == 0 {
		return nil
	}
	out := make(map[int]int, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// ---- shadow-cell engine ----

// newCell adds a shadow cell and returns its index.
func (m *Monitor) newCell(k cellKey) int32 {
	ci := m.ncells
	m.ncells++
	*m.cells.at(int64(ci)) = shadow{key: k}
	return ci
}

func (m *Monitor) access(tid int, ci int32, write bool) {
	t := m.thread(tid)
	c := m.cells.at(int64(ci))
	top := t.top()
	acc := access{clk: t.clock.get(tid), gseq: top.gseq, member: top.member, tid: int32(tid)}
	if write {
		if c.w.clk != 0 && c.w.tid != acc.tid {
			m.conflict(c, c.w, acc, "write-write")
		}
		if c.r.clk != 0 && c.r.tid != acc.tid {
			m.conflict(c, c.r, acc, "read-write")
		}
		if c.more != 0 {
			for _, r := range m.reads[c.more-1] {
				if r.tid != acc.tid {
					m.conflict(c, r, acc, "read-write")
				}
			}
			m.reads[c.more-1] = m.reads[c.more-1][:0]
		}
		c.w, c.r = acc, access{}
		return
	}
	if c.w.clk != 0 && c.w.tid != acc.tid {
		m.conflict(c, c.w, acc, "write-read")
	}
	if c.r.clk == 0 || c.r.tid == acc.tid {
		c.r = acc
		return
	}
	if c.more == 0 {
		m.reads = append(m.reads, nil)
		c.more = int32(len(m.reads))
	}
	rs := m.reads[c.more-1]
	for i := range rs {
		if rs[i].tid == acc.tid {
			rs[i] = acc
			return
		}
	}
	m.reads[c.more-1] = append(rs, acc)
}

// conflict routes one cross-thread conflicting pair. If both extents
// share a commset the pair becomes an oracle candidate regardless of
// happens-before order: the set lock serializes every such pair, and the
// annotation's claim is exactly that the serialization order does not
// matter — which is the obligation the replay checks. Everything else is
// a race unless ordered by the vector clocks.
func (m *Monitor) conflict(c *shadow, prev, cur access, kind string) {
	if set := m.commonSet(prev.member, cur.member); set != "" {
		m.candidate(set, prev.extent(), cur.extent(), c)
		return
	}
	if prev.clk <= m.thread(int(cur.tid)).clock.get(int(prev.tid)) {
		return // ordered: prev happens-before cur
	}
	m.race(c, prev, cur, kind)
}

// commonSet returns the first commset two members (indices plus one)
// share, "" when either access happened outside any member.
func (m *Monitor) commonSet(a, b int32) string {
	if a == 0 || b == 0 {
		return ""
	}
	for _, sa := range m.members[a-1].sets {
		for _, sb := range m.members[b-1].sets {
			if sa.Name == sb.Name {
				return sa.Name
			}
		}
	}
	return ""
}

// candidate records one oracle candidate, deduplicated to the first
// observed pair per (set, unordered member pair): one dynamic witness
// discharges one static pair obligation, and deduping keeps the capture
// phase O(#pairs) instead of O(#invocations²).
func (m *Monitor) candidate(set string, a, b extent, c *shadow) {
	if a.gseq == b.gseq {
		return
	}
	if a.gseq > b.gseq {
		a, b = b, a
	}
	fa, fb := m.members[a.member-1].fn, m.members[b.member-1].fn
	f1, f2 := fa, fb
	if f1 > f2 {
		f1, f2 = f2, f1
	}
	key := candKey{set, f1, f2}
	if m.candSeen[key] {
		return
	}
	m.candSeen[key] = true
	m.cands = append(m.cands, Candidate{
		Set: set, FnA: fa, FnB: fb, GseqA: a.gseq, GseqB: b.gseq, Cell: m.cellName(c.key),
	})
}

func (m *Monitor) race(c *shadow, prev, cur access, kind string) {
	if c.raced {
		return
	}
	c.raced = true
	m.races = append(m.races, RaceReport{
		Cell:         m.cellName(c.key),
		Kind:         kind,
		FirstThread:  int(prev.tid),
		SecondThread: int(cur.tid),
		FirstExtent:  m.extentLabel(prev.extent()),
		SecondExtent: m.extentLabel(cur.extent()),
	})
}

// extentLabel renders a member extent (fn#gseq), "" for none.
func (m *Monitor) extentLabel(e extent) string {
	if e.member == 0 {
		return ""
	}
	return fmt.Sprintf("%s#%d", m.members[e.member-1].fn, e.gseq)
}

// VerifyPairs (VerifyAll mode) pairs every same-set member invocation
// combination — same-member pairs only for self sets, distinct-member
// pairs for group sets, mirroring the static verifier's obligations —
// deduplicated per (set, unordered pair), and replays each from the
// earlier invocation's snapshot. replayCmd renders the deterministic
// repro command for a candidate.
//
// A pair can fail to replay where a later pair of the same members would
// not: the later call may use a handle opened after the snapshot, or both
// calls may be one loop iteration, which the set's predicate excludes.
// And a pair can commute by accident where a later pair does not (an
// update that adds 0). So until a replay finds a violation, VerifyPairs
// tries the same member pair again at each later anchor that has a
// snapshot, with that anchor's first partner, up to verifyAllSnapCap
// attempts per pair. A violation replaces any verdict; a verified one
// replaces only an inconclusive one.
func (m *Monitor) VerifyPairs(replayCmd func(Candidate) string) []PairVerdict {
	if m == nil {
		return nil
	}
	gseqs := make([]int64, 0, len(m.invs))
	for g := range m.invs {
		gseqs = append(gseqs, g)
	}
	sort.Slice(gseqs, func(i, j int) bool { return gseqs[i] < gseqs[j] })
	if len(gseqs) > verifyAllScanCap {
		gseqs = gseqs[:verifyAllScanCap]
	}
	// tried is one member pair's replay state: its verdict's index, the
	// last anchor tried, and the attempts so far.
	type tried struct {
		at       int
		anchor   int64
		attempts int
	}
	pairs := map[candKey]*tried{}
	var verdicts []PairVerdict
	for i, ga := range gseqs {
		a := m.invs[ga]
		if a.Pre == nil {
			continue // replay anchors at the earlier invocation's snapshot
		}
		for _, gb := range gseqs[i+1:] {
			b := m.invs[gb]
			set := pairSet(a, b)
			if set == "" {
				continue
			}
			f1, f2 := a.Fn, b.Fn
			if f1 > f2 {
				f1, f2 = f2, f1
			}
			key := candKey{set, f1, f2}
			t := pairs[key]
			if t != nil && (t.anchor == ga || t.attempts >= verifyAllSnapCap ||
				verdicts[t.at].Verdict == VerdictViolation) {
				continue
			}
			c := Candidate{Set: set, FnA: a.Fn, FnB: b.Fn, GseqA: a.Gseq, GseqB: b.Gseq}
			v := m.replayPair(c, a, b, replayCmd(c))
			if t == nil {
				pairs[key] = &tried{at: len(verdicts), anchor: ga, attempts: 1}
				verdicts = append(verdicts, v)
				continue
			}
			t.anchor, t.attempts = ga, t.attempts+1
			if v.Verdict == VerdictViolation ||
				v.Verdict == VerdictVerified && verdicts[t.at].Verdict == VerdictInconclusive {
				verdicts[t.at] = v
			}
		}
	}
	return verdicts
}

// pairSet returns the first commset both invocations belong to that
// claims the pair commutes: self sets claim same-member pairs, group
// sets claim distinct-member pairs.
func pairSet(a, b *Invocation) string {
	for _, sa := range a.Sets {
		for _, sb := range b.Sets {
			if sa.Name != sb.Name {
				continue
			}
			if a.Fn == b.Fn && !sa.Self {
				continue
			}
			return sa.Name
		}
	}
	return ""
}

// ReplayCandidates (Capture mode) replays every candidate whose pre-state
// was captured this run.
func (m *Monitor) ReplayCandidates(cands []Candidate, replayCmd func(Candidate) string) []PairVerdict {
	if m == nil {
		return nil
	}
	var verdicts []PairVerdict
	for _, c := range cands {
		a, b := m.invs[c.GseqA], m.invs[c.GseqB]
		v := PairVerdict{
			Set: c.Set, FnA: c.FnA, FnB: c.FnB,
			GseqA: c.GseqA, GseqB: c.GseqB, Cell: c.Cell,
			Replay: replayCmd(c),
		}
		switch {
		case a == nil || b == nil:
			v.Verdict = VerdictInconclusive
			v.Note = "candidate invocations not observed in capture rerun"
		case a.Pre == nil:
			v.Verdict = VerdictInconclusive
			v.Note = "pre-state snapshot missing"
		default:
			v = m.replayPair(c, a, b, v.Replay)
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}
