package sanitize

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/builtins"
	"repro/internal/effects"
	"repro/internal/ir"
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
	// pair in both orders offline.
	Capture
	// VerifyAll (sequential runs): there are no races to observe, so the
	// monitor proactively snapshots the first few invocations of every
	// member and pairs all same-set invocations for replay. This is the
	// mode behind commsetvet -sanitize-out / -discharge.
	VerifyAll
)

// SetTag names one commset an extent belongs to. Anonymous SELF sets
// carry their unique "SELF@fn#n" name, so Name alone identifies a set.
type SetTag struct {
	Name string `json:"name"`
	Self bool   `json:"self"`
}

// extentRef identifies one dynamic member invocation. gseq is the global
// member-invocation sequence number, incremented at every MemberEnter;
// because the DES is deterministic, gseq values are stable across reruns
// and serve as capture targets and replay seeds.
type extentRef struct {
	gseq int64
	fn   string
	sets []SetTag
}

// access is one read or write recorded in a shadow cell: the thread, its
// clock component at access time (its epoch), and the innermost member
// extent it happened under (nil outside any member).
type access struct {
	tid   int
	clk   int64
	ext   *extentRef
	valid bool
}

// shadow is the per-location shadow cell: the last write plus the reads
// since that write (one slot per thread). raced marks a cell that already
// has its race report (one report per cell).
type shadow struct {
	w     access
	reads []access
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

// cellKey identifies a shadow cell: a global by name, a shared frame
// slot, or a builtin effect location with the call's instance handle and
// element key when the declaration names them. String renders the cell's
// name, only when a race or candidate records it.
type cellKey struct {
	kind            int
	loc             string // global name, or the builtin effect location
	slot            int
	inst, key       int64
	hasInst, hasKey bool
}

func (k cellKey) String() string {
	switch k.kind {
	case cellGlobal:
		return "g:" + k.loc
	case cellSlot:
		return "cell:" + strconv.Itoa(k.slot)
	}
	s := k.loc
	if k.hasInst {
		s += "#" + strconv.FormatInt(k.inst, 10)
	}
	if k.hasKey {
		s += "@" + strconv.FormatInt(k.key, 10)
	}
	return s
}

// planStep is one shadow-cell access of a builtin call: the location, the
// access kind, and the argument indices that specialize the location
// (-1 when the declaration names none).
type planStep struct {
	loc       string
	write     bool
	inst, key int
}

// candKey deduplicates candidates per (set, unordered member pair).
type candKey struct{ set, f1, f2 string }

// thread is one simulated thread's sanitizer state: its vector clock and
// its stack of open member extents.
type thread struct {
	clock vclock
	stack []*extentRef
}

func (t *thread) top() *extentRef {
	if len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1]
}

// tokClock is the push-time clock of one queue push, shared by every
// token of the push until the last of them is popped.
type tokClock struct {
	c    vclock
	refs int
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
// nil-safe so the executor can call them unconditionally.
//
// The DES serializes thread goroutines (exactly one runs between
// yields), so the monitor needs no locking and its output is
// deterministic.
//
// Per-event hooks hash no thread ID and build no string: clocks and
// extent stacks are indexed by thread ID, a lock's release clock is
// overwritten in place, and shadow cells are interned once (globals by
// name, shared cells by slot, builtin-effect cells by location, handle
// and key through per-builtin access plans). A cell's name is rendered
// only when a race or candidate records it.
type Monitor struct {
	mode  Mode
	prog  *ir.Program
	world *builtins.World
	eff   effects.Table

	threads []*thread
	lockC   map[string]*vclock
	tokC    map[int64]*tokClock
	tokFree []*tokClock

	gseq  int64
	cells []shadow
	// Interned cells: globals by name, shared slots densely (cell index
	// plus one, 0 for none yet), builtin-effect cells by key.
	globals  map[string]int32
	slots    []int32
	effCells map[cellKey]int32
	plans    map[string][]planStep

	races []RaceReport

	candSeen map[candKey]bool
	cands    []Candidate

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
		globals:   map[string]int32{},
		effCells:  map[cellKey]int32{},
		plans:     map[string][]planStep{},
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

// thread returns tid's state, creating it on first use.
func (m *Monitor) thread(tid int) *thread {
	if tid >= len(m.threads) {
		m.threads = append(m.threads, make([]*thread, tid+1-len(m.threads))...)
	}
	t := m.threads[tid]
	if t == nil {
		t = &thread{clock: newClock(tid)}
		m.threads[tid] = t
	}
	return t
}

// ---- des.Probe ----

// ThreadSpawned adds the parent→child happens-before edge.
func (m *Monitor) ThreadSpawned(parent, child int) {
	if m == nil {
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
	if m == nil {
		return
	}
	if lc := m.lockC[lock]; lc != nil {
		m.thread(tid).clock.join(*lc)
	}
}

// LockReleased copies the releaser's clock into the lock's release clock,
// overwriting the previous release in place, and ticks.
func (m *Monitor) LockReleased(tid int, lock string) {
	if m == nil {
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
	if m == nil || len(seqs) == 0 {
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
	if m == nil {
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

// TraceGlobal records a global variable access.
func (m *Monitor) TraceGlobal(tid int, name string, write bool) {
	if m == nil {
		return
	}
	ci, ok := m.globals[name]
	if !ok {
		ci = m.newCell(cellKey{kind: cellGlobal, loc: name})
		m.globals[name] = ci
	}
	m.access(tid, ci, write)
}

// TraceBuiltin expands a builtin call into shadow-cell accesses using its
// effect declaration, specializing locations by instance handle and
// element key where the declaration names the argument, so
// bitmap_set(bm, 3) and bitmap_set(bm, 4) land in distinct shadow cells.
// Locations the call allocates are skipped: the result is fresh by
// construction, and the allocator bump commutes under handle renaming
// (the same freshness reasoning the static passes use).
func (m *Monitor) TraceBuiltin(tid int, name string, args []value.Value) {
	if m == nil {
		return
	}
	plan, ok := m.plans[name]
	if !ok {
		plan = m.buildPlan(name)
		m.plans[name] = plan
	}
	for _, s := range plan {
		k := cellKey{kind: cellBuiltin, loc: s.loc}
		if s.inst >= 0 && s.inst < len(args) {
			k.inst, k.hasInst = args[s.inst].I, true
		}
		if s.key >= 0 && s.key < len(args) {
			k.key, k.hasKey = args[s.key].I, true
		}
		ci, ok := m.effCells[k]
		if !ok {
			ci = m.newCell(k)
			m.effCells[k] = ci
		}
		m.access(tid, ci, s.write)
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
	plan := []planStep{}
	step := func(loc effects.Loc, write bool) {
		s := planStep{loc: string(loc), write: write, inst: -1, key: -1}
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

// ---- exec hooks ----

// Cell records a promoted-shared-frame-slot access.
func (m *Monitor) Cell(tid int, slot int, write bool) {
	if m == nil {
		return
	}
	if slot >= len(m.slots) {
		m.slots = append(m.slots, make([]int32, slot+1-len(m.slots))...)
	}
	ci := m.slots[slot] - 1
	if ci < 0 {
		ci = m.newCell(cellKey{kind: cellSlot, slot: slot})
		m.slots[slot] = ci + 1
	}
	m.access(tid, ci, write)
}

// MemberEnter opens a member extent on tid's stack and, depending on
// mode, records the invocation: args always when targeted, plus a full
// pre-state snapshot (heap, shared cells, world clone) for replay
// anchors. snap supplies the executor-side state (globals map and
// shared-cell values) without the monitor reaching into exec.
func (m *Monitor) MemberEnter(tid int, fn string, sets []SetTag, args []value.Value,
	argSlots, outSlots map[int]int, snap func() (map[string]value.Value, map[int]value.Value)) {
	if m == nil {
		return
	}
	g := m.gseq
	m.gseq++
	t := m.thread(tid)
	t.stack = append(t.stack, &extentRef{gseq: g, fn: fn, sets: sets})

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
	ref := t.top()
	if ref == nil {
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
	if inv := m.invs[ref.gseq]; inv != nil {
		inv.Rets = append([]value.Value(nil), rets...)
		if err != nil {
			inv.Err = err.Error()
		}
	}
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

// newCell interns a shadow cell and returns its index.
func (m *Monitor) newCell(key cellKey) int32 {
	m.cells = append(m.cells, shadow{key: key})
	return int32(len(m.cells) - 1)
}

func (m *Monitor) access(tid int, ci int32, write bool) {
	t := m.thread(tid)
	c := &m.cells[ci]
	acc := access{tid: tid, clk: t.clock.get(tid), ext: t.top(), valid: true}
	if write {
		if c.w.valid && c.w.tid != tid {
			m.conflict(c, c.w, acc, "write-write")
		}
		for _, r := range c.reads {
			if r.tid != tid {
				m.conflict(c, r, acc, "read-write")
			}
		}
		c.w = acc
		c.reads = c.reads[:0]
		return
	}
	if c.w.valid && c.w.tid != tid {
		m.conflict(c, c.w, acc, "write-read")
	}
	for i := range c.reads {
		if c.reads[i].tid == tid {
			c.reads[i] = acc
			return
		}
	}
	c.reads = append(c.reads, acc)
}

// conflict routes one cross-thread conflicting pair. If both extents
// share a commset the pair becomes an oracle candidate regardless of
// happens-before order: the set lock serializes every such pair, and the
// annotation's claim is exactly that the serialization order does not
// matter — which is the obligation the replay checks. Everything else is
// a race unless ordered by the vector clocks.
func (m *Monitor) conflict(c *shadow, prev, cur access, kind string) {
	if set := commonSet(prev.ext, cur.ext); set != "" {
		m.candidate(set, prev.ext, cur.ext, c)
		return
	}
	if prev.clk <= m.thread(cur.tid).clock.get(prev.tid) {
		return // ordered: prev happens-before cur
	}
	m.race(c, prev, cur, kind)
}

func commonSet(a, b *extentRef) string {
	if a == nil || b == nil {
		return ""
	}
	for _, sa := range a.sets {
		for _, sb := range b.sets {
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
func (m *Monitor) candidate(set string, a, b *extentRef, c *shadow) {
	if a.gseq == b.gseq {
		return
	}
	if a.gseq > b.gseq {
		a, b = b, a
	}
	f1, f2 := a.fn, b.fn
	if f1 > f2 {
		f1, f2 = f2, f1
	}
	key := candKey{set, f1, f2}
	if m.candSeen[key] {
		return
	}
	m.candSeen[key] = true
	m.cands = append(m.cands, Candidate{
		Set: set, FnA: a.fn, FnB: b.fn, GseqA: a.gseq, GseqB: b.gseq, Cell: c.key.String(),
	})
}

func (m *Monitor) race(c *shadow, prev, cur access, kind string) {
	if c.raced {
		return
	}
	c.raced = true
	m.races = append(m.races, RaceReport{
		Cell:         c.key.String(),
		Kind:         kind,
		FirstThread:  prev.tid,
		SecondThread: cur.tid,
		FirstExtent:  extentLabel(prev.ext),
		SecondExtent: extentLabel(cur.ext),
	})
}

func extentLabel(e *extentRef) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf("%s#%d", e.fn, e.gseq)
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
