package sanitize

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// testSrc declares the globals g, h and k (slots 0–2) and calls the
// builtins the tests trace.
const testSrc = `
int g;
int h;
int k;

void main() {
	int bm = bitmap_new(8);
	bitmap_set(bm, 1);
	print_int(g + h + k);
}
`

const (
	slotG = iota
	slotH
	slotK
)

var testProg = sync.OnceValue(func() *ir.Program {
	w := builtins.NewWorld()
	c, err := pipeline.Compile(pipeline.Options{
		File: source.NewFile("monitor_test.mc", testSrc), Sigs: w.Sigs(), Effects: w.EffectTable(),
	})
	if err != nil {
		panic(err)
	}
	for slot, name := range []string{slotG: "g", slotH: "h", slotK: "k"} {
		if got := c.Low.Prog.Globals[slot].Name; got != name {
			panic("testSrc: global slot " + got + " is not " + name)
		}
	}
	return c.Low.Prog
})

// newTestMonitor builds a monitor over testSrc.
func newTestMonitor(mode Mode) *Monitor {
	return New(mode, testProg(), builtins.NewWorld())
}

// callee returns the callee index of a builtin testSrc calls.
func callee(t *testing.T, name string) int {
	t.Helper()
	i := slices.Index(interp.Callees(testProg()), name)
	if i < 0 {
		t.Fatalf("testSrc does not call %s", name)
	}
	return i
}

func TestClockBasics(t *testing.T) {
	a := newClock(1)
	if a.get(1) != 1 || a.get(2) != 0 {
		t.Fatalf("fresh clock = %v", a)
	}
	a.tick(1)
	b := newClock(2)
	b.join(a)
	if b.get(1) != 2 || b.get(2) != 1 {
		t.Fatalf("joined clock = %v", b)
	}
	// assign copies into the receiver's own storage: a lock's release
	// clock must not alias the releaser's live clock.
	c := newClock(3)
	c.assign(a)
	a.tick(1)
	if c.get(1) != 2 || c.get(3) != 0 {
		t.Fatalf("assigned clock = %v, want a copy of %v before the tick", c, a)
	}
	// Growing a clock past its length zeroes the components it adds,
	// whatever an earlier, longer clock left in its storage.
	c.join(newClock(4))
	if c.get(3) != 0 || c.get(4) != 1 {
		t.Fatalf("grown clock = %v, want components 3 and 4 to read 0 and 1", c)
	}
}

func TestWriteWriteRaceUnordered(t *testing.T) {
	m := newTestMonitor(Detect)
	m.TraceGlobal(1, slotG, true)
	m.TraceGlobal(2, slotG, true)
	races := m.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v, want 1", races)
	}
	r := races[0]
	if r.Cell != "g:g" || r.Kind != "write-write" || r.FirstThread != 1 || r.SecondThread != 2 {
		t.Errorf("race = %+v", r)
	}
	// Dedup: further conflicts on the same cell report once.
	m.TraceGlobal(3, slotG, true)
	if len(m.Races()) != 1 {
		t.Errorf("per-cell dedup failed: %v", m.Races())
	}
}

func TestReadWriteKinds(t *testing.T) {
	m := newTestMonitor(Detect)
	m.TraceGlobal(1, slotG, true)
	m.TraceGlobal(2, slotG, false)
	if rs := m.Races(); len(rs) != 1 || rs[0].Kind != "write-read" {
		t.Errorf("races = %v, want one write-read", rs)
	}
	m2 := newTestMonitor(Detect)
	m2.TraceGlobal(1, slotH, false)
	m2.TraceGlobal(2, slotH, true)
	if rs := m2.Races(); len(rs) != 1 || rs[0].Kind != "read-write" {
		t.Errorf("races = %v, want one read-write", rs)
	}
	// Two concurrent reads never conflict.
	m3 := newTestMonitor(Detect)
	m3.TraceGlobal(1, slotK, false)
	m3.TraceGlobal(2, slotK, false)
	if rs := m3.Races(); len(rs) != 0 {
		t.Errorf("read-read raced: %v", rs)
	}
}

func TestLockEdgeOrdersAccesses(t *testing.T) {
	m := newTestMonitor(Detect)
	m.LockAcquired(1, "L")
	m.TraceGlobal(1, slotG, true)
	m.LockReleased(1, "L")
	m.LockAcquired(2, "L")
	m.TraceGlobal(2, slotG, true)
	m.LockReleased(2, "L")
	if rs := m.Races(); len(rs) != 0 {
		t.Errorf("lock-ordered accesses raced: %v", rs)
	}
	// A different lock provides no edge.
	m.LockAcquired(3, "M")
	m.TraceGlobal(3, slotG, true)
	if rs := m.Races(); len(rs) != 1 {
		t.Errorf("unrelated lock suppressed a race: %v", rs)
	}

	// A reused release clock: the second release overwrites the first in
	// place. The acquirer joins the clock of that release, not the
	// releaser's later clock, so T1's write after the release races with
	// T2's read; a release clock aliasing T1's live clock would hide it.
	m2 := newTestMonitor(Detect)
	m2.LockAcquired(1, "L")
	m2.LockReleased(1, "L")
	m2.LockAcquired(1, "L")
	m2.LockReleased(1, "L")
	m2.TraceGlobal(1, slotG, true)
	m2.LockAcquired(2, "L")
	m2.TraceGlobal(2, slotG, false)
	if rs := m2.Races(); len(rs) != 1 || rs[0].Kind != "write-read" || rs[0].FirstThread != 1 || rs[0].SecondThread != 2 {
		t.Errorf("write after a reused release: races = %v, want one write-read", rs)
	}
}

func TestQueueEdgeOrdersAccesses(t *testing.T) {
	m := newTestMonitor(Detect)
	m.TraceGlobal(1, slotG, true)
	m.QueuePushed(1, "q", []int64{7})
	m.QueuePopped(2, "q", []int64{7})
	m.TraceGlobal(2, slotG, true)
	if rs := m.Races(); len(rs) != 0 {
		t.Errorf("queue-ordered accesses raced: %v", rs)
	}
	// A pop of a different token does not order thread 3.
	m.QueuePopped(3, "q", []int64{99})
	m.TraceGlobal(3, slotG, true)
	if rs := m.Races(); len(rs) != 1 {
		t.Errorf("unrelated token suppressed a race: %v", rs)
	}

	// The two tokens of one batched push, taken by two separate pops,
	// each carry the push-time clock: both readers are ordered after the
	// write before the push and neither after the write that follows it.
	m2 := newTestMonitor(Detect)
	m2.TraceGlobal(1, slotG, true)
	m2.QueuePushed(1, "q", []int64{7, 8})
	m2.TraceGlobal(1, slotH, true)
	m2.QueuePopped(2, "q", []int64{7})
	m2.TraceGlobal(2, slotG, false)
	m2.TraceGlobal(2, slotH, false)
	m2.QueuePopped(3, "q", []int64{8})
	m2.TraceGlobal(3, slotG, false)
	m2.TraceGlobal(3, slotH, false)
	if rs := m2.Races(); len(rs) != 1 || rs[0].Cell != "g:h" || rs[0].SecondThread != 2 {
		t.Errorf("batched push: races = %v, want one on g:h", rs)
	}
}

func TestSpawnEdgeOrdersAccesses(t *testing.T) {
	m := newTestMonitor(Detect)
	m.TraceGlobal(0, slotG, true)
	m.ThreadSpawned(0, 1)
	m.TraceGlobal(1, slotG, true)
	if rs := m.Races(); len(rs) != 0 {
		t.Errorf("spawn-ordered accesses raced: %v", rs)
	}

	// A thread spawned with an ID past every existing one, as a crash
	// replacement is, is ordered after its parent's earlier accesses.
	m.TraceGlobal(1, slotH, true)
	m.ThreadSpawned(1, 40)
	m.TraceGlobal(40, slotH, true)
	m.TraceGlobal(40, slotG, false)
	if rs := m.Races(); len(rs) != 0 {
		t.Errorf("accesses after a spawn past every thread ID raced: %v", rs)
	}
}

func TestCommonSetRoutesToCandidate(t *testing.T) {
	m := newTestMonitor(Detect)
	tags := []SetTag{{Name: "S", Self: true}}
	m.MemberEnter(1, "f", tags, nil, nil, nil, nil)
	m.TraceGlobal(1, slotG, true)
	m.MemberExit(1, nil, nil)
	m.MemberEnter(2, "f", tags, nil, nil, nil, nil)
	m.TraceGlobal(2, slotG, true)
	m.MemberExit(2, nil, nil)
	if rs := m.Races(); len(rs) != 0 {
		t.Errorf("common-set conflict reported as race: %v", rs)
	}
	cands := m.Candidates()
	if len(cands) != 1 {
		t.Fatalf("candidates = %v, want 1", cands)
	}
	c := cands[0]
	if c.Set != "S" || c.FnA != "f" || c.FnB != "f" || c.GseqA != 0 || c.GseqB != 1 || c.Cell != "g:g" {
		t.Errorf("candidate = %+v", c)
	}
	// Dedup: a third conflicting invocation adds no new (set, pair) entry.
	m.MemberEnter(3, "f", tags, nil, nil, nil, nil)
	m.TraceGlobal(3, slotG, true)
	m.MemberExit(3, nil, nil)
	if got := m.Candidates(); len(got) != 1 {
		t.Errorf("candidate dedup failed: %v", got)
	}
}

func TestDisjointSetsStillRace(t *testing.T) {
	m := newTestMonitor(Detect)
	m.MemberEnter(1, "f", []SetTag{{Name: "A"}}, nil, nil, nil, nil)
	m.TraceGlobal(1, slotG, true)
	m.MemberExit(1, nil, nil)
	m.MemberEnter(2, "h", []SetTag{{Name: "B"}}, nil, nil, nil, nil)
	m.TraceGlobal(2, slotG, true)
	m.MemberExit(2, nil, nil)
	rs := m.Races()
	if len(rs) != 1 {
		t.Fatalf("races = %v, want 1", rs)
	}
	if rs[0].FirstExtent != "f#0" || rs[0].SecondExtent != "h#1" {
		t.Errorf("race extents = %+v", rs[0])
	}
	if len(m.Candidates()) != 0 {
		t.Errorf("disjoint sets produced a candidate: %v", m.Candidates())
	}
}

func TestBuiltinEffectShadowCells(t *testing.T) {
	// bitmap_set is instanced by handle and keyed by bit: different
	// handles or different bits land in distinct shadow cells.
	m := newTestMonitor(Detect)
	m.TraceBuiltin(1, callee(t, "bitmap_set"), []value.Value{value.Int(1), value.Int(3)})
	m.TraceBuiltin(2, callee(t, "bitmap_set"), []value.Value{value.Int(1), value.Int(4)})
	m.TraceBuiltin(2, callee(t, "bitmap_set"), []value.Value{value.Int(2), value.Int(3)})
	if rs := m.Races(); len(rs) != 0 {
		t.Errorf("distinct keys/handles conflicted: %v", rs)
	}
	m.TraceBuiltin(2, callee(t, "bitmap_set"), []value.Value{value.Int(1), value.Int(3)})
	if rs := m.Races(); len(rs) != 1 || rs[0].Cell != "t:bitmaps#1@3" {
		t.Errorf("same handle+key must conflict: %v", rs)
	}

	// So do handles and keys outside the dense cell tables (a negative
	// key, a key past denseKeys, a handle past denseHandles), beside the
	// dense neighbours of each.
	for _, hk := range [][2]int64{{1, -1}, {1, denseKeys + 7}, {denseHandles + 3, 3}} {
		m := newTestMonitor(Detect)
		set := []value.Value{value.Int(hk[0]), value.Int(hk[1])}
		m.TraceBuiltin(1, callee(t, "bitmap_set"), set)
		m.TraceBuiltin(2, callee(t, "bitmap_set"), []value.Value{value.Int(hk[0]), value.Int(hk[1] + 1)})
		m.TraceBuiltin(2, callee(t, "bitmap_set"), []value.Value{value.Int(hk[0] - 1), value.Int(hk[1])})
		if rs := m.Races(); len(rs) != 0 {
			t.Errorf("handle %d key %d: distinct keys/handles conflicted: %v", hk[0], hk[1], rs)
		}
		m.TraceBuiltin(2, callee(t, "bitmap_set"), set)
		want := fmt.Sprintf("t:bitmaps#%d@%d", hk[0], hk[1])
		if rs := m.Races(); len(rs) != 1 || rs[0].Cell != want {
			t.Errorf("handle %d key %d: races %v, want one on %s", hk[0], hk[1], rs, want)
		}
	}

	// Cells are keyed by the integer payloads of the handle and key
	// arguments, which every instanced or keyed builtin declares int.
	w := builtins.NewWorld()
	for name, d := range w.EffectTable() {
		for _, by := range []map[effects.Loc]int{d.InstanceBy, d.KeyedBy} {
			for loc, i := range by {
				if ps := w.Sigs()[name].Params; i >= len(ps) || ps[i] != ast.TInt {
					t.Errorf("%s: %s is specialized by argument %d, which is not an int", name, loc, i)
				}
			}
		}
	}
}

func TestAllocatingBuiltinIsFresh(t *testing.T) {
	// bitmap_new allocates its result: the allocator-bump write commutes
	// under handle renaming and must not register shadow accesses.
	m := newTestMonitor(Detect)
	m.TraceBuiltin(1, callee(t, "bitmap_new"), nil)
	m.TraceBuiltin(2, callee(t, "bitmap_new"), nil)
	if rs := m.Races(); len(rs) != 0 {
		t.Errorf("fresh allocation raced: %v", rs)
	}
}

func TestCaptureTargets(t *testing.T) {
	cands := []Candidate{{Set: "S", FnA: "f", FnB: "f", GseqA: 3, GseqB: 9}}
	m := NewCapture(&ir.Program{}, builtins.NewWorld(), cands)
	if m.targets[3] != targetFull || m.targets[9] != targetArgs {
		t.Errorf("targets = %v", m.targets)
	}
	// The earlier gseq keeps its full snapshot even when named again as
	// the later half of another pair.
	m2 := NewCapture(&ir.Program{}, builtins.NewWorld(), []Candidate{
		{GseqA: 3, GseqB: 9}, {GseqA: 1, GseqB: 3},
	})
	if m2.targets[3] != targetFull {
		t.Errorf("full snapshot demoted: %v", m2.targets)
	}
}

func TestVerifyPairsObligations(t *testing.T) {
	// Group sets claim distinct-member pairs only; self sets claim
	// same-member pairs. Replays of an empty program fail, so verdicts
	// come back inconclusive — the pairing itself is what's under test.
	m := newTestMonitor(VerifyAll)
	group := []SetTag{{Name: "G", Self: false}}
	m.MemberEnter(0, "f", group, nil, nil, nil, nil)
	m.MemberExit(0, nil, nil)
	m.MemberEnter(0, "f", group, nil, nil, nil, nil)
	m.MemberExit(0, nil, nil)
	m.MemberEnter(0, "h", group, nil, nil, nil, nil)
	m.MemberExit(0, nil, nil)
	vs := m.VerifyPairs(func(Candidate) string { return "r" })
	if len(vs) != 1 || vs[0].FnA == vs[0].FnB {
		t.Fatalf("group-set pairs = %+v, want exactly f/h", vs)
	}
	if vs[0].Verdict != VerdictInconclusive || !strings.Contains(vs[0].Note, "failed") {
		t.Errorf("empty-program replay verdict = %+v", vs[0])
	}

	m2 := newTestMonitor(VerifyAll)
	self := []SetTag{{Name: "S", Self: true}}
	m2.MemberEnter(0, "f", self, nil, nil, nil, nil)
	m2.MemberExit(0, nil, nil)
	m2.MemberEnter(0, "f", self, nil, nil, nil, nil)
	m2.MemberExit(0, nil, nil)
	vs2 := m2.VerifyPairs(func(Candidate) string { return "r" })
	if len(vs2) != 1 || vs2[0].FnA != "f" || vs2[0].FnB != "f" {
		t.Fatalf("self-set pairs = %+v, want exactly f/f", vs2)
	}
}

func TestNilMonitorHooksAreSafe(t *testing.T) {
	var m *Monitor
	m.ThreadSpawned(0, 1)
	m.LockAcquired(0, "L")
	m.LockReleased(0, "L")
	m.QueuePushed(0, "q", []int64{1})
	m.QueuePopped(0, "q", []int64{1})
	m.TraceGlobal(0, slotG, true)
	m.TraceBuiltin(0, callee(t, "print_int"), nil)
	m.Cell(0, 1, true)
	m.MemberEnter(0, "f", nil, nil, nil, nil, nil)
	m.MemberExit(0, nil, nil)
	if m.Races() != nil || m.Candidates() != nil || m.VerifyPairs(nil) != nil {
		t.Error("nil monitor must report nothing")
	}
}

func TestHooksAllocateNothing(t *testing.T) {
	// Once a monitor has seen a cell, a lock or a builtin, repeating the
	// event allocates nothing: no clock clone, no rendered cell name and
	// no per-call map; nor does a member enter/exit pair.
	m := newTestMonitor(Detect)
	set := []value.Value{value.Int(1), value.Int(3)}
	bitmapSet := callee(t, "bitmap_set")
	tags := []SetTag{{Name: "S", Self: true}}
	warm := func() {
		m.TraceGlobal(1, slotG, true)
		m.Cell(1, 2, true)
		m.TraceBuiltin(1, bitmapSet, set)
		m.LockAcquired(1, "L")
		m.LockReleased(1, "L")
		m.MemberEnter(1, "f", tags, set, nil, nil, nil)
		m.TraceBuiltin(1, bitmapSet, set)
		m.MemberExit(1, nil, nil)
	}
	warm()
	warm()
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"TraceGlobal", func() { m.TraceGlobal(1, slotG, true) }},
		{"Cell", func() { m.Cell(1, 2, false) }},
		{"TraceBuiltin", func() { m.TraceBuiltin(1, bitmapSet, set) }},
		{"LockAcquired+LockReleased", func() {
			m.LockAcquired(1, "L")
			m.LockReleased(1, "L")
		}},
		{"MemberEnter+MemberExit", func() {
			m.MemberEnter(1, "f", tags, set, nil, nil, nil)
			m.MemberExit(1, nil, nil)
		}},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}
}

// TestRecordingMonitorsRunNoRaceEngine: a capture or VerifyAll monitor
// runs no race engine. Its probe, tracer and shared-cell hooks allocate
// nothing, even on first use, and conflicting accesses of two threads
// leave no race and no candidate; member invocations are still numbered
// and recorded.
func TestRecordingMonitorsRunNoRaceEngine(t *testing.T) {
	bitmapSet := callee(t, "bitmap_set")
	set := []value.Value{value.Int(1), value.Int(3)}
	tags := []SetTag{{Name: "S", Self: true}}
	for _, m := range []*Monitor{
		NewCapture(testProg(), builtins.NewWorld(), []Candidate{{GseqA: 0, GseqB: 1}}),
		newTestMonitor(VerifyAll),
	} {
		hooks := func() {
			for tid := 1; tid <= 2; tid++ {
				m.ThreadSpawned(0, tid)
				m.LockAcquired(tid, "L")
				m.TraceGlobal(tid, slotG, true)
				m.Cell(tid, 2, true)
				m.TraceBuiltin(tid, bitmapSet, set)
				m.LockReleased(tid, "L")
				m.QueuePushed(tid, "q", []int64{int64(tid)})
				m.QueuePopped(3-tid, "q", []int64{int64(tid)})
			}
		}
		if n := testing.AllocsPerRun(10, hooks); n != 0 {
			t.Errorf("mode %d: %v allocations per round of hooks, want 0", m.mode, n)
		}
		for tid := 1; tid <= 2; tid++ {
			m.MemberEnter(tid, "f", tags, set, nil, nil, nil)
			m.TraceGlobal(tid, slotG, true)
			m.MemberExit(tid, nil, nil)
		}
		if len(m.Races()) != 0 || len(m.Candidates()) != 0 {
			t.Errorf("mode %d: races %v candidates %v, want none", m.mode, m.Races(), m.Candidates())
		}
		if len(m.invs) != 2 || m.invs[0].Pre == nil || m.invs[1].Fn != "f" {
			t.Errorf("mode %d: recorded %+v, want invocations 0 (with a snapshot) and 1", m.mode, m.invs)
		}
	}
}
