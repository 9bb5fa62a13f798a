package exec_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// failingWorld injects a builtin error on the Nth call to one builtin
// (digest by default).
type failingWorld struct {
	world
	name   string
	failAt int
	calls  int
}

func (w *failingWorld) builtins() map[string]interp.BuiltinFn {
	name := w.name
	if name == "" {
		name = "digest"
	}
	fns := w.world.builtins()
	base := fns[name]
	fns[name] = func(args []value.Value) (value.Value, int64, error) {
		w.calls++
		if w.calls == w.failAt {
			return value.Value{}, 0, errTest
		}
		return base(args)
	}
	return fns
}

type testErr struct{}

func (testErr) Error() string { return "injected substrate failure" }

var errTest = testErr{}

// allSyncModes is every synchronization mechanism of Section 4.6.
var allSyncModes = []exec.SyncMode{exec.SyncMutex, exec.SyncSpin, exec.SyncTM, exec.SyncLib}

// TestWorkerErrorPropagates injects a builtin failure mid-run for every
// schedule kind and every sync mode: the run must return the error, not
// hang or panic, and the simulator must not deadlock.
func TestWorkerErrorPropagates(t *testing.T) {
	for _, src := range []string{md5Full, md5Det} {
		cp := compileFor(t, src, 8)
		for _, kind := range []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP} {
			s := cp.sched[kind]
			if s == nil {
				continue
			}
			for _, mode := range allSyncModes {
				for _, failAt := range []int{1, 7, 16} {
					fw := &failingWorld{failAt: failAt}
					cfg := cp.cfg
					cfg.Builtins = fw.builtins()
					_, err := exec.Run(cfg, cp.la, s, mode, 4)
					if err == nil {
						t.Errorf("%v/%v failAt=%d: error not propagated", kind, mode, failAt)
						continue
					}
					if !strings.Contains(err.Error(), "injected substrate failure") {
						t.Errorf("%v/%v failAt=%d: err = %v", kind, mode, failAt, err)
					}
				}
			}
		}
	}
}

// TestWorkerErrorStopsSiblings: a builtin failure that no policy absorbs
// takes the same path with and without Recovery. The run returns a
// *exec.FailureDiag naming the worker role that failed, and every sibling
// stops at its next pass, so the failing builtin is called as often in
// both runs.
func TestWorkerErrorStopsSiblings(t *testing.T) {
	for _, src := range []string{md5Full, md5Det} {
		cp := compileFor(t, src, 8)
		for _, kind := range []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP} {
			s := cp.sched[kind]
			if s == nil {
				continue
			}
			roster := exec.CrashRoster(s, 4)
			for _, mode := range allSyncModes {
				calls := map[bool]int{}
				for _, rec := range []*exec.Recovery{nil, exec.DefaultRecovery()} {
					fw := &failingWorld{failAt: 7}
					cfg := cp.cfg
					cfg.Builtins = fw.builtins()
					cfg.Recovery = rec
					_, err := exec.Run(cfg, cp.la, s, mode, 4)
					var diag *exec.FailureDiag
					if !errors.As(err, &diag) {
						t.Fatalf("%v/%v recovery=%v: err = %v, want *exec.FailureDiag", kind, mode, rec != nil, err)
					}
					if !errors.Is(err, errTest) || !rosterContains(roster, diag.Thread) {
						t.Errorf("%v/%v recovery=%v: diagnosis %v, want the injected failure in one of %v", kind, mode, rec != nil, err, roster)
					}
					calls[rec != nil] = fw.calls
				}
				if calls[false] != calls[true] {
					t.Errorf("%v/%v: %d digest calls without Recovery, %d with", kind, mode, calls[false], calls[true])
				}
			}
		}
	}
}

// boundedLoop calls the pure builtin bound() in the for-condition, planting
// a builtin call inside the loop-control units (executed by every DOALL
// worker and by the pipeline dispatcher).
const boundedLoop = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < bound(24); i++) {
		int d = digest(i);
		#pragma commset member FSET(i), SELF
		{ total += d; }
	}
	print_int(total);
}
`

// TestFaultInLoopControl lands the failure inside the loop-control units:
// the bound() call of the for-condition. Every schedule kind must propagate
// it without hanging (loop control runs on every DOALL worker and on the
// pipeline dispatcher).
func TestFaultInLoopControl(t *testing.T) {
	cp := compileFor(t, boundedLoop, 8)
	for _, kind := range []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP} {
		s := cp.sched[kind]
		if s == nil {
			continue
		}
		for _, mode := range allSyncModes {
			fw := &failingWorld{name: "bound", failAt: 10}
			cfg := cp.cfg
			cfg.Builtins = fw.builtins()
			_, err := exec.Run(cfg, cp.la, s, mode, 4)
			if err == nil {
				t.Errorf("%v/%v: loop-control fault not propagated", kind, mode)
				continue
			}
			if !strings.Contains(err.Error(), "injected substrate failure") {
				t.Errorf("%v/%v: err = %v", kind, mode, err)
			}
		}
	}
}

// TestFaultInMergeStage lands the failure inside the in-order merge stage:
// md5Det's print_int runs in the final sequential stage of DSWP/PS-DSWP,
// which merges parallel-stage tokens back into iteration order.
func TestFaultInMergeStage(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	for _, kind := range []transform.Kind{transform.DSWP, transform.PSDSWP} {
		s := cp.sched[kind]
		if s == nil {
			continue
		}
		for _, mode := range allSyncModes {
			for _, failAt := range []int{1, 5, 20} {
				fw := &failingWorld{name: "print_int", failAt: failAt}
				cfg := cp.cfg
				cfg.Builtins = fw.builtins()
				_, err := exec.Run(cfg, cp.la, s, mode, 4)
				if err == nil {
					t.Errorf("%v/%v failAt=%d: merge-stage fault not propagated", kind, mode, failAt)
					continue
				}
				if !strings.Contains(err.Error(), "injected substrate failure") {
					t.Errorf("%v/%v failAt=%d: err = %v", kind, mode, failAt, err)
				}
			}
		}
	}
}

func TestOneThreadDegenerate(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	seqCost, seqOut := cp.seqRun(t)
	// Every parallel schedule on a single thread must still be correct and
	// cost roughly the sequential time (plus bounded overhead).
	for _, kind := range []transform.Kind{transform.DOALL, transform.PSDSWP} {
		if cp.sched[kind] == nil {
			continue
		}
		m, out := cp.parRun(t, kind, exec.SyncSpin, 1)
		if len(out) != len(seqOut) {
			t.Errorf("%v@1: output count %d != %d", kind, len(out), len(seqOut))
		}
		overhead := float64(m)/float64(seqCost) - 1
		if overhead > 0.25 {
			t.Errorf("%v@1: overhead %.0f%% too high", kind, overhead*100)
		}
	}
}

func TestManyMoreThreadsThanIterations(t *testing.T) {
	cp := compileFor(t, `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < 3; i++) {
		int d = digest(i);
		#pragma commset member FSET(i), SELF
		{ total += d; }
	}
	print_int(total);
}`, 16)
	_, seqOut := cp.seqRun(t)
	_, parOut := cp.parRun(t, transform.DOALL, exec.SyncSpin, 16)
	if parOut[0] != seqOut[0] {
		t.Errorf("16 threads over 3 iterations: %v vs %v", parOut, seqOut)
	}
}

func TestQueueCapConfig(t *testing.T) {
	cp := compileFor(t, md5Det, 4)
	if cp.sched[transform.PSDSWP] == nil {
		t.Skip("no PS-DSWP")
	}
	cfg := cp.cfg
	cfg.QueueCap = 1 // minimum capacity still drains correctly
	w := &world{}
	cfg.Builtins = w.builtins()
	_, err := exec.Run(cfg, cp.la, cp.sched[transform.PSDSWP], exec.SyncSpin, 4)
	if err != nil {
		t.Fatalf("queue cap 1: %v", err)
	}
	if len(w.prints) != 33 {
		t.Errorf("printed %d lines, want 33", len(w.prints))
	}
}

func TestTMLogBounded(t *testing.T) {
	// A long TM run must not grow the conflict log unboundedly (bounded at
	// tmLogCap); indirectly verified by completing a large run quickly and
	// correctly.
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	_, parOut := cp.parRun(t, transform.DOALL, exec.SyncTM, 8)
	if parOut[len(parOut)-1] != seqOut[len(seqOut)-1] {
		t.Error("TM run final total differs")
	}
}
