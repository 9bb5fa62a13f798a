package exec_test

import (
	"strings"
	"testing"

	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
)

// parRunTuned executes the given schedule under a tuning and returns the
// makespan and output.
func (cp *compiled) parRunTuned(t *testing.T, kind transform.Kind, mode exec.SyncMode, threads int, tune transform.Tuning) (int64, []string) {
	t.Helper()
	s := cp.sched[kind]
	if s == nil {
		t.Fatalf("schedule %v not applicable", kind)
	}
	cp.w.reset()
	cfg := cp.cfg
	cfg.Tune = tune
	r, err := exec.Run(cfg, cp.la, s, mode, threads)
	if err != nil {
		t.Fatalf("%v run (%s): %v", kind, tune, err)
	}
	out := append([]string(nil), cp.w.prints...)
	return r.VirtualTime, out
}

func doallTunings() []transform.Tuning {
	return []transform.Tuning{
		{Chunk: 4},
		{Privatize: true},
		{Chunk: 4, Privatize: true},
	}
}

// Every DOALL tuning must preserve the loop's semantics: exact final
// total (the commutative accumulator) and the same output multiset.
func TestTunedDOALLCorrectAllSchedules(t *testing.T) {
	for _, mode := range []exec.SyncMode{exec.SyncSpin, exec.SyncMutex} {
		cp := compileFor(t, md5Full, 8)
		_, seqOut := cp.seqRun(t)
		for _, tune := range doallTunings() {
			_, parOut := cp.parRunTuned(t, transform.DOALL, mode, 8, tune)
			if len(parOut) != len(seqOut) {
				t.Fatalf("%v %s: output count %d != %d", mode, tune, len(parOut), len(seqOut))
			}
			if parOut[len(parOut)-1] != seqOut[len(seqOut)-1] {
				t.Errorf("%v %s: final total %s != %s", mode, tune, parOut[len(parOut)-1], seqOut[len(seqOut)-1])
			}
			a, b := sortedCopy(parOut), sortedCopy(seqOut)
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%v %s: output multiset differs", mode, tune)
					break
				}
			}
		}
	}
}

// Privatization exists to kill contended-lock overhead: under Mutex at 8
// threads (where every contended acquire pays the wake penalty) the
// privatized run must be strictly faster than the shared-lock run.
func TestPrivatizedDOALLFasterUnderMutex(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	shared, _ := cp.parRunTuned(t, transform.DOALL, exec.SyncMutex, 8, transform.Tuning{})
	priv, _ := cp.parRunTuned(t, transform.DOALL, exec.SyncMutex, 8, transform.Tuning{Privatize: true})
	if priv >= shared {
		t.Errorf("privatized makespan %d not faster than shared %d", priv, shared)
	}
}

// Batched pipeline queues must preserve PS-DSWP's deterministic output
// (the sequential print stage sees tokens in iteration order) at every
// batch size, including batches larger than the queue capacity.
func TestBatchedPipelineDeterministicOutput(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	_, seqOut := cp.seqRun(t)
	for _, batch := range []int{2, 4, 8, 16, 64} {
		_, parOut := cp.parRunTuned(t, transform.PSDSWP, exec.SyncSpin, 8, transform.Tuning{Batch: batch})
		if strings.Join(parOut, ",") != strings.Join(seqOut, ",") {
			t.Errorf("batch %d: PS-DSWP output differs:\npar: %v\nseq: %v", batch, parOut, seqOut)
		}
	}
}

// relayPipe is a queue-bound pipeline: the per-iteration work (one cheap
// read, one print) is on the order of the queue push/pop costs, so
// per-token queue overhead dominates the makespan.
const relayPipe = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	for (int i = 0; i < 256; i++) {
		int v = 0;
		#pragma commset member FSET(i), SELF
		{ v = fread(i); }
		#pragma commset member FSET(i)
		{ print_int(v); }
	}
}
`

// Batching amortizes per-token queue costs, so on a queue-bound pipeline
// (body work comparable to queue overhead) the batched run must be
// strictly faster. On compute-bound pipelines batching can lose to fill
// latency — that trade is the auto-scheduler's job, not a batching
// invariant.
func TestBatchedPipelineFasterWhenQueueBound(t *testing.T) {
	cp := compileFor(t, relayPipe, 4)
	kind := transform.PSDSWP
	if cp.sched[kind] == nil {
		kind = transform.DSWP
	}
	if cp.sched[kind] == nil {
		t.Skip("no pipeline schedule generated")
	}
	_, seqOut := cp.seqRun(t)
	base, baseOut := cp.parRunTuned(t, kind, exec.SyncSpin, 4, transform.Tuning{})
	batched, batchOut := cp.parRunTuned(t, kind, exec.SyncSpin, 4, transform.Tuning{Batch: 16})
	if strings.Join(baseOut, ",") != strings.Join(seqOut, ",") ||
		strings.Join(batchOut, ",") != strings.Join(seqOut, ",") {
		t.Fatalf("%v relay output differs from sequential", kind)
	}
	if batched >= base {
		t.Errorf("queue-bound %v: batched makespan %d not faster than per-token %d", kind, batched, base)
	}
}

// DSWP (no parallel stage) must also survive batching.
func TestBatchedDSWPCorrect(t *testing.T) {
	cp := compileFor(t, md5Det, 4)
	if cp.sched[transform.DSWP] == nil {
		t.Skip("DSWP not generated")
	}
	_, seqOut := cp.seqRun(t)
	_, parOut := cp.parRunTuned(t, transform.DSWP, exec.SyncSpin, 4, transform.Tuning{Batch: 8})
	if strings.Join(parOut, ",") != strings.Join(seqOut, ",") {
		t.Errorf("batched DSWP output differs:\npar: %v\nseq: %v", parOut, seqOut)
	}
}

// Tuned runs stay deterministic: identical configurations produce
// identical makespans.
func TestTunedDeterministicMakespan(t *testing.T) {
	for _, tune := range doallTunings() {
		cp := compileFor(t, md5Full, 8)
		a, _ := cp.parRunTuned(t, transform.DOALL, exec.SyncSpin, 8, tune)
		b, _ := cp.parRunTuned(t, transform.DOALL, exec.SyncSpin, 8, tune)
		if a != b {
			t.Errorf("%s: nondeterministic makespan %d vs %d", tune, a, b)
		}
	}
}

// autoCfg wires the auto-scheduler into a test config: calibration
// slices run on throwaway worlds so they never pollute cp.w's output.
func (cp *compiled) autoCfg() exec.Config {
	cfg := cp.cfg
	cfg.Auto = &exec.AutoOptions{
		Fresh: func() map[string]interp.BuiltinFn { return (&world{}).builtins() },
	}
	return cfg
}

// The auto-scheduler must (a) keep the run correct, (b) never pick a
// tuning slower than the zero tuning, and (c) report the picked tuning
// in the result.
func TestAutoSchedulerDOALL(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)

	base, _ := cp.parRunTuned(t, transform.DOALL, exec.SyncMutex, 8, transform.Tuning{})

	cp.w.reset()
	r, err := exec.Run(cp.autoCfg(), cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 8)
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	parOut := append([]string(nil), cp.w.prints...)
	if parOut[len(parOut)-1] != seqOut[len(seqOut)-1] {
		t.Errorf("auto: final total %s != %s", parOut[len(parOut)-1], seqOut[len(seqOut)-1])
	}
	if r.VirtualTime > base {
		t.Errorf("auto makespan %d regressed past zero-tuning %d", r.VirtualTime, base)
	}
	// This workload's shared accumulator collapses under contended Mutex:
	// the calibration must discover a non-trivial tuning.
	if r.Tune.IsZero() {
		t.Errorf("auto picked the zero tuning; expected privatization/chunking to win under Mutex")
	}
	if !strings.Contains(r.Schedule, "{") {
		t.Errorf("auto result schedule %q does not name the tuning", r.Schedule)
	}
}

// Auto-scheduling a pipeline calibrates batch sizes and must preserve
// deterministic output.
func TestAutoSchedulerPipeline(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	_, seqOut := cp.seqRun(t)

	cp.w.reset()
	r, err := exec.Run(cp.autoCfg(), cp.la, cp.sched[transform.PSDSWP], exec.SyncSpin, 8)
	if err != nil {
		t.Fatalf("auto run: %v", err)
	}
	parOut := append([]string(nil), cp.w.prints...)
	if strings.Join(parOut, ",") != strings.Join(seqOut, ",") {
		t.Errorf("auto PS-DSWP output differs:\npar: %v\nseq: %v", parOut, seqOut)
	}
	base, _ := cp.parRunTuned(t, transform.PSDSWP, exec.SyncSpin, 8, transform.Tuning{})
	if r.VirtualTime > base {
		t.Errorf("auto makespan %d regressed past per-token %d", r.VirtualTime, base)
	}
}

// A calibration slice must not leak into the measured run's world: the
// output of an auto run equals the output of a plain run.
func TestAutoCalibrationIsolated(t *testing.T) {
	cp := compileFor(t, md5Full, 4)
	_, plainOut := cp.parRunTuned(t, transform.DOALL, exec.SyncSpin, 4, transform.Tuning{})

	cp.w.reset()
	if _, err := exec.Run(cp.autoCfg(), cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4); err != nil {
		t.Fatalf("auto run: %v", err)
	}
	autoOut := append([]string(nil), cp.w.prints...)
	if len(autoOut) != len(plainOut) {
		t.Errorf("auto run printed %d lines, plain %d — calibration leaked into the world", len(autoOut), len(plainOut))
	}
}
