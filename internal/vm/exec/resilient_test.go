package exec_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
)

// faulted builds a config over a fresh world with the plan's injector wired
// into the builtin table, queue pushes, and TM commits, plus the default
// recovery policy.
func (cp *compiled) faulted(plan faults.Plan, rec *exec.Recovery) (exec.Config, *world) {
	w := &world{}
	inj := faults.NewInjector(plan)
	cfg := cp.cfg
	cfg.Builtins = inj.Wrap(w.builtins())
	cfg.Recovery = rec
	cfg.PushDelay = inj.QueueDelay
	cfg.ExtraAborts = inj.ExtraAborts
	cfg.Effectful = map[string]bool{"fopen_i": true, "fread": true, "fclose": true, "print_int": true}
	return cfg, w
}

// TestTransientRetryRecovers: a short transient burst on digest must be
// absorbed by call-level retry under every sync mode, with
// sequential-equivalent output and retries reported.
func TestTransientRetryRecovers(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	plan := faults.Plan{Name: "transient-burst", Seed: 11, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Transient, Builtin: "digest", After: 5, Count: 2},
	}}
	for _, mode := range allSyncModes {
		cfg, w := cp.faulted(plan, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], mode, 4)
		if err != nil {
			t.Fatalf("%v: recoverable run failed: %v", mode, err)
		}
		if res.CallRetries == 0 {
			t.Errorf("%v: no call retries recorded", mode)
		}
		if !res.Recovered {
			t.Errorf("%v: Recovered not set", mode)
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%v: final total differs after recovery", mode)
		}
		a, b := sortedCopy(w.prints), sortedCopy(seqOut)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%v: output multiset differs after recovery", mode)
		}
	}
}

// TestTransientLoopControlRecovers: a transient fault on the bound() call
// of the for-condition (a loop-control unit) is retried at call level in
// both DOALL workers and the pipeline dispatcher.
func TestTransientLoopControlRecovers(t *testing.T) {
	cp := compileFor(t, boundedLoop, 8)
	_, seqOut := cp.seqRun(t)
	plan := faults.Plan{Name: "transient-control", Seed: 5, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Transient, Builtin: "bound", After: 7, Count: 2},
	}}
	for _, kind := range []transform.Kind{transform.DOALL, transform.PSDSWP} {
		if cp.sched[kind] == nil {
			continue
		}
		cfg, w := cp.faulted(plan, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[kind], exec.SyncSpin, 4)
		if err != nil {
			t.Fatalf("%v: recoverable run failed: %v", kind, err)
		}
		if res.CallRetries == 0 {
			t.Errorf("%v: no call retries recorded", kind)
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%v: final total differs: %v vs %v", kind, w.prints, seqOut)
		}
	}
}

// TestIterationReexecution: a burst longer than the call-retry budget forces
// DOALL iteration-granular re-execution. digest is the first operation of
// the iteration body, so nothing has been externalized when it fails and
// the iteration can be rolled back and re-run.
func TestIterationReexecution(t *testing.T) {
	cp := compileFor(t, `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int last = -1;
	int total = 0;
	for (int i = 0; i < 16; i++) {
		last = digest(i);
		#pragma commset member FSET(i), SELF
		{ total += last; }
	}
	print_int(last);
	print_int(total);
}`, 4)
	_, seqOut := cp.seqRun(t)
	plan := faults.Plan{Name: "long-burst", Seed: 2, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Transient, Builtin: "digest", After: 5, Count: 6},
	}}
	// 3 call retries → 4 calls per body attempt; a 6-call burst therefore
	// needs iteration re-execution to clear.
	cfg, w := cp.faulted(plan, exec.DefaultRecovery())
	res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 1)
	if err != nil {
		t.Fatalf("iteration re-execution failed: %v", err)
	}
	if res.IterRetries == 0 {
		t.Error("no iteration retries recorded")
	}
	if strings.Join(w.prints, ",") != strings.Join(seqOut, ",") {
		t.Errorf("output differs after iteration re-execution:\npar: %v\nseq: %v", w.prints, seqOut)
	}
}

// TestPermanentFaultDiagnosed: a permanent fault must terminate every
// schedule kind with a diagnosed *exec.FailureDiag naming the failing
// simulated thread and wrapping the injected *faults.Error — never hang.
func TestPermanentFaultDiagnosed(t *testing.T) {
	for _, src := range []string{md5Full, md5Det} {
		cp := compileFor(t, src, 8)
		plan := faults.Plan{Name: "perm", Seed: 3, Specs: []faults.Spec{
			{Kind: faults.Permanent, Builtin: "*", After: 60},
		}}
		for _, kind := range []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP} {
			if cp.sched[kind] == nil {
				continue
			}
			for _, mode := range allSyncModes {
				cfg, _ := cp.faulted(plan, exec.DefaultRecovery())
				_, err := exec.Run(cfg, cp.la, cp.sched[kind], mode, 4)
				if err == nil {
					t.Fatalf("%v/%v: permanent fault not diagnosed", kind, mode)
				}
				var diag *exec.FailureDiag
				if !errors.As(err, &diag) {
					t.Fatalf("%v/%v: err = %T %v, want *exec.FailureDiag", kind, mode, err, err)
				}
				var fe *faults.Error
				if !errors.As(err, &fe) || fe.IsTransient() {
					t.Errorf("%v/%v: diagnosis does not wrap the permanent fault: %v", kind, mode, err)
				}
				if diag.Thread == "" {
					t.Errorf("%v/%v: diagnosis does not name the failing thread", kind, mode)
				}
			}
		}
	}
}

// TestMergeStagePermanentFault: the in-order merge stage dying must shut the
// pipeline down in order (poison-pill stops), not deadlock, and diagnose
// the stage by name.
func TestMergeStagePermanentFault(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	plan := faults.Plan{Name: "merge-perm", Seed: 4, Specs: []faults.Spec{
		{Kind: faults.Permanent, Builtin: "print_int", After: 5},
	}}
	for _, kind := range []transform.Kind{transform.DSWP, transform.PSDSWP} {
		if cp.sched[kind] == nil {
			continue
		}
		cfg, _ := cp.faulted(plan, exec.DefaultRecovery())
		_, err := exec.Run(cfg, cp.la, cp.sched[kind], exec.SyncSpin, 4)
		var diag *exec.FailureDiag
		if !errors.As(err, &diag) {
			t.Fatalf("%v: err = %v, want *exec.FailureDiag", kind, err)
		}
		if !strings.Contains(diag.Thread, "stage") {
			t.Errorf("%v: diagnosis names %q, want a stage worker", kind, diag.Thread)
		}
	}
}

// TestSequentialFallback: when the parallel schedule keeps failing on a
// permanent fault that a fresh (clean) substrate does not reproduce, the
// resilient runner degrades to a sequential re-run and validates its output.
func TestSequentialFallback(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)

	attempt := 0
	var lastW *world
	fresh := func() exec.Config {
		attempt++
		w := &world{}
		lastW = w
		cfg := cp.cfg
		cfg.Builtins = w.builtins()
		cfg.Recovery = exec.DefaultRecovery()
		if attempt == 1 {
			// Only the parallel attempt sees the (environmental) fault.
			inj := faults.NewInjector(faults.Plan{Seed: 1, Specs: []faults.Spec{
				{Kind: faults.Permanent, Builtin: "digest", After: 5},
			}})
			cfg.Builtins = inj.Wrap(cfg.Builtins)
		}
		return cfg
	}
	accept := func(parallel bool) error {
		if lastW.prints[len(lastW.prints)-1] != seqOut[len(seqOut)-1] {
			return fmt.Errorf("final total differs")
		}
		if !parallel && strings.Join(lastW.prints, ",") != strings.Join(seqOut, ",") {
			return fmt.Errorf("sequential fallback output differs")
		}
		return nil
	}
	res, err := exec.RunResilient(exec.ResilientOptions{
		LA:      cp.la,
		Sched:   cp.sched[transform.DOALL],
		Mode:    exec.SyncSpin,
		Threads: 4,
		Fresh:   fresh,
		Accept:  accept,
	})
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if !res.FellBack || !res.Recovered {
		t.Errorf("FellBack=%v Recovered=%v, want true/true", res.FellBack, res.Recovered)
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (permanent fault skips straight to fallback)", res.Attempts)
	}
	if !strings.Contains(res.Schedule, "fallback") {
		t.Errorf("Schedule = %q, want fallback marker", res.Schedule)
	}
}

// TestTransientFailureFallsBackAfterOneAttempt: a transient fault that
// outlasts the call and iteration retries fails the parallel attempt, and
// RunResilient goes straight to the sequential fallback instead of
// replaying the parallel schedule.
func TestTransientFailureFallsBackAfterOneAttempt(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	burst := faults.Plan{Name: "long-burst", Seed: 1, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Transient, Builtin: "digest", After: 5, Count: 100},
	}}
	cfg, _ := cp.faulted(burst, exec.DefaultRecovery())
	if _, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4); !exec.IsTransient(err) {
		t.Fatalf("burst run: err = %v, want a transient failure", err)
	}
	attempt := 0
	var lastW *world
	fresh := func() exec.Config {
		attempt++
		plan := faults.Plan{Name: "clean", Seed: 1}
		if attempt == 1 {
			plan = burst // only the first attempt sees the burst
		}
		cfg, w := cp.faulted(plan, exec.DefaultRecovery())
		lastW = w
		return cfg
	}
	res, err := exec.RunResilient(exec.ResilientOptions{
		LA:      cp.la,
		Sched:   cp.sched[transform.DOALL],
		Mode:    exec.SyncSpin,
		Threads: 4,
		Fresh:   fresh,
		Accept: func(parallel bool) error {
			if strings.Join(sortedCopy(lastW.prints), ",") != strings.Join(sortedCopy(seqOut), ",") {
				return fmt.Errorf("output differs")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("RunResilient: %v", err)
	}
	if !res.FellBack || res.Attempts != 2 || !strings.HasSuffix(res.Schedule, "(sequential fallback)") {
		t.Errorf("FellBack=%v Attempts=%d Schedule=%q, want a sequential fallback on the second attempt",
			res.FellBack, res.Attempts, res.Schedule)
	}
}

// TestFallbackAlsoFailingIsDiagnosed: when the fault reproduces in the
// sequential fallback too, RunResilient must return a diagnosed error that
// reports both failures — never a hang or panic.
func TestFallbackAlsoFailingIsDiagnosed(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	plan := faults.Plan{Name: "perm-everywhere", Seed: 9, Specs: []faults.Spec{
		{Kind: faults.Permanent, Builtin: "digest", After: 5},
	}}
	fresh := func() exec.Config {
		cfg, _ := cp.faulted(plan, exec.DefaultRecovery())
		return cfg
	}
	_, err := exec.RunResilient(exec.ResilientOptions{
		LA:      cp.la,
		Sched:   cp.sched[transform.DOALL],
		Mode:    exec.SyncSpin,
		Threads: 4,
		Fresh:   fresh,
	})
	if err == nil {
		t.Fatal("fault reproducing in the fallback not diagnosed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "sequential fallback failed") || !strings.Contains(msg, "injected permanent fault") {
		t.Errorf("diagnosis = %v", err)
	}
}

// TestQueueStallSlowsPipeline: queue-stall faults must show up as added
// virtual latency on pipeline runs, without changing the output.
func TestQueueStallSlowsPipeline(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	if cp.sched[transform.PSDSWP] == nil {
		t.Skip("no PS-DSWP")
	}
	_, seqOut := cp.seqRun(t)
	run := func(plan faults.Plan) (int64, []string) {
		cfg, w := cp.faulted(plan, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.PSDSWP], exec.SyncSpin, 4)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.VirtualTime, w.prints
	}
	clean, cleanOut := run(faults.Plan{Name: "clean", Seed: 1})
	stalled, stallOut := run(faults.Plan{Name: "stall", Seed: 1, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.QueueStall, Queue: "q", After: 1, Count: 20, Delay: 5000},
	}})
	if stalled <= clean {
		t.Errorf("queue stall did not slow the pipeline: %d <= %d", stalled, clean)
	}
	if strings.Join(cleanOut, ",") != strings.Join(seqOut, ",") ||
		strings.Join(stallOut, ",") != strings.Join(seqOut, ",") {
		t.Error("queue stall changed the in-order output")
	}
}

// TestTMStormSlowsCommits: synthetic conflict storms must charge extra
// abort-retry time on TM runs without changing the output.
func TestTMStormSlowsCommits(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	run := func(plan faults.Plan) (int64, []string) {
		cfg, w := cp.faulted(plan, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncTM, 4)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.VirtualTime, w.prints
	}
	clean, _ := run(faults.Plan{Name: "clean", Seed: 1})
	stormy, out := run(faults.Plan{Name: "storm", Seed: 1, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.TMStorm, After: 1, Count: 40, Aborts: 3},
	}})
	if stormy <= clean {
		t.Errorf("TM storm did not slow commits: %d <= %d", stormy, clean)
	}
	if out[len(out)-1] != seqOut[len(seqOut)-1] {
		t.Error("TM storm changed the final total")
	}
}

// TestLatencySpikeChargesTime: latency faults add virtual time, nothing else.
func TestLatencySpikeChargesTime(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	run := func(plan faults.Plan) int64 {
		cfg, _ := cp.faulted(plan, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.VirtualTime
	}
	clean := run(faults.Plan{Name: "clean", Seed: 1})
	spiked := run(faults.Plan{Name: "spike", Seed: 1, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Latency, Builtin: "digest", After: 3, Count: 5, Delay: 100000},
	}})
	if spiked <= clean {
		t.Errorf("latency spikes did not add virtual time: %d <= %d", spiked, clean)
	}
}

// TestWatchdogWiredThroughConfig: an impossible virtual-time budget must
// convert the run into a diagnosed des.StallError.
func TestWatchdogWiredThroughConfig(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	cfg := cp.cfg
	w := &world{}
	cfg.Builtins = w.builtins()
	cfg.Watchdog = des.Watchdog{MaxVTime: 500}
	_, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4)
	var se *des.StallError
	if !errors.As(err, &se) || se.Kind != "watchdog" {
		t.Fatalf("err = %v, want watchdog StallError", err)
	}
}

// TestFaultsUnderTunedSchedules: recovery must compose with the adaptive
// schedules — transient bursts under chunked/privatized DOALL and
// queue-stall + transient mixes under batched pipelines, across two
// workloads, still recover to sequential-equivalent output.
func TestFaultsUnderTunedSchedules(t *testing.T) {
	workloads := []struct {
		name string
		src  string
	}{{"md5Full", md5Full}, {"md5Det", md5Det}}
	for _, wl := range workloads {
		cp := compileFor(t, wl.src, 8)
		_, seqOut := cp.seqRun(t)

		// Chunked + privatized DOALL under a transient burst.
		doallPlan := faults.Plan{Name: "tuned-burst", Seed: 21, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Transient, Builtin: "digest", After: 5, Count: 2},
		}}
		for _, tune := range []transform.Tuning{
			{Chunk: 4},
			{Chunk: 4, Privatize: true},
		} {
			if cp.sched[transform.DOALL] == nil {
				break // e.g. md5Det's Group-only print forbids DOALL
			}
			cfg, w := cp.faulted(doallPlan, exec.DefaultRecovery())
			cfg.Tune = tune
			res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
			if err != nil {
				t.Fatalf("%s DOALL %s: recoverable run failed: %v", wl.name, tune, err)
			}
			if res.CallRetries == 0 {
				t.Errorf("%s DOALL %s: no call retries recorded", wl.name, tune)
			}
			if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
				t.Errorf("%s DOALL %s: final total differs after recovery", wl.name, tune)
			}
			a, b := sortedCopy(w.prints), sortedCopy(seqOut)
			if strings.Join(a, ",") != strings.Join(b, ",") {
				t.Errorf("%s DOALL %s: output multiset differs after recovery", wl.name, tune)
			}
		}

		// Batched pipeline under queue stalls plus a transient burst.
		pipePlan := faults.Plan{Name: "tuned-stall", Seed: 22, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.QueueStall, After: 1, Count: 10, Delay: 3000},
			{Kind: faults.Transient, Builtin: "digest", After: 9, Count: 2},
		}}
		for _, kind := range []transform.Kind{transform.DSWP, transform.PSDSWP} {
			if cp.sched[kind] == nil {
				continue
			}
			cfg, w := cp.faulted(pipePlan, exec.DefaultRecovery())
			cfg.Tune = transform.Tuning{Batch: 8}
			_, err := exec.Run(cfg, cp.la, cp.sched[kind], exec.SyncSpin, 4)
			if err != nil {
				t.Fatalf("%s %v batch(8): recoverable run failed: %v", wl.name, kind, err)
			}
			if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
				t.Errorf("%s %v batch(8): final total differs after recovery", wl.name, kind)
			}
			a, b := sortedCopy(w.prints), sortedCopy(seqOut)
			if strings.Join(a, ",") != strings.Join(b, ",") {
				t.Errorf("%s %v batch(8): output multiset differs after recovery", wl.name, kind)
			}
		}
	}
}

// TestPermanentFaultDiagnosedTuned: a permanent fault under chunked DOALL
// and batched pipelines must still shut down in order with a diagnosis —
// batching buffers must not withhold the poison pill.
func TestPermanentFaultDiagnosedTuned(t *testing.T) {
	for _, src := range []string{md5Full, md5Det} {
		cp := compileFor(t, src, 8)
		plan := faults.Plan{Name: "tuned-perm", Seed: 23, Specs: []faults.Spec{
			{Kind: faults.Permanent, Builtin: "*", After: 60},
		}}
		tunes := map[transform.Kind]transform.Tuning{
			transform.DOALL:  {Chunk: 4, Privatize: true},
			transform.DSWP:   {Batch: 8},
			transform.PSDSWP: {Batch: 8},
		}
		for kind, tune := range tunes {
			if cp.sched[kind] == nil {
				continue
			}
			cfg, _ := cp.faulted(plan, exec.DefaultRecovery())
			cfg.Tune = tune
			_, err := exec.Run(cfg, cp.la, cp.sched[kind], exec.SyncSpin, 4)
			if err == nil {
				t.Fatalf("%v %s: permanent fault not diagnosed", kind, tune)
			}
			var diag *exec.FailureDiag
			if !errors.As(err, &diag) {
				t.Fatalf("%v %s: err = %T %v, want *exec.FailureDiag", kind, tune, err, err)
			}
		}
	}
}

// TestResilientDeterminism is the acceptance property: same plan + seed →
// identical makespan, retry counts, output, and (for permanent plans)
// identical diagnostics.
func TestResilientDeterminism(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	recov := faults.Plan{Name: "mix", Seed: 77, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Transient, Builtin: "digest", Prob: 0.05},
		{Kind: faults.Latency, Builtin: "fread", Prob: 0.1, Delay: 900},
		{Kind: faults.QueueStall, Prob: 0.1, Delay: 1200},
	}}
	runOnce := func() string {
		cfg, w := cp.faulted(recov, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.PSDSWP], exec.SyncSpin, 4)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return fmt.Sprintf("t=%d cr=%d ir=%d out=%s",
			res.VirtualTime, res.CallRetries, res.IterRetries, strings.Join(w.prints, ","))
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("recoverable run not deterministic:\n%s\n%s", a, b)
	}

	perm := faults.Plan{Name: "perm", Seed: 13, Specs: []faults.Spec{
		{Kind: faults.Permanent, Builtin: "*", Prob: 0.01},
	}}
	failOnce := func() string {
		cfg, _ := cp.faulted(perm, exec.DefaultRecovery())
		_, err := exec.Run(cfg, cp.la, cp.sched[transform.PSDSWP], exec.SyncSpin, 4)
		if err == nil {
			t.Fatal("permanent plan did not fail")
		}
		return err.Error()
	}
	if a, b := failOnce(), failOnce(); a != b {
		t.Errorf("diagnostics not deterministic:\n%s\n%s", a, b)
	}
}
