package exec_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/transform"
	"repro/internal/vm/exec"
)

// crashed builds a faulted config with the crash layer armed whenever the
// plan contains a Crash spec (mirroring how the bench harness wires it).
func (cp *compiled) crashed(plan faults.Plan, rec *exec.Recovery) (exec.Config, *world) {
	w := &world{}
	inj := faults.NewInjector(plan)
	cfg := cp.cfg
	cfg.Builtins = inj.Wrap(w.builtins())
	cfg.Recovery = rec
	cfg.PushDelay = inj.QueueDelay
	cfg.ExtraAborts = inj.ExtraAborts
	cfg.Effectful = map[string]bool{"fopen_i": true, "fread": true, "fclose": true, "print_int": true}
	if plan.HasCrash() {
		cfg.CrashCheck = inj.CrashNow
	}
	return cfg, w
}

func crashPlan(thread string, after int, perm bool) faults.Plan {
	name := "crash-transient"
	if perm {
		name = "crash-perm"
	}
	return faults.Plan{Name: name, Seed: 31, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Crash, Thread: thread, After: after, Permanent: perm},
	}}
}

// TestDOALLTransientCrashRecovers: killing one DOALL worker mid-loop must be
// absorbed by a checkpoint restart — same output multiset and final total as
// the sequential run, restart recorded, under every sync mode.
func TestDOALLTransientCrashRecovers(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	plan := crashPlan("doall.1", 3, false)
	for _, mode := range allSyncModes {
		cfg, w := cp.crashed(plan, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], mode, 4)
		if err != nil {
			t.Fatalf("%v: crash not recovered: %v", mode, err)
		}
		if res.Restarts != 1 {
			t.Errorf("%v: Restarts = %d, want 1", mode, res.Restarts)
		}
		if !res.Recovered {
			t.Errorf("%v: Recovered not set", mode)
		}
		if len(res.RestartHistory) != 1 {
			t.Fatalf("%v: RestartHistory = %v, want 1 entry", mode, res.RestartHistory)
		}
		r := res.RestartHistory[0]
		if r.Thread != "doall.1" || r.Permanent || r.VTime <= 0 || r.Replayed != r.CkptAge {
			t.Errorf("%v: bad restart record %+v", mode, r)
		}
		if r.RecoveredVTime <= r.VTime {
			t.Errorf("%v: restart record %+v has no recovery time after the death", mode, r)
		}
		if !strings.Contains(r.String(), "restarted") {
			t.Errorf("%v: record rendering %q lacks 'restarted'", mode, r.String())
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%v: final total differs after restart", mode)
		}
		a, b := sortedCopy(w.prints), sortedCopy(seqOut)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%v: output multiset differs after restart:\npar: %v\nseq: %v", mode, a, b)
		}
	}
}

// TestDOALLPermanentCrashDegrades: a permanently dead worker's remaining
// iterations are re-partitioned across the survivors; the run completes
// degraded with sequential-equivalent output.
func TestDOALLPermanentCrashDegrades(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	plan := crashPlan("doall.1", 3, true)
	for _, mode := range allSyncModes {
		cfg, w := cp.crashed(plan, exec.DefaultRecovery())
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], mode, 4)
		if err != nil {
			t.Fatalf("%v: degraded run failed: %v", mode, err)
		}
		if res.Repartitioned != 1 || !res.Degraded {
			t.Errorf("%v: Repartitioned=%d Degraded=%v, want 1/true", mode, res.Repartitioned, res.Degraded)
		}
		if len(res.RestartHistory) != 1 || !res.RestartHistory[0].Permanent {
			t.Errorf("%v: RestartHistory = %v, want one permanent record", mode, res.RestartHistory)
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%v: final total differs after re-partition", mode)
		}
		a, b := sortedCopy(w.prints), sortedCopy(seqOut)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%v: output multiset differs after re-partition:\npar: %v\nseq: %v", mode, a, b)
		}
	}
}

// TestDOALLSalvageShares: a permanently dead worker's remaining iterations
// run as salvage shares, one per survivor, each a sweep of its own role
// salvage.<worker>.<share>. A crash of a share fails the run with a
// diagnosis naming it; a straggling share keeps the output
// sequential-equivalent and stretches the makespan.
func TestDOALLSalvageShares(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	run := func(extra ...faults.Spec) (*exec.Result, *world, error) {
		plan := crashPlan("doall.1", 3, true)
		plan.Specs = append(plan.Specs, extra...)
		cfg, w := cp.stealCfg(plan, exec.DefaultRecovery(), transform.Tuning{})
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
		return res, w, err
	}
	base, _, err := run()
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}

	_, _, err = run(faults.Spec{Kind: faults.Crash, Thread: "salvage.1.0", After: 2})
	var diag *exec.FailureDiag
	if !errors.As(err, &diag) || diag.Thread != "salvage.1.0" || !strings.Contains(err.Error(), "injected crash during salvage") {
		t.Fatalf("salvage crash: err = %v, want a FailureDiag naming salvage.1.0 and the salvage crash", err)
	}

	slow, w, err := run(faults.Spec{Kind: faults.Straggler, Thread: "salvage.1.1", After: 1, Count: 1 << 20, Factor: 4})
	if err != nil {
		t.Fatalf("straggling salvage: %v", err)
	}
	if slow.VirtualTime <= base.VirtualTime {
		t.Errorf("straggling salvage share: makespan %d, want more than the %d without the straggler", slow.VirtualTime, base.VirtualTime)
	}
	if a, b := sortedCopy(w.prints), sortedCopy(seqOut); strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("straggling salvage share: output multiset differs:\npar: %v\nseq: %v", a, b)
	}
}

// TestDOALLRepeatedCrashExhaustsBudget: a crash window that keeps killing
// the replacements must escalate to permanent once the restart budget (3
// per role) is spent, then recover through re-partitioning.
func TestDOALLRepeatedCrashExhaustsBudget(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	plan := faults.Plan{Name: "crash-repeat", Seed: 7, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Crash, Thread: "doall.1", After: 2, Count: 8},
	}}
	cfg, w := cp.crashed(plan, exec.DefaultRecovery())
	res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4)
	if err != nil {
		t.Fatalf("escalated crash not absorbed: %v", err)
	}
	if res.Restarts != 3 {
		t.Errorf("Restarts = %d, want 3 (budget)", res.Restarts)
	}
	if res.Repartitioned != 1 || !res.Degraded {
		t.Errorf("Repartitioned=%d Degraded=%v, want 1/true after budget exhaustion", res.Repartitioned, res.Degraded)
	}
	last := res.RestartHistory[len(res.RestartHistory)-1]
	if !last.Permanent {
		t.Errorf("last restart record %+v not permanent", last)
	}
	a, b := sortedCopy(w.prints), sortedCopy(seqOut)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("output multiset differs after escalation:\npar: %v\nseq: %v", a, b)
	}
}

// TestDOALLCrashUnderTunedSchedules: crash recovery must compose with the
// chunked iteration schedule and with privatized shadows — and each
// privatized shadow must be merged exactly once despite the restart.
func TestDOALLCrashUnderTunedSchedules(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	for _, tc := range []struct {
		tune transform.Tuning
		perm bool
	}{
		{transform.Tuning{Chunk: 4}, false},
		{transform.Tuning{Chunk: 4, Privatize: true}, false},
		{transform.Tuning{Chunk: 4, Privatize: true}, true},
	} {
		plan := crashPlan("doall.1", 2, tc.perm)
		cfg, w := cp.crashed(plan, exec.DefaultRecovery())
		cfg.Tune = tc.tune
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
		if err != nil {
			t.Fatalf("%s perm=%v: crash not absorbed: %v", tc.tune, tc.perm, err)
		}
		if tc.perm && !res.Degraded {
			t.Errorf("%s: permanent crash did not degrade", tc.tune)
		}
		if !tc.perm && res.Restarts != 1 {
			t.Errorf("%s: Restarts = %d, want 1", tc.tune, res.Restarts)
		}
		if tc.tune.Privatize && !tc.perm {
			// One bulk merge per worker role with a non-empty shadow: the
			// dead incarnation never merges, its replacement merges once.
			if res.PrivMerges != 4 {
				t.Errorf("%s: PrivMerges = %d, want 4 (exactly-once merge)", tc.tune, res.PrivMerges)
			}
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%s perm=%v: final total differs (double or lost merge?)", tc.tune, tc.perm)
		}
		a, b := sortedCopy(w.prints), sortedCopy(seqOut)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s perm=%v: output multiset differs:\npar: %v\nseq: %v", tc.tune, tc.perm, a, b)
		}
	}
}

// TestStageTransientCrashRecovers: killing a pipeline stage worker must be
// absorbed by a checkpoint restart that replays the in-flight tokens; the
// in-order output (md5Det's deterministic print stage) must match the
// sequential run exactly.
//
// With Count 2 the replacement dies too, at its first tick, and restarts
// from the checkpoint its predecessor restored: a repeated stage crash is
// where a checkpoint overwritten in place could hand over the wrong state.
func TestStageTransientCrashRecovers(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	_, seqOut := cp.seqRun(t)
	repeated := crashPlan("stage1.0", 3, false)
	repeated.Specs[0].Count = 2
	for _, kind := range []transform.Kind{transform.DSWP, transform.PSDSWP} {
		if cp.sched[kind] == nil {
			continue
		}
		for _, c := range []struct {
			plan     faults.Plan
			restarts int
		}{
			{crashPlan("stage1.0", 3, false), 1},
			{repeated, 2},
		} {
			cfg, w := cp.crashed(c.plan, exec.DefaultRecovery())
			res, err := exec.Run(cfg, cp.la, cp.sched[kind], exec.SyncSpin, 4)
			if err != nil {
				t.Fatalf("%v, %d crashes: stage crash not recovered: %v", kind, c.restarts, err)
			}
			if res.Restarts != c.restarts || !res.Recovered {
				t.Errorf("%v: Restarts=%d Recovered=%v, want %d/true", kind, res.Restarts, res.Recovered, c.restarts)
			}
			if len(res.RestartHistory) != c.restarts {
				t.Errorf("%v: restart history %+v, want %d records", kind, res.RestartHistory, c.restarts)
			}
			for _, r := range res.RestartHistory {
				if r.RecoveredVTime <= r.VTime {
					t.Errorf("%v: restart record %+v lacks a recovery time after the death", kind, r)
				}
			}
			if strings.Join(w.prints, ",") != strings.Join(seqOut, ",") {
				t.Errorf("%v, %d crashes: in-order output differs after stage restart:\npar: %v\nseq: %v", kind, c.restarts, w.prints, seqOut)
			}
		}
	}
}

// TestStageCrashWithBatchedQueues: a crash landing while batched queues hold
// in-flight partial batches must restore the batch residue on both sides —
// tokens in the dead worker's input buffer are replayed, tokens in its
// unflushed output buffer are regenerated exactly once.
func TestStageCrashWithBatchedQueues(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	_, seqOut := cp.seqRun(t)
	for _, kind := range []transform.Kind{transform.DSWP, transform.PSDSWP} {
		if cp.sched[kind] == nil {
			continue
		}
		for _, after := range []int{2, 5, 9} {
			plan := crashPlan("stage1.0", after, false)
			cfg, w := cp.crashed(plan, exec.DefaultRecovery())
			cfg.Tune = transform.Tuning{Batch: 8}
			res, err := exec.Run(cfg, cp.la, cp.sched[kind], exec.SyncSpin, 4)
			if err != nil {
				t.Fatalf("%v batch(8) after=%d: crash not recovered: %v", kind, after, err)
			}
			if res.Restarts == 0 {
				t.Errorf("%v batch(8) after=%d: no restart recorded", kind, after)
			}
			if strings.Join(w.prints, ",") != strings.Join(seqOut, ",") {
				t.Errorf("%v batch(8) after=%d: output differs:\npar: %v\nseq: %v", kind, after, w.prints, seqOut)
			}
		}
	}
}

// TestStagePermanentCrashDegrades: a pipeline cannot re-partition around a
// dead stage, so a permanent stage crash must diagnose non-transient (with
// the restart history attached) and RunResilient must collapse to the
// Accept-verified sequential fallback.
func TestStagePermanentCrashDegrades(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	_, seqOut := cp.seqRun(t)
	for _, kind := range []transform.Kind{transform.DSWP, transform.PSDSWP} {
		if cp.sched[kind] == nil {
			continue
		}
		plan := crashPlan("stage1.0", 3, true)

		// Direct Run: orderly shutdown with a non-transient diagnosis.
		cfg, _ := cp.crashed(plan, exec.DefaultRecovery())
		_, err := exec.Run(cfg, cp.la, cp.sched[kind], exec.SyncSpin, 4)
		var diag *exec.FailureDiag
		if !errors.As(err, &diag) {
			t.Fatalf("%v: err = %v, want *exec.FailureDiag", kind, err)
		}
		var ce *exec.CrashError
		if !errors.As(err, &ce) || ce.IsTransient() {
			t.Fatalf("%v: diagnosis does not wrap a permanent CrashError: %v", kind, err)
		}
		if len(diag.Restarts) != 1 || !diag.Restarts[0].Permanent || diag.Restarts[0].Thread != "stage1.0" {
			t.Errorf("%v: diagnosis restart history = %v", kind, diag.Restarts)
		}
		if !strings.Contains(diag.Error(), "restart history") {
			t.Errorf("%v: rendered diagnosis lacks restart history: %v", kind, diag)
		}

		// RunResilient: degraded sequential fallback, Accept-verified.
		var lastW *world
		fresh := func() exec.Config {
			c, w := cp.crashed(plan, exec.DefaultRecovery())
			lastW = w
			return c
		}
		accept := func(parallel bool) error {
			if strings.Join(lastW.prints, ",") != strings.Join(seqOut, ",") {
				return fmt.Errorf("output differs from sequential reference")
			}
			return nil
		}
		res, rerr := exec.RunResilient(exec.ResilientOptions{
			LA: cp.la, Sched: cp.sched[kind], Mode: exec.SyncSpin, Threads: 4,
			Fresh: fresh, Accept: accept,
		})
		if rerr != nil {
			t.Fatalf("%v: resilient degradation failed: %v", kind, rerr)
		}
		if !res.FellBack || !res.Degraded || !res.Recovered {
			t.Errorf("%v: FellBack=%v Degraded=%v Recovered=%v, want all true", kind, res.FellBack, res.Degraded, res.Recovered)
		}
		if res.Attempts != 2 {
			t.Errorf("%v: Attempts = %d, want 2 (permanent crash skips straight to fallback)", kind, res.Attempts)
		}
	}
}

// TestCrashDeterminism is the acceptance property: the same seed and plan
// must reproduce bit-identical makespans, restart histories, and outputs —
// including the recovery machinery's own virtual-time charges.
func TestCrashDeterminism(t *testing.T) {
	type cell struct {
		src   string
		kind  transform.Kind
		plan  faults.Plan
		tune  transform.Tuning
		multi bool // compare multiset instead of ordered output
	}
	cells := []cell{
		{md5Full, transform.DOALL, crashPlan("doall.1", 3, false), transform.Tuning{}, true},
		{md5Full, transform.DOALL, crashPlan("doall.2", 4, true), transform.Tuning{Chunk: 4, Privatize: true}, true},
		{md5Det, transform.PSDSWP, crashPlan("stage1.0", 5, false), transform.Tuning{Batch: 8}, false},
		{md5Det, transform.DSWP, crashPlan("stage1.0", 2, true), transform.Tuning{}, false},
	}
	for i, c := range cells {
		cp := compileFor(t, c.src, 8)
		if cp.sched[c.kind] == nil {
			continue
		}
		runOnce := func() string {
			cfg, w := cp.crashed(c.plan, exec.DefaultRecovery())
			cfg.Tune = c.tune
			res, err := exec.Run(cfg, cp.la, cp.sched[c.kind], exec.SyncSpin, 4)
			if err != nil {
				hist := ""
				var diag *exec.FailureDiag
				if errors.As(err, &diag) {
					hist = fmt.Sprintf("%v", diag.Restarts)
				}
				return fmt.Sprintf("err=%v hist=%s", err, hist)
			}
			out := strings.Join(w.prints, ",")
			if c.multi {
				out = strings.Join(sortedCopy(w.prints), ",")
			}
			return fmt.Sprintf("t=%d restarts=%d repart=%d hist=%v out=%s",
				res.VirtualTime, res.Restarts, res.Repartitioned, res.RestartHistory, out)
		}
		if a, b := runOnce(), runOnce(); a != b {
			t.Errorf("cell %d (%v): crash run not deterministic:\n%s\n%s", i, c.kind, a, b)
		}
	}
}

// TestCrashCheckpointTimingGated: with no crash plan armed the checkpoint
// layer must stay cold — identical virtual time to a run without the
// recovery config at all.
func TestCrashCheckpointTimingGated(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	base, _ := cp.parRun(t, transform.DOALL, exec.SyncSpin, 4)
	cfg, _ := cp.crashed(faults.Plan{Name: "clean", Seed: 1}, exec.DefaultRecovery())
	res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualTime != base {
		t.Errorf("crash-free run with recovery config drifted: %d != %d", res.VirtualTime, base)
	}

	// And an armed crash plan must charge recovery cost: the recovered run
	// is strictly slower than the crash-free one.
	ccfg, _ := cp.crashed(crashPlan("doall.1", 3, false), exec.DefaultRecovery())
	cres, err := exec.Run(ccfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cres.VirtualTime <= base {
		t.Errorf("recovered run not slower than crash-free: %d <= %d", cres.VirtualTime, base)
	}
}

// TestCrashLegacyModeFatal: without a Recovery policy a crash is a
// permanent death that fails the run — no supervisor, no restart, no
// salvage — and the run's FailureDiag wraps the CrashError.
func TestCrashLegacyModeFatal(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	cfg, _ := cp.crashed(crashPlan("doall.1", 3, false), nil)
	_, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 4)
	var ce *exec.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *exec.CrashError", err)
	}
	if ce.Thread != "doall.1" {
		t.Errorf("CrashError names %q, want doall.1", ce.Thread)
	}
}

// TestCrashRosterNamesRealRoles: CrashRoster must list exactly the worker
// roles the executor spawns, and Plan.Validate must reject plans that target
// anything else.
func TestCrashRosterNamesRealRoles(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	roster := exec.CrashRoster(cp.sched[transform.DOALL], 4)
	want := []string{"doall.0", "doall.1", "doall.2", "doall.3"}
	if strings.Join(roster, ",") != strings.Join(want, ",") {
		t.Errorf("DOALL roster = %v, want %v", roster, want)
	}
	ok := crashPlan("doall.3", 2, false)
	if err := ok.Validate(roster); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := crashPlan("doall.9", 2, false)
	if err := bad.Validate(roster); err == nil {
		t.Error("plan targeting nonexistent doall.9 not rejected")
	}

	cpd := compileFor(t, md5Det, 8)
	for _, kind := range []transform.Kind{transform.DSWP, transform.PSDSWP} {
		if cpd.sched[kind] == nil {
			continue
		}
		roster := exec.CrashRoster(cpd.sched[kind], 4)
		if !rosterContains(roster, "stage1.0") {
			t.Errorf("%v roster %v lacks stage1.0", kind, roster)
		}
		if rosterContains(roster, "stage0.0") {
			t.Errorf("%v roster %v lists the dispatcher", kind, roster)
		}
		sp := crashPlan("stage1.0", 2, false)
		if err := sp.Validate(roster); err != nil {
			t.Errorf("%v: valid plan rejected: %v", kind, err)
		}
	}
	if roster := exec.CrashRoster(nil, 4); roster != nil {
		t.Errorf("sequential roster = %v, want nil", roster)
	}
}

func rosterContains(roster []string, name string) bool {
	for _, r := range roster {
		if r == name {
			return true
		}
	}
	return false
}
