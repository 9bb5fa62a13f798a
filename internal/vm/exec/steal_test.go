package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/transform"
	"repro/internal/vm/exec"
)

// stealCfg builds a config with the straggler hook and — when the plan can
// kill a thread — the crash layer armed, mirroring the bench harness.
func (cp *compiled) stealCfg(plan faults.Plan, rec *exec.Recovery, tune transform.Tuning) (exec.Config, *world) {
	w := &world{}
	inj := faults.NewInjector(plan)
	cfg := cp.cfg
	cfg.Builtins = inj.Wrap(w.builtins())
	cfg.Recovery = rec
	cfg.Effectful = map[string]bool{"fopen_i": true, "fread": true, "fclose": true, "print_int": true}
	if plan.HasCrash() {
		cfg.CrashCheck = inj.CrashNow
	}
	if plan.HasStraggler() {
		cfg.Straggle = inj.SlowNow
	}
	cfg.Tune = tune
	return cfg, w
}

// slowPlan slows one worker by factor for its whole loop (After 1, an
// effectively unbounded window).
func slowPlan(thread string, factor float64) faults.Plan {
	return faults.Plan{Name: "slow", Seed: 11, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Straggler, Thread: thread, After: 1, Count: 1 << 20, Factor: factor},
	}}
}

// TestDOALLStealRepairsStraggler: with one worker slowed 4x for the whole
// loop, enabling work stealing must strip the straggler's un-started range
// and finish well under the steal-disabled time, with the exact sequential
// output multiset.
func TestDOALLStealRepairsStraggler(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	plan := slowPlan("doall.1", 4)

	times := map[bool]int64{}
	for _, steal := range []bool{false, true} {
		cfg, w := cp.stealCfg(plan, exec.DefaultRecovery(), transform.Tuning{Steal: steal})
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
		if err != nil {
			t.Fatalf("steal=%v: %v", steal, err)
		}
		times[steal] = res.VirtualTime
		if steal && res.Steals == 0 {
			t.Error("steal-enabled straggler run granted no steals")
		}
		if !steal && res.Steals != 0 {
			t.Errorf("steal-disabled run granted %d steals", res.Steals)
		}
		if len(res.WorkerJoins) != 4 {
			t.Errorf("steal=%v: %d worker joins, want 4", steal, len(res.WorkerJoins))
		}
		a, b := sortedCopy(w.prints), sortedCopy(seqOut)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("steal=%v: output multiset differs:\npar: %v\nseq: %v", steal, a, b)
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("steal=%v: final total differs", steal)
		}
	}
	if times[true] >= times[false] {
		t.Fatalf("stealing did not repair the straggler: %d >= %d", times[true], times[false])
	}
	if ratio := float64(times[true]) / float64(times[false]); ratio > 0.75 {
		t.Errorf("steal-on/steal-off ratio %.2f, want <= 0.75 (%d vs %d)", ratio, times[true], times[false])
	}
}

// TestStealCleanRunUndisturbed: with no faults injected, enabling stealing
// must not change the output, and any tail steals it performs must not slow
// the loop down.
func TestStealCleanRunUndisturbed(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	base, _ := cp.parRun(t, transform.DOALL, exec.SyncMutex, 4)

	cfg, w := cp.stealCfg(faults.Plan{Name: "clean", Seed: 1}, nil, transform.Tuning{Steal: true})
	res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualTime > base {
		t.Errorf("steal-enabled clean run slower than baseline: %d > %d", res.VirtualTime, base)
	}
	a, b := sortedCopy(w.prints), sortedCopy(seqOut)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("output multiset differs:\npar: %v\nseq: %v", a, b)
	}
}

// TestStealDeterminism is the acceptance property for the steal layer: the
// same seed and plan must reproduce bit-identical makespans, steal counts,
// restart histories, and outputs — stealing enabled throughout.
func TestStealDeterminism(t *testing.T) {
	cells := []struct {
		name string
		plan faults.Plan
		tune transform.Tuning
	}{
		{"straggler", slowPlan("doall.1", 4), transform.Tuning{Steal: true}},
		{"straggler-8x-chunked", slowPlan("doall.2", 8),
			transform.Tuning{Steal: true, Chunk: 4}},
		{"straggler+crash", func() faults.Plan {
			p := slowPlan("doall.1", 4)
			p.Specs = append(p.Specs, faults.Spec{Kind: faults.Crash, Thread: "doall.2", After: 3})
			return p
		}(), transform.Tuning{Steal: true, Privatize: true}},
		{"straggler+perm-crash", func() faults.Plan {
			p := slowPlan("doall.1", 4)
			p.Specs = append(p.Specs, faults.Spec{Kind: faults.Crash, Thread: "doall.3", After: 4, Permanent: true})
			return p
		}(), transform.Tuning{Steal: true, Chunk: 4, Privatize: true}},
	}
	for _, c := range cells {
		cp := compileFor(t, md5Full, 8)
		runOnce := func() string {
			cfg, w := cp.stealCfg(c.plan, exec.DefaultRecovery(), c.tune)
			res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
			if err != nil {
				return fmt.Sprintf("err=%v", err)
			}
			return fmt.Sprintf("t=%d steals=%d restarts=%d repart=%d hist=%v joins=%v out=%s",
				res.VirtualTime, res.Steals, res.Restarts, res.Repartitioned,
				res.RestartHistory, res.WorkerJoins, strings.Join(sortedCopy(w.prints), ","))
		}
		if a, b := runOnce(), runOnce(); a != b {
			t.Errorf("%s: steal run not deterministic:\n%s\n%s", c.name, a, b)
		}
	}
}

// TestStealUnderTunedSchedules: stealing must compose with the chunked
// iteration schedule and with privatized shadows — same output
// multiset as the sequential run, and each privatized shadow merged exactly
// once per worker chain despite ranges migrating between chains.
func TestStealUnderTunedSchedules(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	plan := slowPlan("doall.1", 4)
	for _, tune := range []transform.Tuning{
		{Steal: true},
		{Steal: true, Chunk: 4},
		{Steal: true, Chunk: 4, Privatize: true},
	} {
		cfg, w := cp.stealCfg(plan, exec.DefaultRecovery(), tune)
		res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
		if err != nil {
			t.Fatalf("%s: %v", tune, err)
		}
		if tune.Privatize {
			// One bulk merge per worker chain with a non-empty shadow;
			// adopted sweeps accumulate into the thief's existing shadow
			// rather than adding merges.
			if res.PrivMerges < 1 || res.PrivMerges > 4 {
				t.Errorf("%s: PrivMerges = %d outside [1,4]", tune, res.PrivMerges)
			}
		}
		a, b := sortedCopy(w.prints), sortedCopy(seqOut)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: output multiset differs:\npar: %v\nseq: %v", tune, a, b)
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%s: final total differs", tune)
		}
	}
}

// TestStealWithCrashPlans: stealing must compose with the crash/restart
// machinery — a slowed victim that also crashes transiently restarts and is
// still stripped by thieves; a permanent crash of a fast peer degrades and
// re-partitions while the straggler is robbed in parallel.
func TestStealWithCrashPlans(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)

	check := func(name string, w *world, res *exec.Result) {
		t.Helper()
		a, b := sortedCopy(w.prints), sortedCopy(seqOut)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s: output multiset differs:\npar: %v\nseq: %v", name, a, b)
		}
		if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%s: final total differs", name)
		}
	}

	// Transient crash of the straggler itself.
	p1 := slowPlan("doall.1", 4)
	p1.Specs = append(p1.Specs, faults.Spec{Kind: faults.Crash, Thread: "doall.1", After: 3})
	cfg, w := cp.stealCfg(p1, exec.DefaultRecovery(), transform.Tuning{Steal: true})
	res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
	if err != nil {
		t.Fatalf("straggler+transient: %v", err)
	}
	if res.Restarts != 1 || !res.Recovered {
		t.Errorf("straggler+transient: Restarts=%d Recovered=%v, want 1/true", res.Restarts, res.Recovered)
	}
	check("straggler+transient", w, res)

	// Permanent crash of a fast peer while the straggler is being robbed.
	p2 := slowPlan("doall.1", 4)
	p2.Specs = append(p2.Specs, faults.Spec{Kind: faults.Crash, Thread: "doall.2", After: 4, Permanent: true})
	cfg, w = cp.stealCfg(p2, exec.DefaultRecovery(), transform.Tuning{Steal: true})
	res, err = exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
	if err != nil {
		t.Fatalf("straggler+perm: %v", err)
	}
	if !res.Degraded || res.Repartitioned != 1 {
		t.Errorf("straggler+perm: Degraded=%v Repartitioned=%d, want true/1", res.Degraded, res.Repartitioned)
	}
	check("straggler+perm", w, res)
}

// TestStealThiefCrashExactlyOnce: a thief that crashes while working an
// adopted range must restart from the checkpoint taken at adoption and
// re-run only the stolen range — no iteration lost, none duplicated, and
// each privatized shadow still merged exactly once.
func TestStealThiefCrashExactlyOnce(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	_, seqOut := cp.seqRun(t)
	// Slow worker 1 hard so its range migrates early; kill worker 2 at a
	// tick past its own 32-pass sweep, which can only land inside a sweep
	// it adopted from the straggler.
	plan := slowPlan("doall.1", 8)
	plan.Specs = append(plan.Specs, faults.Spec{Kind: faults.Crash, Thread: "doall.2", After: 34})
	tune := transform.Tuning{Steal: true, Chunk: 4, Privatize: true}
	cfg, w := cp.stealCfg(plan, exec.DefaultRecovery(), tune)
	res, err := exec.Run(cfg, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 4)
	if err != nil {
		t.Fatalf("thief crash not absorbed: %v", err)
	}
	if res.Steals == 0 {
		t.Fatal("no steals granted; crash tick 34 never reached an adopted sweep")
	}
	if res.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1 (thief restarted from its adoption checkpoint)", res.Restarts)
	}
	if res.PrivMerges != 4 {
		t.Errorf("PrivMerges = %d, want 4 (exactly-once merge per worker chain)", res.PrivMerges)
	}
	a, b := sortedCopy(w.prints), sortedCopy(seqOut)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("output multiset differs after thief crash:\npar: %v\nseq: %v", a, b)
	}
	if w.prints[len(w.prints)-1] != seqOut[len(seqOut)-1] {
		t.Error("final total differs after thief crash (lost or duplicated iteration)")
	}
}
