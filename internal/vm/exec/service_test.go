package exec_test

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
)

// svcSrc is the service-mode test program: an effectively unbounded loop (the
// arrival trace, not the loop bound, ends a service run) over the usual
// open/read/digest/close/print request body.
const svcSrc = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < 100000; i++) {
		int fp = 0;
		int raw = 0;
		#pragma commset member FSET(i), SELF
		{ fp = fopen_i(i); }
		#pragma commset member FSET(i), SELF
		{ raw = fread(fp); }
		int d = digest(raw);
		#pragma commset member FSET(i), SELF
		{
			fclose(fp);
			total += d;
		}
		#pragma commset member FSET(i), SELF
		{ print_int(d); }
	}
	print_int(total);
}
`

// svcDetSrc drops SELF from the print member, forcing an in-order print
// stage: the compiler schedules a pipeline.
const svcDetSrc = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < 100000; i++) {
		int fp = 0;
		int raw = 0;
		#pragma commset member FSET(i), SELF
		{ fp = fopen_i(i); }
		#pragma commset member FSET(i), SELF
		{ raw = fread(fp); }
		int d = digest(raw);
		#pragma commset member FSET(i), SELF
		{
			fclose(fp);
			total += d;
		}
		#pragma commset member FSET(i)
		{ print_int(d); }
	}
	print_int(total);
}
`

// Per-request sequential cost of svcSrc is ~20.4k virtual-time units
// (dominated by the 20k digest).
const svcReqCost = 20400

func checkBalance(t *testing.T, r *exec.ServiceResult) {
	t.Helper()
	sum := r.Completed + r.ShedBucket + r.ShedQueue + r.Abandoned + r.Rejected + r.Failed
	if sum != r.Generated {
		t.Errorf("accounting: generated %d != sum of buckets %d (%+v)", r.Generated, sum, r)
	}
}

func TestServiceDOALLCompletesAllUnderModerateLoad(t *testing.T) {
	cp := compileFor(t, svcSrc, 4)
	sched := cp.sched[transform.DOALL]
	if sched == nil {
		t.Fatal("no DOALL schedule")
	}
	svc := exec.ServiceConfig{
		Arrivals: des.NewPoisson(7, 8000), // ~60% utilization of 4 workers
		Requests: 40,
		SLO:      10 * svcReqCost,
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, sched, exec.SyncMutex, 4)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.Completed != 40 || res.Generated != 40 {
		t.Errorf("completed %d of %d generated, want all 40", res.Completed, res.Generated)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 || res.MaxLatency < res.P999 {
		t.Errorf("latency percentiles inconsistent: p50=%d p99=%d p999=%d max=%d",
			res.P50, res.P99, res.P999, res.MaxLatency)
	}
	if res.ThroughputPerMvt <= 0 {
		t.Errorf("throughput = %v, want > 0", res.ThroughputPerMvt)
	}
	// One print per completed request plus the epilogue total.
	if got := len(cp.w.prints); got != 41 {
		t.Errorf("%d prints, want 41", got)
	}
}

func TestServiceOverloadShedsAndAbandonsWithoutSilentDrops(t *testing.T) {
	cp := compileFor(t, svcSrc, 2)
	sched := cp.sched[transform.DOALL]
	svc := exec.ServiceConfig{
		Arrivals:   des.NewBursty(11, 2000, 80000), // ~5x the 2-worker service rate in bursts
		Requests:   80,
		IngressCap: 8,
		Deadline:   6 * svcReqCost,
		SLO:        4 * svcReqCost,
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, sched, exec.SyncSpin, 2)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.ShedQueue == 0 && res.Abandoned == 0 {
		t.Errorf("overload produced neither queue sheds nor abandonment: %+v", res)
	}
	if res.IngressHighWater == 0 {
		t.Error("ingress high-water mark not recorded")
	}
	if res.Completed == 0 {
		t.Error("no requests completed under overload")
	}
	// Effects match completions exactly: zero silent drops at the effect
	// layer too (epilogue total print is the +1).
	if got := len(cp.w.prints); got != res.Completed+1 {
		t.Errorf("%d prints for %d completions", got, res.Completed)
	}
}

func TestServiceTokenBucketShedsPerClass(t *testing.T) {
	cp := compileFor(t, svcSrc, 4)
	sched := cp.sched[transform.DOALL]
	svc := exec.ServiceConfig{
		Arrivals: des.NewPoisson(3, 8000),
		Requests: 40,
		Classes: []exec.ServiceClass{
			{Name: "paid"},
			{Name: "free", Rate: 10, Burst: 2}, // 10 req/Mvt: far below the offered rate
		},
		ClassOf: func(k int) int { return k % 2 },
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, sched, exec.SyncMutex, 4)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.ShedBucket == 0 {
		t.Errorf("rate-limited class was never bucket-shed: %+v", res)
	}
	if res.Completed < 20 {
		t.Errorf("unlimited class should complete its 20 requests, completed %d total", res.Completed)
	}
}

func TestServiceScalerWalksLadderAndFallsBackSequential(t *testing.T) {
	mkSvc := func() exec.ServiceConfig {
		return exec.ServiceConfig{
			Arrivals:   des.NewPoisson(13, 600), // ~17x a 2-worker pool's capacity
			Requests:   120,
			IngressCap: 12,
			SLO:        2 * svcReqCost,
			EstReqCost: svcReqCost,
			Classes:    []exec.ServiceClass{{Name: "best-effort", ShedAtLevel: 1}},
			Scaler: &exec.ScalerConfig{
				Window:        15000,
				EscalateAfter: 1,
				RecoverAfter:  8,
				BadAttainment: 0.9,
				BadPressure:   0.5,
				AllowFallback: true,
			},
		}
	}
	cp := compileFor(t, svcSrc, 2)
	pres, perr := exec.RunService(cp.cfg, mkSvc(), cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 2)
	if perr == nil {
		t.Fatalf("overloaded parallel service should abort via the ladder, got %+v", pres)
	}
	var ov *exec.OverloadError
	if !errors.As(perr, &ov) {
		t.Fatalf("err = %v, want OverloadError", perr)
	}
	if pres == nil || pres.MaxLevel < 3 {
		t.Fatalf("aborted result should carry the ladder walk, got %+v", pres)
	}
	if pres.ShedBucket == 0 {
		t.Error("level-1 class shedding never fired before the abort")
	}
	if len(pres.ScaleEvents) == 0 {
		t.Error("no scale events recorded")
	}

	// Full ladder through RunServiceResilient: parallel abort, sequential
	// fallback completes (the fallback clamps the ladder below the abort
	// rung).
	cp2 := compileFor(t, svcSrc, 2)
	res2, err2 := exec.RunServiceResilient(exec.ServiceResilientOptions{
		LA:      cp2.la,
		Sched:   cp2.sched[transform.DOALL],
		Mode:    exec.SyncMutex,
		Threads: 2,
		Fresh: func() (exec.Config, exec.ServiceConfig) {
			cp2.w.reset()
			return cp2.cfg, mkSvc()
		},
	})
	if err2 != nil {
		t.Fatalf("RunServiceResilient: %v", err2)
	}
	if !res2.FellBack {
		t.Errorf("expected sequential fallback, got schedule %s", res2.Schedule)
	}
	if res2.Aborted == nil || res2.Aborted.MaxLevel < 3 {
		t.Errorf("fallback should carry the aborted attempt's ladder evidence: %+v", res2.Aborted)
	}
	checkBalance(t, res2)
}

func TestServiceScaleDownRetargetsPool(t *testing.T) {
	cp := compileFor(t, svcSrc, 6)
	svc := exec.ServiceConfig{
		Arrivals:   des.NewPoisson(5, 30000), // light load: ~0.7 workers' worth
		Requests:   40,
		SLO:        10 * svcReqCost,
		EstReqCost: svcReqCost,
		Scaler:     &exec.ScalerConfig{Window: 40000, MinWorkers: 1},
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 6)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.Completed != 40 {
		t.Errorf("completed %d, want 40", res.Completed)
	}
	retargeted := false
	for _, e := range res.ScaleEvents {
		if e.Workers < 6 {
			retargeted = true
		}
	}
	if !retargeted {
		t.Errorf("light load never scaled the 6-worker pool down: %+v", res.ScaleEvents)
	}
}

// crashCheck builds a deterministic per-role tick trigger.
func crashCheck(target string, tick int, perm bool) func(string) (bool, bool) {
	ticks := map[string]int{}
	fired := false
	return func(role string) (bool, bool) {
		ticks[role]++
		if !fired && role == target && ticks[role] == tick {
			fired = true
			return true, perm
		}
		return false, false
	}
}

func TestServiceTransientCrashRestartsWorker(t *testing.T) {
	cp := compileFor(t, svcSrc, 3)
	cp.cfg.Recovery = &exec.Recovery{}
	cp.cfg.CrashCheck = crashCheck("svc.1", 4, false)
	svc := exec.ServiceConfig{
		Arrivals: des.NewPoisson(7, 9000),
		Requests: 30,
		SLO:      10 * svcReqCost,
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 3)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	if res.Completed != 30 {
		t.Errorf("completed %d, want all 30 (crash recovery must not drop requests)", res.Completed)
	}
	if len(res.RestartHistory) != 1 || res.RestartHistory[0].Thread != "svc.1" {
		t.Errorf("restart history %+v", res.RestartHistory)
	} else if r := res.RestartHistory[0]; r.RecoveredVTime <= r.VTime {
		t.Errorf("restart record %+v has no recovery time after the death", r)
	}
}

func TestServicePermanentCrashPoolAbsorbs(t *testing.T) {
	cp := compileFor(t, svcSrc, 3)
	cp.cfg.Recovery = &exec.Recovery{}
	cp.cfg.CrashCheck = crashCheck("svc.1", 4, true)
	svc := exec.ServiceConfig{
		Arrivals: des.NewPoisson(7, 9000),
		Requests: 30,
		SLO:      10 * svcReqCost,
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, cp.sched[transform.DOALL], exec.SyncMutex, 3)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.DeadWorkers != 1 {
		t.Errorf("dead workers = %d, want 1", res.DeadWorkers)
	}
	if res.Completed != 30 {
		t.Errorf("completed %d, want all 30 (survivors absorb the dead worker's share)", res.Completed)
	}
}

func TestServicePipelineCompletesAll(t *testing.T) {
	cp := compileFor(t, svcDetSrc, 4)
	sched := cp.sched[transform.DSWP]
	if sched == nil {
		sched = cp.sched[transform.PSDSWP]
	}
	if sched == nil {
		t.Fatal("no pipeline schedule")
	}
	svc := exec.ServiceConfig{
		Arrivals: des.NewDiurnal(9, 9000, 36),
		Requests: 36,
		SLO:      10 * svcReqCost,
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, sched, exec.SyncMutex, 4)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.Completed != 36 {
		t.Errorf("completed %d, want 36", res.Completed)
	}
	if got := len(cp.w.prints); got != 37 {
		t.Errorf("%d prints, want 37", got)
	}
}

// TestServicePipelineTransientStageCrashRestarts: a transiently crashed
// stage worker in a service pipeline restarts from its checkpoint; every
// request still completes, and the restart record carries its recovery
// time.
func TestServicePipelineTransientStageCrashRestarts(t *testing.T) {
	cp := compileFor(t, svcDetSrc, 4)
	sched := cp.sched[transform.DSWP]
	if sched == nil {
		t.Fatal("no DSWP schedule")
	}
	cp.cfg.Recovery = &exec.Recovery{}
	cp.cfg.CrashCheck = crashCheck("stage1.0", 4, false)
	svc := exec.ServiceConfig{
		Arrivals: des.NewPoisson(21, 9000),
		Requests: 24,
		SLO:      10 * svcReqCost,
	}
	res, err := exec.RunService(cp.cfg, svc, cp.la, sched, exec.SyncMutex, 4)
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	checkBalance(t, res)
	if res.Completed != 24 {
		t.Errorf("completed %d, want all 24 (a stage restart must not drop requests)", res.Completed)
	}
	if res.Restarts != 1 || len(res.RestartHistory) != 1 {
		t.Fatalf("restarts = %d, history %+v, want one restart", res.Restarts, res.RestartHistory)
	}
	if r := res.RestartHistory[0]; r.Thread != "stage1.0" || r.Permanent || r.RecoveredVTime <= r.VTime {
		t.Errorf("bad restart record %+v", r)
	}
}

func TestServicePipelinePermanentStageCrashFallsBack(t *testing.T) {
	cp := compileFor(t, svcDetSrc, 4)
	sched := cp.sched[transform.DSWP]
	if sched == nil {
		sched = cp.sched[transform.PSDSWP]
	}
	roster := exec.CrashRoster(sched, 4)
	if len(roster) == 0 {
		t.Fatal("empty pipeline roster")
	}
	mk := func(crash bool) (exec.Config, exec.ServiceConfig) {
		c := compileFor(t, svcDetSrc, 4)
		cp = c
		cfg := c.cfg
		cfg.Recovery = &exec.Recovery{}
		if crash {
			cfg.CrashCheck = crashCheck(roster[0], 5, true)
		}
		return cfg, exec.ServiceConfig{
			Arrivals: des.NewPoisson(21, 9000),
			Requests: 24,
			SLO:      10 * svcReqCost,
		}
	}
	first := true
	res, err := exec.RunServiceResilient(exec.ServiceResilientOptions{
		LA:      cp.la,
		Sched:   sched,
		Mode:    exec.SyncMutex,
		Threads: 4,
		Fresh: func() (exec.Config, exec.ServiceConfig) {
			cfg, svc := mk(first)
			first = false
			return cfg, svc
		},
	})
	if err != nil {
		t.Fatalf("RunServiceResilient: %v", err)
	}
	if !res.FellBack {
		t.Errorf("permanent stage crash should collapse to the sequential service, got %s", res.Schedule)
	}
	if res.Completed != 24 {
		t.Errorf("fallback completed %d, want 24", res.Completed)
	}
	checkBalance(t, res)
	if res.Aborted == nil {
		t.Error("fallback should carry the aborted attempt's evidence")
	}
}

func TestServiceDeterministicPerSeed(t *testing.T) {
	run := func() []byte {
		cp := compileFor(t, svcSrc, 3)
		cp.cfg.Recovery = &exec.Recovery{}
		cp.cfg.CrashCheck = crashCheck("svc.2", 6, false)
		svc := exec.ServiceConfig{
			Arrivals:   des.NewBursty(42, 3000, 60000),
			Requests:   60,
			IngressCap: 10,
			Deadline:   8 * svcReqCost,
			SLO:        4 * svcReqCost,
			EstReqCost: svcReqCost,
			Scaler:     &exec.ScalerConfig{Window: 30000},
		}
		res, err := exec.RunService(cp.cfg, svc, cp.la, cp.sched[transform.DOALL], exec.SyncSpin, 3)
		if err != nil {
			t.Fatalf("RunService: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestServiceRosterSplitsAlwaysAndScalable(t *testing.T) {
	cp := compileFor(t, svcSrc, 4)
	always, scalable := exec.ServiceRoster(cp.sched[transform.DOALL], 4, 2)
	if len(always) != 2 || always[0] != "svc.0" || always[1] != "svc.1" {
		t.Errorf("always = %v", always)
	}
	if len(scalable) != 2 || scalable[0] != "svc.2" || scalable[1] != "svc.3" {
		t.Errorf("scalable = %v", scalable)
	}

	cpd := compileFor(t, svcDetSrc, 4)
	sched := cpd.sched[transform.DSWP]
	if sched == nil {
		sched = cpd.sched[transform.PSDSWP]
	}
	always, scalable = exec.ServiceRoster(sched, 4, 1)
	if len(always) == 0 || len(scalable) != 0 {
		t.Errorf("pipeline roster: always=%v scalable=%v (stages are structural)", always, scalable)
	}
}
