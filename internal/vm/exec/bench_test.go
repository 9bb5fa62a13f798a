package exec_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/transform"
	"repro/internal/vm/exec"
)

// BenchmarkResilientRun runs one cell per resilience subsystem of the
// executor, each on a fresh world and injector: a DOALL worker crash with
// a checkpoint restart, a DSWP stage crash, transient builtin faults
// absorbed by call retries, and work stealing under a straggler plan.
func BenchmarkResilientRun(b *testing.B) {
	full := compileFor(b, md5Full, 8)
	det := compileFor(b, md5Det, 8)
	transient := faults.Plan{Name: "transient", Seed: 5, Recoverable: true, Specs: []faults.Spec{
		{Kind: faults.Transient, Builtin: "digest", After: 5, Count: 2},
		{Kind: faults.Transient, Builtin: "fread", After: 9, Count: 1},
	}}
	cases := []struct {
		name string
		cp   *compiled
		kind transform.Kind
		cfg  func() exec.Config
	}{
		{"doall-crash", full, transform.DOALL, func() exec.Config {
			cfg, _ := full.crashed(crashPlan("doall.1", 3, false), exec.DefaultRecovery())
			return cfg
		}},
		{"dswp-stage-crash", det, transform.DSWP, func() exec.Config {
			cfg, _ := det.crashed(crashPlan("stage1.0", 3, false), exec.DefaultRecovery())
			return cfg
		}},
		{"transient-retry", full, transform.DOALL, func() exec.Config {
			cfg, _ := full.crashed(transient, exec.DefaultRecovery())
			return cfg
		}},
		{"steal-straggler", full, transform.DOALL, func() exec.Config {
			cfg, _ := full.stealCfg(slowPlan("doall.1", 4), exec.DefaultRecovery(), transform.Tuning{Steal: true})
			return cfg
		}},
	}
	for _, c := range cases {
		sched := c.cp.sched[c.kind]
		if sched == nil {
			b.Fatalf("%s: no %v schedule", c.name, c.kind)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := exec.Run(c.cfg(), c.cp.la, sched, exec.SyncSpin, 4)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Recovered && res.Steals == 0 {
					b.Fatalf("%s: nothing to recover and no steal", c.name)
				}
			}
		})
	}
}

// BenchmarkRunCell runs one plain parallel cell per schedule kind at 4
// threads, each iteration on a fresh world: the stepper, member
// synchronization and the interceptor's call dispatch without any
// resilience hook armed.
func BenchmarkRunCell(b *testing.B) {
	full := compileFor(b, md5Full, 8)
	det := compileFor(b, md5Det, 8)
	cases := []struct {
		name string
		cp   *compiled
		kind transform.Kind
		mode exec.SyncMode
	}{
		{"DOALL-Mutex", full, transform.DOALL, exec.SyncMutex},
		{"DSWP-Mutex", det, transform.DSWP, exec.SyncMutex},
		{"PS-DSWP-TM", det, transform.PSDSWP, exec.SyncTM},
	}
	for _, c := range cases {
		sched := c.cp.sched[c.kind]
		if sched == nil {
			b.Fatalf("%s: no %v schedule", c.name, c.kind)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := c.cp.cfg
				cfg.Builtins = (&world{}).builtins()
				if _, err := exec.Run(cfg, c.cp.la, sched, c.mode, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
