package exec

import (
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/transform"
	"repro/internal/vm/interp"
)

// AutoOptions configures the profile-guided auto-scheduler. Before the
// measured run, Run executes one short calibration slice (the loop
// truncated to sliceIters iterations) per candidate tuning of
// profile.TuneCandidates, each on a fresh substrate, and adopts the
// tuning of the fastest slice. The calibration is itself simulated in
// virtual time, so the pick — like everything else in the evaluation — is
// deterministic.
type AutoOptions struct {
	// Fresh returns a fresh builtin table for each calibration slice so
	// slices never perturb the substrate state of the measured run.
	// Required: without isolation the calibration would double-apply
	// side effects.
	Fresh func() map[string]interp.BuiltinFn
}

// sliceIters caps each calibration slice.
const sliceIters = 48

// autoTune runs the calibration slices and returns the winning tuning.
// The zero tuning is always among the candidates and wins ties, so a
// workload the fixed policies already serve best keeps them. Candidates
// whose slice fails (e.g. a schedule the workload cannot run) are
// skipped.
func autoTune(cfg Config, la *pipeline.LoopAnalysis, sched *transform.Schedule, mode SyncMode, threads int) transform.Tuning {
	fresh := cfg.Auto.Fresh
	best := transform.Tuning{}
	bestTime := int64(-1)
	for _, cand := range profile.TuneCandidates(sched.Kind, threads) {
		c := cfg
		c.Auto = nil
		c.Tune = cand
		c.MaxIters = sliceIters
		if fresh != nil {
			c.Builtins = fresh()
		}
		r, err := Run(c, la, sched, mode, threads)
		if err != nil {
			continue // a failing slice just removes its candidate
		}
		if bestTime < 0 || r.VirtualTime < bestTime {
			bestTime = r.VirtualTime
			best = cand
		}
	}
	return best
}
