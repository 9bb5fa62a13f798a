package exec

import (
	"errors"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/transform"
)

// Recovery switches on the fault-recovery policies of the parallel
// executors; the policies themselves are fixed (see the constants below).
// All recovery cost is charged in virtual time, so a recovered run's
// makespan honestly reflects the retries it paid for.
type Recovery struct{}

// The fixed recovery policy.
const (
	// maxCallRetries bounds per-call retries of transient builtin failures.
	maxCallRetries = 3
	// backoffBase is the virtual-time backoff charged before the first
	// retry; it doubles on each subsequent attempt.
	backoffBase = 200
	// maxIterRetries bounds DOALL iteration re-executions after call-level
	// retry is exhausted.
	maxIterRetries = 2
	// checkpointEvery is the periodic checkpoint interval, in iteration
	// passes (DOALL) or tokens (pipeline stages), between the forced
	// output-commit snapshots taken after externalizing passes.
	checkpointEvery = 4
	// maxRestarts bounds supervisor restarts per worker role after
	// transient crashes.
	maxRestarts = 3
	// restartDelay is the virtual-time supervisor latency between a thread
	// death and its replacement starting (detection + respawn).
	restartDelay = 800
	// maxAttempts bounds RunResilient's parallel-schedule attempts before
	// it degrades to the sequential fallback.
	maxAttempts = 2
)

// DefaultRecovery returns the standard policy (3 call retries, backoff base
// 200, 2 iteration retries).
func DefaultRecovery() *Recovery { return &Recovery{} }

// backoff returns the virtual-time penalty before retry attempt `attempt`
// (0-based), doubling per attempt.
func backoff(attempt int) int64 {
	if attempt > 16 {
		attempt = 16
	}
	return backoffBase << uint(attempt)
}

// IsTransient reports whether the error (anywhere in its chain) declares
// itself transient — i.e. retrying the failed operation can succeed. The
// executor stays decoupled from the fault-injection package by depending
// only on this interface.
func IsTransient(err error) bool {
	var t interface{ IsTransient() bool }
	return errors.As(err, &t) && t.IsTransient()
}

// FailureDiag is the diagnosed outcome of an unrecoverable fault: it names
// the simulated thread that observed the fault, the schedule it was running,
// and wraps the root cause.
type FailureDiag struct {
	Thread string
	Sched  string
	Sync   SyncMode
	Err    error

	// Restarts is the run's crash/restart history up to the diagnosis:
	// which threads crashed, at what virtual time, how stale their last
	// checkpoint was, and how much work each replacement replayed. A
	// diagnosed run therefore names its whole recovery timeline.
	Restarts []RestartRecord
}

// Error renders the diagnosis, including the restart history.
func (d *FailureDiag) Error() string {
	s := fmt.Sprintf("exec: unrecoverable fault in %s (%s/%s): %v", d.Thread, d.Sched, d.Sync, d.Err)
	if len(d.Restarts) > 0 {
		s += "; restart history:"
		for _, r := range d.Restarts {
			s += "\n  " + r.String()
		}
	}
	return s
}

// Unwrap exposes the root cause (e.g. a *faults.Error) to errors.As.
func (d *FailureDiag) Unwrap() error { return d.Err }

// ResilientOptions configures RunResilient.
type ResilientOptions struct {
	LA      *pipeline.LoopAnalysis
	Sched   *transform.Schedule
	Mode    SyncMode
	Threads int

	// Fresh builds a fresh Config (new substrate state, new fault-injector
	// instantiation) for each execution attempt.
	Fresh func() Config

	// Accept, when set, validates the outcome of the attempt that just
	// succeeded (e.g. output equivalence against the sequential reference);
	// a non-nil error rejects the attempt. parallel reports whether the
	// accepted run used the parallel schedule or the sequential fallback.
	Accept func(parallel bool) error
}

// RunResilient executes the schedule with graceful degradation: up to
// two parallel runs (each on a fresh substrate), then — if the
// parallel schedule keeps failing or its output is rejected — a sequential
// re-run whose output is validated the same way. Permanent (non-transient)
// failures skip straight to the fallback, since re-running a deterministic
// schedule cannot change the outcome.
func RunResilient(opts ResilientOptions) (*Result, error) {
	attempts := 0
	parallel := opts.Sched != nil && opts.Sched.Kind != transform.Sequential
	var lastErr error
	if parallel {
		for a := 0; a < maxAttempts; a++ {
			attempts++
			res, err := Run(opts.Fresh(), opts.LA, opts.Sched, opts.Mode, opts.Threads)
			if err == nil {
				if opts.Accept != nil {
					if aerr := opts.Accept(true); aerr != nil {
						lastErr = fmt.Errorf("exec: parallel output rejected: %w", aerr)
						continue
					}
				}
				res.Attempts = attempts
				res.Recovered = res.CallRetries > 0 || res.IterRetries > 0 || res.Restarts > 0
				return res, nil
			}
			lastErr = err
			if !IsTransient(err) {
				break
			}
		}
	}

	// Graceful degradation: sequential re-run on a fresh substrate.
	attempts++
	res, err := RunSequential(opts.Fresh())
	if err != nil {
		if lastErr != nil {
			return nil, fmt.Errorf("exec: parallel schedule failed (%v); sequential fallback failed: %w", lastErr, err)
		}
		return nil, err
	}
	if opts.Accept != nil {
		if aerr := opts.Accept(false); aerr != nil {
			return nil, fmt.Errorf("exec: sequential fallback produced divergent output: %w", aerr)
		}
	}
	res.Sync = opts.Mode
	if parallel {
		res.Schedule = opts.Sched.String() + " (sequential fallback)"
	}
	res.Attempts = attempts
	res.FellBack = parallel
	res.Degraded = parallel
	res.Recovered = res.FellBack || res.CallRetries > 0
	return res, nil
}
