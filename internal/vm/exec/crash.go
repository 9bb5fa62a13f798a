package exec

import (
	"fmt"

	"repro/internal/transform"
	"repro/internal/types"
	"repro/internal/vm/des"
)

// Crash/restart subsystem.
//
// A Crash fault (Config.CrashCheck, wired to faults.Injector.CrashNow)
// deterministically kills a simulated worker thread at a chosen crash-tick
// index. The death model: the thread's *private* state — frame, cursors,
// unflushed batched-queue buffers, unmerged privatized shadows — is lost;
// shared substrate state (memory, cells, queues) survives. Recovery rests
// on an output-commit checkpoint discipline:
//
//   - Each DOALL worker and pipeline stage snapshots its resumable state
//     at pass/token boundaries: immediately after any pass that
//     externalized an effect (member commit, shared-cell write, effectful
//     builtin, global store, or batched-queue flush — the same counters
//     that gate DOALL iteration re-execution), and otherwise every
//     checkpointEvery (4) passes.
//   - Crash ticks fire at the *start* of a pass, checkpoint refreshes at
//     its *end*, so the window between the live checkpoint and any crash
//     contains only work that externalized nothing. The supervisor can
//     therefore restore the last checkpoint onto a fresh simulated thread
//     and replay the whole window without duplicating a visible update.
//   - A permanent crash (or an exhausted restart budget) degrades
//     gracefully instead: a dead DOALL worker's remaining iterations are
//     re-partitioned across the survivors at join time; a dead pipeline
//     stage poisons the pipeline into an orderly shutdown and fails the
//     run, which sends RunResilient to its sequential fallback; a dead
//     service pool worker leaves the pool, whose survivors absorb its
//     share.
//   - Without Config.Recovery there is no supervisor: every crash is a
//     permanent death that fails the run, with no restart and no salvage.
//
// One supervisor handles every worker kind — DOALL workers, pipeline
// stages and service pool workers: crash records the death, escalates it
// past the restart budget and appends the restart record; restart spawns
// the replacement, charges the restore and stamps the recovery time. Each
// kind keeps only its own checkpoint and its own degradation.
//
// All recovery machinery runs inside the deterministic simulator and is
// charged in virtual time (Cost.Checkpoint per snapshot, Cost.Restore per
// restore, restartDelay (800) of supervisor detection latency), so the
// same seed and plan reproduce bit-identical outputs, checkpoints, and
// restart histories.

// CrashError reports an injected worker-thread crash. Perm marks crashes
// the supervisor does not restart: permanent crash specs, crashes past the
// restart budget, and every crash of a run without Recovery.
type CrashError struct {
	Thread string
	VTime  int64
	Perm   bool
	Reason string
}

// Error renders the diagnosis.
func (e *CrashError) Error() string {
	return fmt.Sprintf("%s in thread %s at t=%d", e.Reason, e.Thread, e.VTime)
}

// IsTransient reports whether the supervisor restarts the crashed role.
func (e *CrashError) IsTransient() bool { return !e.Perm }

// RestartRecord is one entry of a run's crash/restart history.
type RestartRecord struct {
	// Thread is the worker role that crashed (e.g. "doall.1", "stage1.0").
	Thread string `json:"thread"`
	// VTime is the virtual time of the death.
	VTime int64 `json:"vtime"`
	// Event is the pass (DOALL iteration) or token ordinal at which the
	// crash tick hit.
	Event int64 `json:"event"`
	// CkptAge is how many passes/tokens the live state was ahead of the
	// last checkpoint when the thread died.
	CkptAge int64 `json:"ckpt_age"`
	// Replayed is how many passes/tokens the replacement re-executed from
	// the restored checkpoint (0 for permanent deaths: nothing is
	// replayed, the work is re-partitioned or the run degrades).
	Replayed int64 `json:"replayed"`
	// Permanent marks deaths that were not restarted (permanent crash
	// spec, or transient crash after the restart budget was exhausted).
	Permanent bool `json:"permanent"`
	// RecoveredVTime is the virtual time at which the role resumed making
	// progress: the replacement thread's clock right after its checkpoint
	// restore, or — for permanent deaths — the start of the join-time
	// salvage runners that re-partition the remainder. 0 when the run
	// failed before any recovery. MTTR per record is
	// RecoveredVTime - VTime.
	RecoveredVTime int64 `json:"recovered_vtime,omitempty"`
}

// String renders one history entry.
func (r RestartRecord) String() string {
	kind := "restarted"
	if r.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("%s crashed @t=%d event=%d ckpt-age=%d replayed=%d (%s)",
		r.Thread, r.VTime, r.Event, r.CkptAge, r.Replayed, kind)
}

// incarnation is a restartable worker role as the supervisor sees it: the
// role name crash plans target, the restarts left in its budget, and the
// ordinal of its latest replacement thread (role#rN). It carries across
// the role's incarnations, so repeated crashes eventually exhaust the
// budget.
type incarnation struct {
	role         string
	restartsLeft int
	restartN     int
}

// crash is the supervisor's record of a worker role's death at a crash
// tick; event is the tick's pass or token ordinal and ckptAge how far the
// role's live state was ahead of its last checkpoint. A transient death
// past the role's restart budget escalates to permanent, and without
// Recovery every death is permanent and fails the run. The death joins the
// restart history and the scheduler's death records, and crash describes
// it. The caller then degrades in its own way when the death is permanent,
// and calls restart otherwise.
func (m *machine) crash(th *des.Thread, life incarnation, event, ckptAge int64, perm bool) *CrashError {
	death := &CrashError{Thread: life.role, VTime: th.VTime, Perm: perm, Reason: "injected crash"}
	switch {
	case perm:
		death.Reason = "injected permanent crash"
	case !m.resilient():
		death.Perm = true
		death.Reason = "injected crash without recovery"
	case life.restartsLeft <= 0:
		death.Perm = true
		death.Reason = "crash with restart budget exhausted"
	}
	rec := RestartRecord{Thread: life.role, VTime: th.VTime, Event: event, CkptAge: ckptAge, Permanent: death.Perm}
	if !death.Perm {
		rec.Replayed = ckptAge
	}
	m.restarts = append(m.restarts, rec)
	m.sim.RecordDeath(death.Thread, death.VTime, death.Reason)
	if !m.resilient() {
		m.fail(life.role, death)
	}
	return death
}

// restart replaces a role that crash just recorded as transiently dead:
// after the supervisor's detection delay it spawns role#rN, charges the
// restore cost, stamps the recovery time on the role's restart record, and
// continues on the new thread with resume, which receives the role's next
// incarnation.
func (m *machine) restart(th *des.Thread, life incarnation, restore int64, resume func(th *des.Thread, life incarnation)) {
	m.stats.restarts++
	ri := len(m.restarts) - 1
	next := incarnation{role: life.role, restartsLeft: life.restartsLeft - 1, restartN: life.restartN + 1}
	m.sim.Spawn(fmt.Sprintf("%s#r%d", life.role, next.restartN), th.VTime+restartDelay, func(th *des.Thread) error {
		th.Charge(restore)
		m.restarts[ri].RecoveredVTime = th.VTime
		resume(th, next)
		return nil
	})
}

// markRecovered stamps the recovery time on the newest unrecovered
// permanent restart record of the role (used when the join-time salvage
// runners for a dead worker are spawned).
func (m *machine) markRecovered(role string, vtime int64) {
	for i := len(m.restarts) - 1; i >= 0; i-- {
		r := &m.restarts[i]
		if r.Thread == role && r.Permanent && r.RecoveredVTime == 0 {
			r.RecoveredVTime = vtime
			return
		}
	}
}

// crashAt consumes one crash tick for the role and reports whether the
// thread dies now, and whether the death is permanent. Returns false when
// no crash plan is armed.
func (m *machine) crashAt(role string) (bool, bool) {
	if m.cfg.CrashCheck == nil {
		return false, false
	}
	return m.cfg.CrashCheck(role)
}

// checkpointing reports whether the checkpoint layer is active. Snapshots
// are only taken (and charged) when a crash plan is armed, so crash-free
// runs keep their exact legacy timings.
func (m *machine) checkpointing() bool { return m.cfg.CrashCheck != nil }

// snapshotFrame copies a frame exactly, including the shared-source
// register tags (unlike clone, which resets them for a fresh worker).
func snapshotFrame(fr *frame) *frame { return snapshotInto(&frame{}, fr) }

// snapshotInto copies fr exactly into dst, reusing dst's storage, and
// returns dst.
func snapshotInto(dst, fr *frame) *frame {
	dst.locals = append(dst.locals[:0], fr.locals...)
	dst.regs = append(dst.regs[:0], fr.regs...)
	dst.sharedSrc = append(dst.sharedSrc[:0], fr.sharedSrc...)
	return dst
}

// copyPriv copies a privatized-shadow commit map.
func copyPriv(p map[*types.Set]int) map[*types.Set]int {
	if len(p) == 0 {
		return nil
	}
	c := make(map[*types.Set]int, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// CrashRoster lists the simulated worker roles the schedule spawns with
// the given thread count — the legal targets of Crash fault specs. DOALL
// schedules spawn doall.0..N-1 (worker 0 rides the main thread); pipeline
// schedules spawn stage<si>.<rep> for every non-dispatcher stage. The
// dispatcher and the sequential schedule have no crashable workers: they
// run on the main thread, whose death is the process's, not a worker's.
func CrashRoster(sched *transform.Schedule, threads int) []string {
	if sched == nil {
		return nil
	}
	if threads < 1 {
		threads = 1
	}
	switch sched.Kind {
	case transform.DOALL:
		roster := make([]string, threads)
		for w := 0; w < threads; w++ {
			roster[w] = fmt.Sprintf("doall.%d", w)
		}
		return roster
	case transform.DSWP, transform.PSDSWP:
		reps := stageReps(sched.Stages, threads)
		var roster []string
		for si := 1; si < len(sched.Stages); si++ {
			for rep := 0; rep < reps[si]; rep++ {
				roster = append(roster, fmt.Sprintf("stage%d.%d", si, rep))
			}
		}
		return roster
	}
	return nil
}

// stageReps computes the replica count per pipeline stage: one thread per
// sequential stage, every remaining thread on the parallel stage.
func stageReps(stages []transform.Stage, threads int) []int {
	reps := make([]int, len(stages))
	parIdx := -1
	for i := range stages {
		reps[i] = 1
		if stages[i].Parallel {
			parIdx = i
		}
	}
	if parIdx >= 0 {
		r := threads - (len(stages) - 1)
		if r < 1 {
			r = 1
		}
		reps[parIdx] = r
	}
	return reps
}
