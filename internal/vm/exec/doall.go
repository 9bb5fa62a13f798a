package exec

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vm/des"
)

// runCond evaluates the loop condition group on the stepper's frame and
// reports whether the loop should exit.
func (m *machine) runCond(st *stepper) (bool, error) {
	s, err := st.runGroup(m.la.Units.Cond)
	if err != nil {
		return false, err
	}
	if s.ret {
		return false, fmt.Errorf("exec: loop condition returned from function")
	}
	return !m.la.Loop.Contains(s.nextBlk), nil
}

// sweepResult is the outcome of one completed sweep — a worker's own
// initial range or an adopted stolen one. ctrl marks sweeps that ran loop
// control to its exit (or the maxIters calibration cap), whose frames
// therefore hold the final control state.
type sweepResult struct {
	fr       *frame
	lastIter int64 // last owned iteration whose body ran in this sweep
	ctrl     bool
}

// doallDone is the join message of one DOALL worker chain (or salvage
// runner). A crashed join is the death certificate of a permanently dead
// worker: it carries the worker's last checkpoint so the main thread can
// re-partition the remaining owned iterations across the survivors.
type doallDone struct {
	worker int
	sweeps []sweepResult
	vtime  int64 // join virtual time (loop-completion skew accounting)

	crashed   bool
	deathIter int64      // pass at which the crash tick hit
	ck        *doallCkpt // last checkpoint of the dead worker
}

// doallCkpt is one DOALL worker's resumable state: the current sweep's
// assignment, the completed-pass watermark (iter is the next pass to
// execute), a compressed frame snapshot, the last owned iteration
// executed, the privatized shadow state, and the sweeps already completed
// by this chain (immutable once recorded, carried so a restart loses no
// finished work). The externalized-effect baselines that gate safe
// re-execution live beside it in doallState (ckEff/ckWrites): the
// output-commit discipline refreshes the checkpoint right after any
// externalizing pass, so the window between checkpoint and crash is always
// replay-safe.
type doallCkpt struct {
	asg      assignment
	iter     int64
	cfr      *ckFrame
	lastIter int64
	priv     map[*types.Set]int
	done     []sweepResult
}

// doallState is the live, restartable state of one DOALL worker chain
// across its simulated-thread incarnations and its sequence of sweeps, or
// of one salvage share (see doallSalvage).
type doallState struct {
	w int
	incarnation

	asg      assignment // current sweep's range and ownership identity
	iter     int64      // next pass to execute
	lastIter int64      // last owned iteration whose body ran (this sweep)

	// A salvage share (shares > 0) runs the body of every shares-th
	// iteration the assignment owns, starting with the share-th; seen
	// counts the owned iterations it has passed. It takes no checkpoints,
	// and a crash fails the run.
	share, shares int
	seen          int

	lastTop int64 // virtual time of the previous pass top (-1 = none yet)
	ranBody bool  // the pass since lastTop ran an owned body

	done []sweepResult // completed sweeps of this chain

	ck       doallCkpt
	ckEff    int // stepper effects counter at the last checkpoint
	ckWrites int // interp heap-write counter at the last checkpoint
}

// doallLoop is what every chain of one DOALL loop shares: the ownership
// parameters (see owns), the steal board (nil without stealing) and the
// join queue.
type doallLoop struct {
	threads, chunk int64
	board          *stealBoard
	join           *des.Queue
}

// takeDoallCkpt refreshes the worker's checkpoint from its live state,
// charging the snapshot by its compressed size in virtual time.
func (m *machine) takeDoallCkpt(th *des.Thread, st *stepper, ws *doallState) {
	cfr := encodeFrame(st.fr, m.ckRef)
	th.Charge(m.checkpointCost(cfr))
	ws.recordCkpt(st, cfr)
}

// recordCkpt makes cfr, a snapshot of the live frame, the worker's
// checkpoint, with the live sweep position, privatized shadow and effect
// baselines. Every DOALL checkpoint is recorded here: takeDoallCkpt's, a
// steal grant's (serveSteal) and a restored replacement's.
func (ws *doallState) recordCkpt(st *stepper, cfr *ckFrame) {
	ws.ck = doallCkpt{
		asg:      ws.asg,
		iter:     ws.iter,
		cfr:      cfr,
		lastIter: ws.lastIter,
		priv:     copyPriv(st.privCommits),
		done:     ws.done,
	}
	ws.ckEff = st.effects
	ws.ckWrites = st.it.HeapWrites
}

// runIterBody executes one DOALL iteration's body units. In resilient mode
// a transiently failed iteration is re-executed from its start snapshot —
// but only when the failed attempt externalized nothing (no member commits,
// shared-cell writes, effectful builtin calls, or global stores), so a
// retry can never duplicate a visible update.
func (m *machine) runIterBody(st *stepper, fr *frame) error {
	runUnits := func() error {
		for _, unit := range m.la.Units.Units {
			if _, err := st.runGroup(unit); err != nil {
				return err
			}
		}
		return nil
	}
	if !m.resilient() {
		return runUnits()
	}
	if st.retry == nil {
		st.retry = &frame{}
	}
	snap := snapshotInto(st.retry, fr)
	effects0, writes0 := st.effects, st.it.HeapWrites
	for attempt := 0; ; attempt++ {
		err := runUnits()
		if err == nil {
			return nil
		}
		if !IsTransient(err) || attempt >= maxIterRetries ||
			st.effects != effects0 || st.it.HeapWrites != writes0 {
			return err
		}
		copy(fr.locals, snap.locals)
		copy(fr.regs, snap.regs)
		copy(fr.sharedSrc, snap.sharedSrc)
		m.stats.iterRetries++
		st.th.Sleep(backoff(attempt))
	}
}

// doallRun drives one worker chain: the initial sweep, then — with
// stealing enabled — any adopted stolen sweeps, merging the privatized
// shadow exactly once and pushing exactly one join message at retirement.
// Shared by the original incarnation of each worker role, by any
// checkpoint-restored replacement, and by the salvage shares.
func (m *machine) doallRun(th *des.Thread, st *stepper, ws *doallState, l *doallLoop) {
	for {
		res, alive := m.doallSweep(th, st, ws, l)
		if !alive {
			return // crashed: restart or death certificate handled it
		}
		ws.done = append(ws.done, res)
		if l.board == nil {
			break
		}
		l.board.retire(ws.w)
		g := m.doallSteal(th, ws, l.board)
		if g == nil {
			break
		}
		m.doallAdopt(th, st, ws, l.board, g)
	}
	st.mergePrivatized()
	th.Push(l.join, doallDone{worker: ws.w, sweeps: ws.done, vtime: th.VTime})
}

// doallSweep executes the current assignment to its end. Each pass is one
// crash tick and one straggler tick; the checkpoint refreshes at the end
// of any pass that externalized an effect (output-commit) and otherwise
// every checkpointEvery passes, so a crash window never holds
// externalized work. With a steal board, the pass top also publishes the
// watermark and answers any pending steal request. An error the pass
// cannot absorb fails the run and ends the sweep, and a failed run stops
// the sweep at its next pass top. Returns alive=false when the worker
// crashed (the crash path owns the hand-off).
func (m *machine) doallSweep(th *des.Thread, st *stepper, ws *doallState, l *doallLoop) (sweepResult, bool) {
	board := l.board
	ctrl := false
	for {
		iter := ws.iter
		if m.failed() {
			break // a sibling hit an unrecoverable fault; stop early
		}
		if m.cfg.maxIters > 0 && iter >= m.cfg.maxIters {
			ctrl = true // calibration slice: stop after the sampled prefix
			if board != nil {
				board.close(m.cfg.maxIters)
			}
			break
		}
		if ws.asg.hi >= 0 && iter >= ws.asg.hi {
			break // bounded sweep: range exhausted (a thief owns the rest)
		}
		if die, perm := m.crashAt(ws.role); die {
			if ws.shares > 0 {
				// A salvage share has no checkpoint chain of its own; its
				// death (transient or not) just fails the salvage attempt.
				m.fail(ws.role, &CrashError{Thread: ws.role, VTime: th.VTime, Perm: perm, Reason: "injected crash during salvage"})
				break
			}
			m.doallCrash(th, ws, l, perm)
			return sweepResult{}, false
		}
		if board != nil {
			e := &board.entries[ws.w]
			// Publish pace: the pass-top-to-pass-top delta covers the whole
			// previous pass, including any straggler surcharge (charged at
			// the pass end). Only owned-body passes count — control-only and
			// replay passes would deflate the average.
			if ws.lastTop >= 0 && ws.ranBody {
				e.busy += th.VTime - ws.lastTop
				e.passes++
			}
			ws.lastTop = th.VTime
			ws.ranBody = false
			e.cur = iter
			if e.reqFrom >= 0 {
				m.serveSteal(th, st, ws, board)
			}
		}
		slow := m.straggleAt(ws.role)
		passStart := th.VTime
		exit, err := m.runCond(st)
		if err != nil {
			m.fail(ws.role, err)
			break
		}
		if exit {
			ctrl = true
			if board != nil {
				board.close(iter)
			}
			break
		}
		if ws.runsBody(iter, l) {
			if err := m.runIterBody(st, st.fr); err != nil {
				m.fail(ws.role, err)
				break
			}
			ws.lastIter = iter
			ws.ranBody = true
		}
		if _, err := st.runGroup(m.la.Units.Post); err != nil {
			m.fail(ws.role, err)
			break
		}
		straggleCharge(th, slow, th.VTime-passStart)
		ws.iter = iter + 1
		if m.checkpointing() && ws.shares == 0 {
			externalized := st.effects != ws.ckEff || st.it.HeapWrites != ws.ckWrites
			if externalized || ws.iter-ws.ck.iter >= checkpointEvery {
				m.takeDoallCkpt(th, st, ws)
			}
		}
	}
	return sweepResult{fr: st.fr, lastIter: ws.lastIter, ctrl: ctrl}, true
}

// runsBody reports whether the sweep runs iteration iter's body: the
// iteration lies in the assignment, the assignment's owner owns it, and,
// for a salvage share, it falls in the share.
func (ws *doallState) runsBody(iter int64, l *doallLoop) bool {
	if iter < ws.asg.lo || !owns(ws.asg.src, iter, l.threads, l.chunk) {
		return false
	}
	if ws.shares == 0 {
		return true
	}
	mine := ws.seen%ws.shares == ws.share
	ws.seen++
	return mine
}

// doallCrash handles the death of a DOALL worker at a crash tick. The
// thread's private state dies with it; what survives is the shared
// substrate and the last checkpoint. A transient death is restarted by the
// supervisor: the replacement restores the checkpoint and replays the
// un-externalized window. A permanent death — or a transient one past the
// restart budget — instead posts a death certificate on the join queue so
// the main thread can re-partition the remaining owned iterations across
// the survivors. Either way any pending steal request gets its answer: a
// transiently crashed victim keeps it pending for the replacement, a
// permanent death denies it.
func (m *machine) doallCrash(th *des.Thread, ws *doallState, l *doallLoop, perm bool) {
	death := m.crash(th, ws.incarnation, ws.iter, ws.iter-ws.ck.iter, perm)
	ck := ws.ck
	if death.Perm {
		if l.board != nil {
			l.board.markDead(ws.w)
		}
		th.Push(l.join, doallDone{
			worker: ws.w, sweeps: ws.done, vtime: th.VTime,
			crashed: true, deathIter: ws.iter, ck: &ck,
		})
		return
	}
	m.restart(th, ws.incarnation, m.restoreCost(ck.cfr), func(th *des.Thread, life incarnation) {
		st := m.newStepper(th, ck.cfr.decode())
		st.sharedActive = true
		st.privatized = m.cfg.Tune.Privatize
		st.privCommits = copyPriv(ck.priv)
		ws2 := &doallState{
			w: ws.w, incarnation: life,
			asg: ck.asg, iter: ck.iter, lastIter: ck.lastIter,
			lastTop: -1,
			done:    ck.done,
		}
		ws2.recordCkpt(st, ck.cfr)
		m.doallRun(th, st, ws2, l)
	})
}

// doallSalvage re-executes a permanently dead worker's share of the loop
// on behalf of one survivor: it restores the dead worker's checkpoint onto
// a fresh frame, replays the loop-control machinery from the checkpointed
// pass, and executes every `nshares`-th owned iteration of the
// checkpointed assignment (share k of a deterministic round-robin split).
// The window between the checkpoint and the death externalized nothing
// (output-commit), and passes at or beyond the death never ran, so
// re-executing both duplicates no visible update. The assignment bounds
// matter: a dead thief is salvaged only over its stolen range, and a
// robbed victim only up to its truncated hi — iterations that migrated
// stay exactly-once. Share 0 also adopts the dead worker's unmerged
// privatized shadow, so each shadow is still merged exactly once. The
// share runs the sweep loop (doallRun) on a loop l without a steal board.
func (m *machine) doallSalvage(th *des.Thread, d doallDone, share, nshares int, l *doallLoop) {
	ck := d.ck
	th.Charge(m.restoreCost(ck.cfr))
	st := m.newStepper(th, ck.cfr.decode())
	st.sharedActive = true
	st.privatized = m.cfg.Tune.Privatize
	if share == 0 {
		st.privCommits = copyPriv(ck.priv)
	}
	ws := &doallState{
		w:           d.worker,
		incarnation: incarnation{role: fmt.Sprintf("salvage.%d.%d", d.worker, share)},
		asg:         ck.asg, iter: ck.iter, lastIter: -1, lastTop: -1,
		share: share, shares: nshares,
	}
	m.doallRun(th, st, ws, l)
}

// runDOALL executes the loop with iterations scheduled over `threads`
// workers (the calling thread acts as worker 0) in the tuning's chunks,
// static round-robin at chunk 1 (see owns). Every worker privately
// executes the loop-control machinery — the canonical
// privatized-induction-variable DOALL codegen — and runs the body units
// only for its own iterations.
// With Tune.Privatize, commutative member updates run against per-thread
// shadow state and each worker publishes one synchronized merge per
// touched set before joining.
//
// With Tune.Steal, workers that finish do not retire: they adopt half of
// the most-behind peer's un-started range over the deterministic steal
// board (see steal.go), repairing stragglers and skewed schedules while
// the loop runs. With a crash plan armed, each worker checkpoints (see
// doallSweep), dying workers are restarted from their checkpoints, and
// permanently dead workers have their remaining assignment re-partitioned
// across the survivors at join time (degraded mode).
func (m *machine) runDOALL(mainTh *des.Thread, mainFr *frame, threads int) error {
	join := m.sim.NewQueue("doall.join", threads)
	l := &doallLoop{threads: int64(threads), chunk: int64(m.cfg.Tune.ChunkSize()), join: join}
	if m.cfg.Tune.Steal && threads > 1 {
		l.board = newStealBoard(threads)
	}
	if m.checkpointing() || l.board != nil {
		// The immutable compression reference every checkpoint of this
		// loop deltas against: the frame each worker starts from.
		m.ckRef = mainFr.clone()
	}

	worker := func(th *des.Thread, w int) {
		st := m.newStepper(th, mainFr.clone())
		st.sharedActive = true
		st.privatized = m.cfg.Tune.Privatize
		ws := &doallState{
			w:           w,
			incarnation: incarnation{role: fmt.Sprintf("doall.%d", w), restartsLeft: maxRestarts},
			asg:         assignment{src: w, lo: 0, hi: -1},
			lastIter:    -1,
			lastTop:     -1,
		}
		ws.ck.lastIter = -1
		if m.checkpointing() {
			m.takeDoallCkpt(th, st, ws) // initial checkpoint at pass 0
		}
		m.doallRun(th, st, ws, l)
	}

	start := mainTh.VTime
	for w := 1; w < threads; w++ {
		w := w
		m.sim.Spawn(fmt.Sprintf("doall.%d", w), start, func(th *des.Thread) error {
			worker(th, w)
			return nil
		})
	}
	worker(mainTh, 0)

	// Collect workers and merge live-outs. Control state comes from any
	// sweep that ran loop control to its exit — every chain's unbounded
	// sweep did, and they agree; body-written slots take their value from
	// the sweep that executed the globally last iteration (a dead worker's
	// checkpoint frame competes too: its pre-checkpoint iterations were
	// real).
	var ctrlFr, lastFr *frame
	lastIter := int64(-1)
	var crashed []doallDone
	consider := func(d doallDone) {
		for _, s := range d.sweeps {
			if s.fr == nil {
				continue
			}
			if s.ctrl && ctrlFr == nil {
				ctrlFr = s.fr
			}
			if s.lastIter > lastIter {
				lastIter = s.lastIter
				lastFr = s.fr
			}
		}
		if d.crashed && d.ck != nil && d.ck.cfr != nil && d.ck.lastIter > lastIter {
			lastIter = d.ck.lastIter
			lastFr = d.ck.cfr.decode()
		}
	}
	for i := 0; i < threads; i++ {
		d := mainTh.Pop(join).(doallDone)
		if d.crashed {
			crashed = append(crashed, d)
		} else {
			m.workerJoins = append(m.workerJoins, d.vtime)
		}
		consider(d)
	}

	// Degraded mode: re-partition each permanently dead worker's remaining
	// assignment across the survivors, one salvage runner per survivor.
	if len(crashed) > 0 && !m.failed() {
		survivors := threads - len(crashed)
		if survivors <= 0 {
			d := crashed[0]
			m.fail(fmt.Sprintf("doall.%d", d.worker), &CrashError{
				Thread: fmt.Sprintf("doall.%d", d.worker), VTime: mainTh.VTime,
				Perm: true, Reason: "permanent crash with no surviving workers",
			})
		} else {
			start := mainTh.VTime + restartDelay
			salvage := &doallLoop{threads: l.threads, chunk: l.chunk, join: join}
			for _, d := range crashed {
				m.stats.repartitioned++
				m.markRecovered(fmt.Sprintf("doall.%d", d.worker), start)
				d := d
				for k := 0; k < survivors; k++ {
					k := k
					m.sim.Spawn(fmt.Sprintf("salvage.%d.%d", d.worker, k), start, func(th *des.Thread) error {
						m.doallSalvage(th, d, k, survivors, salvage)
						return nil
					})
				}
			}
			for i := 0; i < len(crashed)*survivors; i++ {
				d := mainTh.Pop(join).(doallDone)
				m.workerJoins = append(m.workerJoins, d.vtime)
				consider(d)
			}
		}
	}
	if m.failDiag != nil {
		return m.failDiag
	}

	if ctrlFr == nil {
		ctrlFr = lastFr // every worker crashed but the run was not failed
	}
	if ctrlFr != nil {
		copy(mainFr.locals, ctrlFr.locals)
	}
	if lastFr != nil && lastFr != ctrlFr {
		m.mergeBodyWrites(mainFr, lastFr)
	}
	return nil
}
