package exec

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/pdg"
	"repro/internal/vm/des"
	"repro/internal/vm/value"
)

// token is one iteration's payload flowing through the pipeline: the frame
// slot values as of the end of the producing stage. Dependences between
// stages are satisfied by these lock-free-queue tokens (paper Section 4.5).
// A stop token ends the stream; a poisoned stop is the pill a failed stage
// (or the dispatcher, once a failure is recorded) forwards downstream so
// every stage shuts down in order instead of blocking on a dead producer.
type token struct {
	iter   int64
	stop   bool
	poison bool
	locals []value.Value
	// arrival stamps the request this token carries in service mode (zero
	// in batch mode); the last stage records the completion latency.
	arrival int64
}

// pipeJoin is the completion message of one stage worker.
type pipeJoin struct {
	stage    int
	lastIter int64
	fr       *frame
}

// qWriter batches pushes to one pipeline queue: tokens accumulate in a
// local buffer and are transferred with one amortized PushN per `batch`
// tokens. batch ≤ 1 degenerates to per-token Push. Stop tokens travel
// through the same writer, so intra-queue order is preserved; callers
// flush after the stop to bound shutdown latency.
type qWriter struct {
	q     *des.Queue
	batch int
	buf   []any
	// flushes counts actual queue transfers (Push/PushN operations). A
	// transfer externalizes the buffered tokens — consumers can observe
	// them — so the stage checkpoint layer treats a flush like a member
	// commit: the output-commit snapshot refreshes before the next crash
	// tick can hit.
	flushes int
}

func (w *qWriter) push(th *des.Thread, tok token) {
	if w.batch <= 1 {
		w.flushes++
		th.Push(w.q, tok)
		return
	}
	w.buf = append(w.buf, tok)
	if len(w.buf) >= w.batch {
		w.flush(th)
	}
}

func (w *qWriter) flush(th *des.Thread) {
	if len(w.buf) > 0 {
		w.flushes++
		th.PushN(w.q, w.buf)
		w.buf = nil
	}
}

// totalFlushes sums the writers' transfer counters (the checkpoint layer's
// externalization baseline).
func totalFlushes(out []*qWriter) int {
	n := 0
	for _, w := range out {
		n += w.flushes
	}
	return n
}

// qReader pops tokens from one pipeline queue, batch-popping up to
// `batch` tokens per scheduler event into a local buffer. For a
// sequential merge stage the buffered tokens are exactly the future
// iterations of that input queue (queue j carries iterations j, j+R,
// j+2R, …), so buffering never reorders the merge.
type qReader struct {
	q     *des.Queue
	batch int
	buf   []any
	// tap, when set, observes every token freshly popped from the
	// underlying queue (not buffered re-reads). The stage checkpoint layer
	// uses it to keep the in-flight token log: tokens popped since the
	// last checkpoint are gone from the queue, so a restarted stage must
	// replay them from the log.
	tap func(toks []any)
}

func (r *qReader) next(th *des.Thread) token {
	if len(r.buf) == 0 {
		var toks []any
		if r.batch > 1 {
			toks = th.PopN(r.q, r.batch)
		} else {
			toks = []any{th.Pop(r.q)}
		}
		if r.tap != nil {
			r.tap(toks)
		}
		r.buf = toks
	}
	tok := r.buf[0].(token)
	r.buf = r.buf[1:]
	return tok
}

func newWriters(qs []*des.Queue, batch int) []*qWriter {
	ws := make([]*qWriter, len(qs))
	for i, q := range qs {
		ws[i] = &qWriter{q: q, batch: batch}
	}
	return ws
}

func newReaders(qs []*des.Queue, batch int) []*qReader {
	rs := make([]*qReader, len(qs))
	for i, q := range qs {
		rs[i] = &qReader{q: q, batch: batch}
	}
	return rs
}

// newWorkQueue creates a queue that carries work between threads (a
// pipeline or service dispatch queue). Each push on it pays the config's
// PushDelay for the queue, when wired.
func (m *machine) newWorkQueue(name string) *des.Queue {
	q := m.sim.NewQueue(name, m.cfg.queueCap())
	if m.cfg.PushDelay != nil {
		q.Stall = func() int64 { return m.cfg.PushDelay(name) }
	}
	return q
}

// sendStop pushes a stop token, poisoned after a failure, through each
// writer and flushes it to bound shutdown latency.
func sendStop(th *des.Thread, ws []*qWriter, poison bool) {
	for _, w := range ws {
		w.push(th, token{stop: true, poison: poison})
		w.flush(th)
	}
}

// pipeNet is the stage network of one DSWP or PS-DSWP run: the replica
// count per stage, the queues between consecutive stages, the flow-forward
// slots per stage (see flowForward), and the join queue of the stage
// workers.
type pipeNet struct {
	reps    []int
	qs      [][]*des.Queue
	ff      []map[int]bool
	join    *des.Queue
	workers int // stage workers spawned: every replica of stages 1..k-1
}

// startPipeline builds the stage network and spawns the stage workers;
// the calling thread is the dispatcher (stage 0). It owns loop control,
// executes stage 0's units, and streams per-iteration tokens down the
// pipeline. A parallel stage runs R replicas receiving iterations
// round-robin; the following sequential stage merges tokens back in
// iteration order, which preserves sequential semantics for in-order
// stages (e.g. deterministic console output).
func (m *machine) startPipeline(th *des.Thread, mainFr *frame, threads int) (*pipeNet, error) {
	stages := m.sched.Stages
	if len(stages) < 2 {
		return nil, fmt.Errorf("exec: pipeline schedule needs at least 2 stages")
	}
	// Replica counts: the single parallel stage receives every thread not
	// running a sequential stage. stageReps is shared with CrashRoster so
	// fault plans name exactly the roles this run spawns.
	p := &pipeNet{reps: stageReps(stages, threads), qs: make([][]*des.Queue, len(stages)-1)}

	// Queues between consecutive stages. Between stage i and i+1 there are
	// max(reps[i], reps[i+1]) queues: a parallel side owns one queue per
	// replica; a sequential side round-robins over them.
	for i := range p.qs {
		p.qs[i] = make([]*des.Queue, max(p.reps[i], p.reps[i+1]))
		for k := range p.qs[i] {
			p.qs[i][k] = m.newWorkQueue(fmt.Sprintf("q%d.%d", i, k))
		}
	}
	for _, r := range p.reps[1:] {
		p.workers += r
	}
	// Room for every stage worker's join message and the batch
	// dispatcher's own.
	p.join = m.sim.NewQueue("pipe.join", p.workers+1)
	p.ff = m.flowForward()
	for si := 1; si < len(stages); si++ {
		for rep := 0; rep < p.reps[si]; rep++ {
			m.sim.Spawn(fmt.Sprintf("stage%d.%d", si, rep), th.VTime, func(th *des.Thread) error {
				m.stageWorker(th, mainFr, si, rep, p)
				return nil
			})
		}
	}
	return p, nil
}

// dispatchIter runs stage 0's units for one iteration on the dispatcher
// and streams the iteration's token. The token carries the frame snapshot
// taken at the start of the iteration (delivering previous-iteration
// values of any loop-carried scalars the dispatcher owns, e.g. a
// list-traversal pointer), overlaid with the post-values of slots whose
// data flows from stage 0 to later stages within the iteration.
func (m *machine) dispatchIter(th *des.Thread, st *stepper, p *pipeNet, out []*qWriter, tok token) error {
	tok.locals = append([]value.Value(nil), st.fr.locals...)
	for _, u := range m.sched.Stages[0].Units {
		if _, err := st.runUnit(u); err != nil {
			return err
		}
	}
	for slot := range p.ff[0] {
		tok.locals[slot] = st.fr.locals[slot]
	}
	st.flush()
	out[int(tok.iter)%len(out)].push(th, tok)
	return nil
}

// joinPipeline collects n join messages and merges the live-outs into
// mainFr by slot ownership: the highest stage writing a slot owns its
// final value (control slots belong to the dispatcher), taken from the
// frame of the replica that processed the stage's globally last
// iteration. Shared slots are demoted from their cells by runMain, and a
// stage with no join message — the service dispatcher's stage 0, which
// runs on mainFr itself — keeps mainFr's values.
func (m *machine) joinPipeline(th *des.Thread, p *pipeNet, mainFr *frame, n int) error {
	finals := make([]pipeJoin, len(m.sched.Stages))
	for i := range finals {
		finals[i].lastIter = -1
	}
	for i := 0; i < n; i++ {
		j := th.Pop(p.join).(pipeJoin)
		if j.lastIter > finals[j.stage].lastIter {
			finals[j.stage] = j
		}
	}
	if m.failDiag != nil {
		return m.failDiag
	}
	for slot, stg := range m.slotOwners() {
		if !m.isShared(slot) && finals[stg].fr != nil {
			mainFr.locals[slot] = finals[stg].fr.locals[slot]
		}
	}
	return nil
}

// runPipeline executes a DSWP or PS-DSWP schedule as a batch: the calling
// thread dispatches every iteration of the loop, then joins the stages.
func (m *machine) runPipeline(mainTh *des.Thread, mainFr *frame, threads int) error {
	p, err := m.startPipeline(mainTh, mainFr, threads)
	if err != nil {
		return err
	}
	m.dispatch(mainTh, mainFr, p)
	return m.joinPipeline(mainTh, p, mainFr, p.workers+1)
}

// flowForward computes, per stage, the slots whose post-stage values flow
// intra-iteration to a later stage and must be overlaid onto the forwarded
// token. All other private slots travel as iteration-start snapshots, which
// satisfies anti-dependences by construction (a later stage reading a slot
// that an earlier stage overwrites for the *next* use still sees the
// pre-write value).
func (m *machine) flowForward() []map[int]bool {
	stages := m.sched.Stages
	stageOf := map[int]int{}
	for si, st := range stages {
		for _, u := range st.Units {
			stageOf[u] = si
		}
	}
	shared := map[int]bool{}
	for _, s := range m.sched.SharedSlots {
		shared[s] = true
	}
	ff := make([]map[int]bool, len(stages))
	for i := range ff {
		ff[i] = map[int]bool{}
	}
	for _, e := range m.la.PDG.Edges {
		slot, isSlot := e.LocalSlot()
		if !isSlot || e.LoopCarried || e.Kind != pdg.DepFlow || shared[slot] {
			continue
		}
		if e.From >= len(m.lay.UnitOf) || e.To >= len(m.lay.UnitOf) {
			continue
		}
		u1 := m.lay.UnitOf[e.From]
		u2 := m.lay.UnitOf[e.To]
		if u1 < 0 || u2 < 0 {
			continue
		}
		s1, in1 := stageOf[u1]
		s2, in2 := stageOf[u2]
		if in1 && in2 && s1 < s2 {
			ff[s1][slot] = true
		}
	}
	return ff
}

// writtenSlots calls f for every frame slot the instructions write.
func writtenSlots(instrs []*ir.Instr, f func(slot int)) {
	for _, in := range instrs {
		switch in.Op {
		case ir.OpStoreLocal:
			f(in.Slot)
		case ir.OpCall:
			for _, s := range in.OutSlots {
				f(s)
			}
		}
	}
}

// slotOwners maps every loop-written slot to the highest stage writing it
// (stage 0 covers the dispatcher's control writes).
func (m *machine) slotOwners() map[int]int {
	owner := map[int]int{}
	note := func(instrs []*ir.Instr, stage int) {
		writtenSlots(instrs, func(slot int) { owner[slot] = max(owner[slot], stage) })
	}
	note(m.la.Units.Cond, 0)
	note(m.la.Units.Post, 0)
	for si, st := range m.sched.Stages {
		for _, u := range st.Units {
			note(m.la.Units.Units[u], si)
		}
	}
	return owner
}

// stageWrites returns the slots written by a stage's units (used for the
// sequential-stage persistent overlay).
func (m *machine) stageWrites(si int) map[int]bool {
	w := map[int]bool{}
	for _, u := range m.sched.Stages[si].Units {
		writtenSlots(m.la.Units.Units[u], func(slot int) { w[slot] = true })
	}
	return w
}

// mergeBodyWrites is the DOALL live-out merge: it overlays every private
// slot written by a body unit of the loop from lastFr, the frame that
// executed the globally last iteration (which may be a dead worker's
// checkpoint).
func (m *machine) mergeBodyWrites(mainFr, lastFr *frame) {
	for _, unit := range m.la.Units.Units {
		writtenSlots(unit, func(slot int) {
			if !m.isShared(slot) {
				mainFr.locals[slot] = lastFr.locals[slot]
			}
		})
	}
}

// dispatch runs loop control and stage 0 on the calling thread, over a
// private clone of the main frame, and stops at the first failure, its own
// or a stage's.
func (m *machine) dispatch(th *des.Thread, mainFr *frame, p *pipeNet) {
	fr := mainFr.clone()
	st := m.newStepper(th, fr)
	st.sharedActive = true
	out := newWriters(p.qs[0], m.cfg.Tune.BatchSize())
	lastIter := int64(-1)
	for iter := int64(0); ; iter++ {
		if m.failed() {
			break // a stage died: stop generating iterations
		}
		if m.cfg.maxIters > 0 && iter >= m.cfg.maxIters {
			break // calibration slice: stop after the sampled prefix
		}
		exit, err := m.runCond(st)
		if err == nil && !exit {
			if err = m.dispatchIter(th, st, p, out, token{iter: iter}); err == nil {
				_, err = st.runPost()
			}
		}
		if err != nil {
			// Fall through to the orderly stop-token broadcast below.
			m.fail("dispatcher", err)
			break
		}
		if exit {
			break
		}
		lastIter = iter
	}
	st.flush()
	sendStop(th, out, m.failed())
	th.Push(p.join, pipeJoin{stage: 0, lastIter: lastIter, fr: fr})
}

// stageCkpt is a pipeline stage worker's resumable snapshot, taken under the
// output-commit discipline: it is refreshed immediately after any pass that
// externalized an effect (member commit, shared-cell write, global store, or
// a batched-queue flush), and otherwise every checkpointEvery token
// passes. A crash window above the snapshot therefore contains only private
// work — frame mutations, buffered tokens — which a replacement worker can
// replay without duplicating any observable effect.
type stageCkpt struct {
	fr       *frame
	seq      int64
	lastIter int64
	event    int64
	inBufs   [][]any // batched-queue input residue per reader
	outBufs  [][]any // unflushed output tokens per writer
}

// stageState is the per-incarnation bookkeeping of one stage worker role. A
// replacement spawned after a transient crash continues the same role with a
// stageState restored from the checkpoint.
type stageState struct {
	si, rep int
	incarnation

	seq      int64 // next expected iteration of the round-robin input
	lastIter int64
	event    int64 // token passes consumed (crash-tick granularity)
	dead     bool

	ck        stageCkpt
	ckEff     int
	ckWrites  int
	ckFlushes int
	log       [][]any // tokens popped from the input queues since the checkpoint
}

// tapReaders wires the input readers' pop taps into the stage's in-flight
// token log. Tokens consumed from batch residue are not logged — they are
// already captured in the checkpoint's inBufs.
func (m *machine) tapReaders(ss *stageState, in []*qReader) {
	ss.log = make([][]any, len(in))
	for k := range in {
		in[k].tap = func(toks []any) { ss.log[k] = append(ss.log[k], toks...) }
	}
}

// takeStageCkpt snapshots the stage worker's resumable state: frame, input
// cursor, batched-queue residues on both sides, and the externalization
// baselines. The in-flight token log restarts empty at each checkpoint.
//
// The snapshot overwrites the stage's previous checkpoint in place. That
// is safe because stageCrash copies the checkpoint it captured before the
// replacement runs, and the dead incarnation takes no further checkpoint.
func (m *machine) takeStageCkpt(th *des.Thread, st *stepper, ss *stageState, in []*qReader, out []*qWriter) {
	th.Charge(m.cfg.Cost.Checkpoint)
	ck := &ss.ck
	if ck.fr == nil {
		ck.fr = &frame{}
		ck.inBufs = make([][]any, len(in))
		ck.outBufs = make([][]any, len(out))
	}
	snapshotInto(ck.fr, st.fr)
	ck.seq, ck.lastIter, ck.event = ss.seq, ss.lastIter, ss.event
	for k, r := range in {
		ck.inBufs[k] = append(ck.inBufs[k][:0], r.buf...)
	}
	for k, w := range out {
		ck.outBufs[k] = append(ck.outBufs[k][:0], w.buf...)
	}
	ss.ckEff = st.effects
	ss.ckWrites = st.it.HeapWrites
	ss.ckFlushes = totalFlushes(out)
	for k := range ss.log {
		ss.log[k] = ss.log[k][:0]
	}
}

// stageIO opens a stage worker's input readers and — except on the last
// stage — its output writers.
func (m *machine) stageIO(p *pipeNet, si int) (in []*qReader, out []*qWriter) {
	batch := m.cfg.Tune.BatchSize()
	in = newReaders(p.qs[si-1], batch)
	if si < len(m.sched.Stages)-1 {
		out = newWriters(p.qs[si], batch)
	}
	return in, out
}

// stageWorker runs one stage (replica) of the pipeline. When the crash layer
// is armed it takes an initial checkpoint and hands off to stageRun, which
// every replacement incarnation re-enters.
func (m *machine) stageWorker(th *des.Thread, mainFr *frame, si, rep int, p *pipeNet) {
	st := m.newStepper(th, mainFr.clone())
	st.sharedActive = true
	in, out := m.stageIO(p, si)
	ss := &stageState{
		si: si, rep: rep,
		incarnation: incarnation{role: fmt.Sprintf("stage%d.%d", si, rep), restartsLeft: maxRestarts},
		lastIter:    -1,
	}
	if m.sched.Stages[si].Parallel {
		ss.seq = int64(rep)
	}
	if m.checkpointing() {
		m.tapReaders(ss, in)
		m.takeStageCkpt(th, st, ss, in, out)
	}
	m.stageRun(th, st, ss, in, out, p)
}

// stageRun is the stage worker loop, shared by the original incarnation and
// every crash replacement. Crash ticks fire at the top of a token pass —
// before the pass pops or externalizes anything — so the window between the
// last checkpoint and a crash never contains an externalized effect. A
// unit's error fails the run and turns the worker into a drain.
func (m *machine) stageRun(th *des.Thread, st *stepper, ss *stageState, in []*qReader, out []*qWriter, p *pipeNet) {
	fr := st.fr
	stage := m.sched.Stages[ss.si]

	// Sequential stages keep a persistent overlay of the slots they own so
	// their own cross-iteration state (e.g. accumulators in a sequential
	// stage) survives incoming tokens.
	var owned map[int]bool
	if !stage.Parallel {
		owned = m.stageWrites(ss.si)
	}

	advance := func() {
		if stage.Parallel {
			ss.seq += int64(p.reps[ss.si])
		} else {
			ss.seq++
		}
	}
	// ss.dead marks this worker as failed: it keeps draining (and
	// discarding) its input so upstream producers never block on a full
	// queue, then forwards exactly one poisoned stop per output queue.
	for {
		if !ss.dead {
			if die, perm := m.crashAt(ss.role); die {
				if !m.stageCrash(th, ss, p, perm) {
					// A replacement thread takes over this role (and
					// pushes its join); the dead incarnation vanishes.
					return
				}
				ss.dead = true
			}
		}
		var inIdx int
		if stage.Parallel {
			inIdx = ss.rep
		} else {
			inIdx = int(ss.seq) % len(in)
		}
		// Flush pending output before parking on an empty input: a token
		// withheld in this worker's batch buffer may be exactly what the
		// downstream merge stage needs to drain the queues this worker's
		// producers are backpressured on (deadlock freedom).
		if out != nil && len(in[inIdx].buf) == 0 && in[inIdx].q.Len() == 0 {
			for _, w := range out {
				w.flush(th)
			}
		}
		tok := in[inIdx].next(th)
		ss.event++
		if tok.stop {
			poison := tok.poison || m.failed()
			if out != nil {
				st.flush()
				stops := out
				if stage.Parallel {
					// Each replica forwards its stop on its own queue.
					k := ss.rep % len(out)
					stops = out[k : k+1]
				}
				sendStop(th, stops, poison)
			}
			// On failure a sequential stage also drains its sibling input
			// queues to their stops, so live upstream replicas still
			// pushing in-flight tokens can always complete.
			if m.failed() && !stage.Parallel {
				for k := range in {
					if k == inIdx {
						continue
					}
					for {
						t2 := in[k].next(th)
						if t2.stop {
							break
						}
						if m.svc != nil {
							m.svc.rejected++ // zero silent drops: drained requests stay accounted
						}
					}
				}
			}
			break
		}
		if ss.dead || m.failed() {
			if m.svc != nil {
				m.svc.rejected++ // zero silent drops: discarded requests stay accounted
			}
			advance()
			continue // discard: the run is already diagnosed as failed
		}
		// Install the incoming frame, preserving stage-owned slots.
		for i, v := range tok.locals {
			if owned != nil && owned[i] && ss.lastIter >= 0 {
				continue
			}
			fr.locals[i] = v
		}
		for _, u := range stage.Units {
			if _, err := st.runUnit(u); err != nil {
				m.fail(ss.role, err)
				ss.dead = true
				break
			}
		}
		if ss.dead {
			advance()
			continue
		}
		ss.lastIter = tok.iter
		if m.svc != nil && ss.si == len(m.sched.Stages)-1 {
			m.svc.complete(tok.arrival, th.VTime, 0)
			// A response left the system: treat the completion as an
			// externalized effect so the output-commit checkpoint refreshes
			// and a crash replay can never re-complete this request.
			st.effects++
		}
		if out != nil {
			// Forward the incoming snapshot, overlaying only the values
			// this stage flows to later stages; slots this stage mutates
			// for its own use keep their snapshot (pre-write) values.
			// The consuming stage is the only holder of a popped token's
			// locals, so the overlay goes onto them in place, except when
			// checkpointing: the in-flight token log and the checkpoint's
			// input residue still reference popped tokens, and a replay
			// after a crash must see them unmodified.
			if m.checkpointing() {
				tok.locals = slices.Clone(tok.locals)
			}
			for slot := range p.ff[ss.si] {
				tok.locals[slot] = fr.locals[slot]
			}
			st.flush()
			var w *qWriter
			if stage.Parallel {
				w = out[ss.rep%len(out)]
			} else {
				w = out[int(tok.iter)%len(out)]
			}
			w.push(th, token{iter: tok.iter, arrival: tok.arrival, locals: tok.locals})
		}
		advance()
		if m.checkpointing() {
			externalized := st.effects != ss.ckEff ||
				st.it.HeapWrites != ss.ckWrites ||
				totalFlushes(out) != ss.ckFlushes
			if externalized || ss.event-ss.ck.event >= checkpointEvery {
				m.takeStageCkpt(th, st, ss, in, out)
			}
		}
	}
	th.Push(p.join, pipeJoin{stage: ss.si, lastIter: ss.lastIter, fr: fr})
}

// stageCrash handles a crash tick that fired for this stage worker. It
// returns drain=true when the role stays permanently dead — the supervisor
// diagnoses a non-transient failure and reaps the worker in place, which
// keeps draining input so the pipeline shuts down in order — and
// drain=false after scheduling a replacement incarnation for a transient
// crash.
func (m *machine) stageCrash(th *des.Thread, ss *stageState, p *pipeNet, perm bool) (drain bool) {
	death := m.crash(th, ss.incarnation, ss.event, ss.event-ss.ck.event, perm)
	if death.Perm {
		// Degraded mode: a pipeline cannot re-partition around a missing
		// stage, so the death fails the run, and RunResilient falls back
		// to the sequential run. The reaped worker stays behind as a
		// drain.
		m.fail(ss.role, death)
		return true
	}

	// Transient: restore the checkpoint onto a fresh simulated thread. The
	// replacement replays the logged in-flight tokens (popped since the
	// checkpoint, hence gone from the queues) ahead of live queue input; the
	// crash window externalized nothing, so the replay cannot duplicate an
	// observable effect. The replacement copies everything it takes from
	// ck before it runs, and this incarnation takes no further checkpoint,
	// so the buffers ck shares with ss.ck stay as captured.
	ck := ss.ck
	replays := make([][]any, len(ss.log))
	for k := range ss.log {
		replays[k] = append([]any(nil), ss.log[k]...)
	}
	m.restart(th, ss.incarnation, m.cfg.Cost.Restore, func(th *des.Thread, life incarnation) {
		st := m.newStepper(th, snapshotFrame(ck.fr))
		st.sharedActive = true
		in, out := m.stageIO(p, ss.si)
		for k := range in {
			buf := append([]any(nil), ck.inBufs[k]...)
			in[k].buf = append(buf, replays[k]...)
		}
		for k := range out {
			out[k].buf = append([]any(nil), ck.outBufs[k]...)
		}
		ss2 := &stageState{
			si: ss.si, rep: ss.rep, incarnation: life,
			seq: ck.seq, lastIter: ck.lastIter, event: ck.event,
		}
		m.tapReaders(ss2, in)
		// The restored state is its own checkpoint baseline: a repeated
		// crash before new externalization restores to this same point.
		m.takeStageCkpt(th, st, ss2, in, out)
		m.stageRun(th, st, ss2, in, out, p)
	})
	return false
}
