//go:build go1.23

// Package des is a deterministic discrete-event simulator of a multicore
// machine, the execution substrate for the parallel schedules produced by
// the COMMSET compiler.
//
// The paper evaluates on an 8-core Xeon; this environment has no parallel
// hardware, so (per DESIGN.md) parallel execution is simulated: each
// logical thread runs as a coroutine that executes *real* work (the IR
// interpreter doing real digests, clustering, etc.) while accumulating
// virtual cost units. Threads yield at synchronization points — lock
// acquire/release, queue push/pop, sleep — and the scheduler processes
// these events in global virtual-time order, so results are bit-for-bit
// reproducible regardless of host parallelism.
//
// Exactly one thread runs at a time: the one holding the baton. Each
// started thread is an iter.Pull coroutine, and Run is the loop that
// resumes whichever thread the event loop grants. A yielding thread
// records its request and runs the event loop itself, taking the ready
// thread with the smallest (request time, thread ID) from a min-heap and
// stepping its event until one grants a thread its resumption. When that
// thread is the yielder (an uncontended acquire or release, a sleep that
// is still earliest) it continues inline with no switch; otherwise it
// leaves the granted thread and its grant on the scheduler and yields to
// Run, which resumes that thread, starting its coroutine on its first
// grant. Both switches are direct coroutine switches on one OS thread,
// with no run queue between them. Grant order comes from the loop, not
// from which coroutine runs it.
//
// Locks model the paper's three pessimistic mechanisms (Section 4.6):
// mutexes pay a sleep/wakeup penalty when contended, spin locks burn the
// waiter's virtual time and pay a cache-line penalty proportional to the
// number of contenders, and "lib"/nosync members pay nothing. Queues model
// the software lock-free queues used for pipeline communication, with a
// configurable per-token latency.
package des

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"strings"
)

// CostModel holds the virtual-cost parameters of the simulated machine.
type CostModel struct {
	// MutexAcquire/MutexRelease are the uncontended lock costs; MutexWake
	// is the extra sleep/wakeup penalty paid by a mutex waiter.
	MutexAcquire int64
	MutexRelease int64
	MutexWake    int64

	// SpinAcquire/SpinRelease are uncontended costs; SpinContention is the
	// cache-line-bouncing penalty charged per concurrent waiter on a
	// contended acquisition.
	SpinAcquire    int64
	SpinRelease    int64
	SpinContention int64

	// QueuePush/QueuePop are the per-token producer/consumer costs;
	// QueueLatency is the time a token takes to become visible.
	QueuePush    int64
	QueuePop     int64
	QueueLatency int64

	// QueuePushPer/QueuePopPer are the marginal costs of the second and
	// subsequent tokens of a batched PushN/PopN: the first token of a
	// batch pays the full QueuePush/QueuePop, each additional token only
	// the marginal cost (amortized enqueue/dequeue on hot edges).
	QueuePushPer int64
	QueuePopPer  int64

	// TMCommit is the per-transaction commit cost; TMAbortPenalty is added
	// to the re-execution cost on each abort.
	TMCommit       int64
	TMAbortPenalty int64

	// ThreadSpawn is the one-time cost of starting a worker.
	ThreadSpawn int64

	// Checkpoint is the base cost of snapshotting a worker's resumable
	// state (frame, cursors, batched-queue residue); Restore is the base
	// cost of rebuilding a thread from one after a crash or a steal.
	// CheckpointWord/RestoreWord are the marginal per-word costs of the
	// delta/run-length-compressed frame encoding, so a frame that barely
	// diverged from the loop-entry snapshot checkpoints almost for free
	// while a heavily mutated one pays for every literal it carries.
	Checkpoint     int64
	Restore        int64
	CheckpointWord int64
	RestoreWord    int64
}

// DefaultCostModel returns parameters calibrated to reproduce the relative
// behaviour of the paper's mechanisms: spin cheaper than mutex under
// contention, both far cheaper than the work quanta of the benchmarks.
func DefaultCostModel() CostModel {
	return CostModel{
		MutexAcquire: 30, MutexRelease: 20, MutexWake: 600,
		SpinAcquire: 15, SpinRelease: 10, SpinContention: 40,
		QueuePush: 40, QueuePop: 40, QueueLatency: 120,
		QueuePushPer: 8, QueuePopPer: 8,
		TMCommit: 60, TMAbortPenalty: 150,
		ThreadSpawn: 1000,
		Checkpoint:  24, CheckpointWord: 2,
		Restore: 120, RestoreWord: 4,
	}
}

// LockKind selects the synchronization mechanism of a Lock.
type LockKind int

// Lock kinds.
const (
	Mutex LockKind = iota
	Spin
)

// Lock is a scheduler-owned lock.
type Lock struct {
	Name string
	Kind LockKind

	held    bool
	owner   *Thread
	waiters []*Thread // blocked threads, granted in request-time order
}

// Queue is a scheduler-owned bounded queue with per-token latency
// (modelling the software lock-free queues of the DSWP family).
type Queue struct {
	Name string
	Cap  int

	// Stall, when set, returns extra visibility latency for the next
	// pushed token or batch (fault injection: pipeline-queue stalls). It
	// is called exactly once per successful push *operation*, in
	// deterministic order — a batched PushN charges one stall for the
	// whole batch, not one per token.
	Stall func() int64

	items     []queueItem
	waiters   []*Thread // blocked poppers
	blocked   []*Thread // blocked pushers
	highWater int       // deepest occupancy ever reached
}

type queueItem struct {
	val   any
	ready int64 // virtual time at which the consumer can observe it
	seq   int64 // scheduler-wide token number (happens-before probes)
}

// Len reports the number of buffered tokens.
func (q *Queue) Len() int { return len(q.items) }

// HighWater reports the deepest occupancy the queue ever reached — the
// backpressure signal service-mode reports and stall diagnostics surface.
func (q *Queue) HighWater() int { return q.highWater }

// noteDepth refreshes the high-water mark after a push.
func (q *Queue) noteDepth() {
	if len(q.items) > q.highWater {
		q.highWater = len(q.items)
	}
}

// reqKind enumerates thread yield reasons.
type reqKind int

const (
	reqNone reqKind = iota
	reqAcquire
	reqRelease
	reqPush
	reqPop
	reqSleep
	reqWake // internal: resume a woken thread, delivering pending.vals
	reqDone
)

type request struct {
	kind reqKind
	lock *Lock
	q    *Queue
	vals []any // tokens of a reqPush; popped tokens of a reqWake
	n    int   // most tokens a reqPop takes
	// batch marks a reqPush or reqPop from PushN or PopN, which stall
	// diagnostics describe as a batch.
	batch bool
	d     int64
	err   error
}

type grant struct {
	vals  []any
	vtime int64
}

// Thread is one simulated logical thread. Methods on Thread are called
// from within the thread's own coroutine.
type Thread struct {
	ID    int
	Name  string
	VTime int64

	sched   *Scheduler
	reqTime int64 // virtual time of the pending request

	// The thread's coroutine, created on its first grant: resume runs it
	// until it yields the baton back to Run, and stop unwinds it if it is
	// still parked when the run ends. park is the coroutine's yield
	// function: it hands the baton to Run and reports false once the
	// thread has been stopped.
	resume func() (struct{}, bool)
	stop   func()
	park   func(struct{}) bool

	pending request
	state   threadState
	body    func(*Thread) error

	// one carries the token of a Push or Pop, so a one-token queue
	// operation allocates nothing.
	one [1]any

	// Blocked-state bookkeeping for stall diagnostics.
	blockLock  *Lock
	blockQueue *Queue
	blockOp    string
	holds      []*Lock
}

type threadState int

const (
	tReady   threadState = iota // has a pending event at reqTime
	tBlocked                    // waiting on a lock or queue
	tDone
)

// Charge adds local computation cost to the thread's clock.
func (t *Thread) Charge(c int64) { t.VTime += c }

// post queues the thread's next request as an event at its current time
// and runs the event loop until it grants some thread, which it returns
// with its grant (nil once the run is over).
func (t *Thread) post(r request) (*Thread, grant) {
	t.pending = r
	t.reqTime = t.VTime
	t.sched.ready.push(t)
	return t.sched.next()
}

// errStopped is the panic that unwinds a thread stopped while parked at
// the end of a run; main recovers it.
var errStopped = errors.New("des: thread stopped at the end of the run")

// ThreadPanic is what Run panics with when a thread body panics: the
// thread, the body's panic value, and the stack of the goroutine at the
// panic. The stack is taken inside the thread's coroutine, since the
// coroutine switch re-raises only the value in Run.
type ThreadPanic struct {
	Thread string
	Value  any
	Stack  []byte
}

// Error renders the panic with the thread's stack, so an unrecovered
// ThreadPanic crashes the process with the frame that panicked.
func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("des: thread %s panicked: %v\n\n%s", p.Thread, p.Value, p.Stack)
}

// yield posts the request and waits for its grant. A grant to this thread
// returns inline; otherwise the thread leaves the granted thread (nil once
// the run is over) and its grant on the scheduler, parks, and reads its
// own grant there when Run resumes it. A parked thread that Run stops
// unwinds with errStopped.
func (t *Thread) yield(r request) grant {
	u, g := t.post(r)
	if u != t {
		s := t.sched
		s.passTo, s.passGrant = u, g
		if !t.park(struct{}{}) {
			panic(errStopped)
		}
		g = s.passGrant
	}
	t.VTime = g.vtime
	return g
}

// main is a started thread's coroutine: it runs the body, posts the done
// event and leaves the thread it grants for Run. The done event may sit
// behind an earlier event (and firstErr keeps event order), so it is
// never processed inline, and the finished thread never parks. A thread
// stopped while parked returns quietly; a body's panic leaves as a
// ThreadPanic.
func (t *Thread) main(park func(struct{}) bool) {
	defer func() {
		if p := recover(); p != nil && p != errStopped {
			panic(&ThreadPanic{Thread: t.Name, Value: p, Stack: debug.Stack()})
		}
	}()
	t.park = park
	s := t.sched
	s.passTo, s.passGrant = t.post(request{kind: reqDone, err: t.body(t)})
}

// Acquire blocks in virtual time until the lock is held by this thread.
func (t *Thread) Acquire(l *Lock) {
	t.yield(request{kind: reqAcquire, lock: l})
}

// Release releases the lock, waking the next waiter.
func (t *Thread) Release(l *Lock) {
	t.yield(request{kind: reqRelease, lock: l})
}

// Push enqueues a token, blocking in virtual time while the queue is full.
func (t *Thread) Push(q *Queue, v any) {
	t.one[0] = v
	t.yield(request{kind: reqPush, q: q, vals: t.one[:]})
	t.one[0] = nil
}

// Pop dequeues a token, blocking in virtual time while the queue is empty.
func (t *Thread) Pop(q *Queue) any {
	t.yield(request{kind: reqPop, q: q, n: 1})
	v := t.one[0]
	t.one[0] = nil
	return v
}

// PushN enqueues a batch of tokens in one scheduler event: the first
// token pays QueuePush, each additional token only QueuePushPer, and the
// queue's Stall hook fires once for the whole batch. A batch larger than
// the queue capacity is split into capacity-sized sub-batches. Blocks in
// virtual time until the whole (sub-)batch fits.
func (t *Thread) PushN(q *Queue, vs []any) {
	switch len(vs) {
	case 0:
		return
	case 1:
		t.Push(q, vs[0])
		return
	}
	for len(vs) > 0 {
		n := len(vs)
		if q.Cap > 0 && n > q.Cap {
			n = q.Cap
		}
		t.yield(request{kind: reqPush, q: q, vals: vs[:n:n], batch: true})
		vs = vs[n:]
	}
}

// PopN dequeues up to max buffered tokens in one scheduler event,
// blocking in virtual time while the queue is empty (so it returns at
// least one token). The first token pays QueuePop, each additional token
// only QueuePopPer.
func (t *Thread) PopN(q *Queue, max int) []any {
	if max <= 1 {
		return []any{t.Pop(q)}
	}
	return t.yield(request{kind: reqPop, q: q, n: max, batch: true}).vals
}

// Sleep advances the thread's clock by d through the scheduler (so other
// threads' events interleave correctly).
func (t *Thread) Sleep(d int64) {
	t.yield(request{kind: reqSleep, d: d})
}

// Watchdog bounds a simulation so livelock and runaway stalls become
// diagnosed errors instead of hangs. Zero fields disable the checks.
type Watchdog struct {
	// MaxVTime aborts the run when the next event would execute past this
	// virtual time (a progress budget: a healthy run finishes well inside
	// it, a stalled run keeps burning virtual time without completing).
	MaxVTime int64
	// MaxEvents aborts the run after this many scheduler events (a
	// livelock budget: threads exchanging events forever at little or no
	// virtual-time cost).
	MaxEvents int64
}

// Probe observes the scheduler's synchronization events. The sanitizer
// derives happens-before edges from it: lock release→acquire, queue
// push→pop (per token), and spawn parent→child. Probe calls happen
// outside cost accounting, so an attached probe never changes virtual
// time.
type Probe interface {
	ThreadSpawned(parent, child int)
	LockAcquired(thread int, lock string)
	LockReleased(thread int, lock string)
	QueuePushed(thread int, queue string, seqs []int64)
	QueuePopped(thread int, queue string, seqs []int64)
}

// Scheduler coordinates all threads of one simulation.
type Scheduler struct {
	Cost CostModel

	// Probe, when set, observes synchronization events (see Probe). It
	// has no effect on scheduling or virtual time.
	Probe Probe

	// Watchdog, when set, converts stalls and livelocks into diagnosed
	// StallErrors naming every live thread and what it waits on.
	Watchdog Watchdog

	// DiagNote, when set, contributes one line of harness state (e.g. the
	// service runtime's current admission-controller state) to StallError
	// diagnostics, so a stalled run names not just the saturated queue but
	// the admission decisions that filled it.
	DiagNote func() string

	threads []*Thread
	ready   readyQueue // threads with a pending event, by (reqTime, ID)
	running *Thread    // thread granted most recently: the one whose body runs
	tokSeq  int64      // next queue-token sequence number

	events   int64  // events processed (the watchdog's event count)
	handoffs int64  // grants that switched coroutines: Run resumed their thread
	tripped  string // why the watchdog stopped the run, if it did

	// The baton on its way to Run: the thread a yielding thread's event
	// loop granted, when it is not the yielder (nil once the run is
	// over), and its grant.
	passTo    *Thread
	passGrant grant

	locks  []*Lock
	queues []*Queue

	deaths []DeathRecord

	firstErr error
}

// DeathRecord is one simulated-thread death (an injected crash): which
// thread died, at what virtual time, and why. Deaths are surfaced in
// Watchdog-style StallError diagnostics so a stalled run names the crashes
// that preceded the stall.
type DeathRecord struct {
	Thread string
	VTime  int64
	Reason string
}

// RecordDeath logs a thread death for diagnostics. Called by the executor's
// supervisor when a fault plan kills a simulated thread.
func (s *Scheduler) RecordDeath(thread string, vtime int64, reason string) {
	s.deaths = append(s.deaths, DeathRecord{Thread: thread, VTime: vtime, Reason: reason})
}

// New creates a scheduler with the given cost model.
func New(cost CostModel) *Scheduler {
	return &Scheduler{Cost: cost}
}

// NewLock registers a lock.
func (s *Scheduler) NewLock(name string, kind LockKind) *Lock {
	l := &Lock{Name: name, Kind: kind}
	s.locks = append(s.locks, l)
	return l
}

// NewQueue registers a bounded queue.
func (s *Scheduler) NewQueue(name string, capacity int) *Queue {
	q := &Queue{Name: name, Cap: capacity}
	s.queues = append(s.queues, q)
	return q
}

// Spawn registers a thread starting at the given virtual time. Threads run
// body and terminate when it returns.
func (s *Scheduler) Spawn(name string, start int64, body func(*Thread) error) *Thread {
	t := &Thread{
		ID:    len(s.threads),
		Name:  name,
		VTime: start + s.Cost.ThreadSpawn,
		sched: s,
		state: tReady,
		body:  body,
	}
	t.reqTime = t.VTime
	s.threads = append(s.threads, t)
	s.ready.push(t)
	if s.Probe != nil {
		parent := -1
		if s.running != nil {
			parent = s.running.ID
		}
		s.Probe.ThreadSpawned(parent, t.ID)
	}
	return t
}

// Run executes the simulation to completion and returns the maximum thread
// finish time (the makespan) or the first thread error. A simulation that
// ends with blocked threads, exceeds the watchdog's virtual-time budget, or
// exceeds its event budget returns a *StallError diagnosing every live
// thread.
//
// Run is the loop that resumes threads: it runs the event loop until an
// event grants a thread, then resumes that thread's coroutine until it
// yields the baton back with the next granted thread, and so on until no
// thread is ready or the watchdog trips. Threads whose bodies have not
// returned by then (blocked, ready behind a watchdog trip, or halted by
// releasing a lock they do not hold) are stopped, and Run returns only
// after every thread coroutine has exited. A panic in a thread body
// propagates out of Run after the same cleanup, as a *ThreadPanic.
func (s *Scheduler) Run() (int64, error) {
	defer s.stopThreads()
	s.passTo, s.passGrant = s.next()
	for s.passTo != nil {
		s.handOff(s.passTo)
	}

	makespan := s.makespan()
	if s.tripped != "" {
		return makespan, s.stallError("watchdog", s.tripped)
	}
	blocked := 0
	for _, t := range s.threads {
		if t.state == tBlocked {
			blocked++
		}
	}
	if s.firstErr != nil {
		return makespan, s.firstErr
	}
	if blocked > 0 {
		return makespan, s.stallError("deadlock",
			fmt.Sprintf("%d thread(s) still blocked at end of simulation", blocked))
	}
	return makespan, nil
}

// makespan returns the maximum thread virtual time reached so far.
func (s *Scheduler) makespan() int64 {
	var m int64
	for _, t := range s.threads {
		if t.VTime > m {
			m = t.VTime
		}
	}
	return m
}

// ThreadDiag is one live thread's state inside a StallError.
type ThreadDiag struct {
	Name  string
	VTime int64
	// State describes what the thread is doing: ready, or blocked on a
	// named lock (with its current owner) or queue (with its occupancy).
	State string
	// Holds names the locks the thread currently owns.
	Holds []string
}

// QueueDiag is one queue's occupancy snapshot inside a StallError (and in
// Scheduler.QueueDiags): current depth, capacity, the deepest occupancy
// ever reached, and how many threads are parked on each side. A saturated
// service-mode run names its bottleneck queue through these.
type QueueDiag struct {
	Name           string `json:"name"`
	Len            int    `json:"len"`
	Cap            int    `json:"cap"`
	HighWater      int    `json:"high_water"`
	BlockedPushers int    `json:"blocked_pushers,omitempty"`
	WaitingPoppers int    `json:"waiting_poppers,omitempty"`
}

// QueueDiags snapshots every registered queue that has ever held a token,
// in registration order.
func (s *Scheduler) QueueDiags() []QueueDiag {
	var out []QueueDiag
	for _, q := range s.queues {
		if q.highWater == 0 && len(q.blocked) == 0 && len(q.waiters) == 0 {
			continue
		}
		out = append(out, QueueDiag{
			Name: q.Name, Len: len(q.items), Cap: q.Cap, HighWater: q.highWater,
			BlockedPushers: len(q.blocked), WaitingPoppers: len(q.waiters),
		})
	}
	return out
}

// StallError diagnoses a deadlocked, livelocked, or stalled simulation:
// every non-finished thread with what it waits on and what it holds.
type StallError struct {
	Kind    string // "deadlock" or "watchdog"
	Reason  string
	Threads []ThreadDiag
	// Queues snapshots every active queue — depth, capacity, high-water
	// mark, and parked threads per side — so a stalled service run names
	// the saturated queue directly.
	Queues []QueueDiag
	// Note carries one line of harness state (the Scheduler.DiagNote hook;
	// e.g. the service admission controller's level and shed counters).
	Note string
	// Deaths lists the injected thread crashes that preceded the stall —
	// the restart history a post-mortem needs to see whether the stall is
	// a recovery bug or an unrelated hang.
	Deaths []DeathRecord
}

// Error renders the multi-line diagnostic.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "des: %s — %s", e.Kind, e.Reason)
	for _, t := range e.Threads {
		fmt.Fprintf(&b, "\n  thread %s @t=%d: %s", t.Name, t.VTime, t.State)
		if len(t.Holds) > 0 {
			fmt.Fprintf(&b, "; holds [%s]", strings.Join(t.Holds, ", "))
		}
	}
	for _, q := range e.Queues {
		fmt.Fprintf(&b, "\n  queue %s: %d/%d buffered, high-water %d", q.Name, q.Len, q.Cap, q.HighWater)
		if q.BlockedPushers > 0 {
			fmt.Fprintf(&b, ", %d pusher(s) blocked", q.BlockedPushers)
		}
		if q.WaitingPoppers > 0 {
			fmt.Fprintf(&b, ", %d popper(s) waiting", q.WaitingPoppers)
		}
	}
	if e.Note != "" {
		fmt.Fprintf(&b, "\n  %s", e.Note)
	}
	for _, d := range e.Deaths {
		fmt.Fprintf(&b, "\n  died: %s @t=%d: %s", d.Thread, d.VTime, d.Reason)
	}
	return b.String()
}

// stallError builds a StallError over every live thread, in thread order.
func (s *Scheduler) stallError(kind, reason string) *StallError {
	e := &StallError{Kind: kind, Reason: reason, Queues: s.QueueDiags(), Deaths: s.deaths}
	if s.DiagNote != nil {
		e.Note = s.DiagNote()
	}
	for _, t := range s.threads {
		if t.state == tDone {
			continue
		}
		d := ThreadDiag{Name: t.Name, VTime: t.VTime, State: t.describe()}
		for _, l := range t.holds {
			d.Holds = append(d.Holds, l.Name)
		}
		e.Threads = append(e.Threads, d)
	}
	return e
}

// describe renders what the thread is waiting for.
func (t *Thread) describe() string {
	if t.state != tBlocked {
		return fmt.Sprintf("ready (next event at t=%d)", t.reqTime)
	}
	switch {
	case t.blockLock != nil:
		owner := "nobody"
		if t.blockLock.owner != nil {
			owner = t.blockLock.owner.Name
		}
		return fmt.Sprintf("blocked acquiring lock %s (held by %s, %d waiter(s))",
			t.blockLock.Name, owner, len(t.blockLock.waiters))
	case t.blockQueue != nil && t.blockOp == "pop":
		batch := ""
		if t.pending.batch {
			batch = fmt.Sprintf(" for a batch of up to %d", t.pending.n)
		}
		return fmt.Sprintf("blocked popping queue %s%s (empty, %d pusher(s) blocked)",
			t.blockQueue.Name, batch, len(t.blockQueue.blocked))
	case t.blockQueue != nil && t.blockOp == "push":
		// A stalled batch names its queue once, with the token count —
		// not one diagnostic line per token.
		batch := ""
		if t.pending.batch {
			batch = fmt.Sprintf(" a batch of %d to", len(t.pending.vals))
		}
		return fmt.Sprintf("blocked pushing%s queue %s (full %d/%d, %d popper(s) waiting)",
			batch, t.blockQueue.Name, len(t.blockQueue.items), t.blockQueue.Cap, len(t.blockQueue.waiters))
	}
	return "blocked"
}

// block records why the thread is parked (for stall diagnostics).
func (t *Thread) block(l *Lock, q *Queue, op string) {
	t.state = tBlocked
	t.blockLock, t.blockQueue, t.blockOp = l, q, op
}

// wake makes a blocked thread ready with a new pending event at time at.
func (s *Scheduler) wake(t *Thread, at int64, r request) {
	t.state = tReady
	t.blockLock, t.blockQueue, t.blockOp = nil, nil, ""
	t.reqTime = at
	t.VTime = at
	t.pending = r
	s.ready.push(t)
}

// earlier orders events: by request time, then thread ID. IDs are unique,
// so the order is total.
func earlier(a, b *Thread) bool {
	return a.reqTime < b.reqTime || (a.reqTime == b.reqTime && a.ID < b.ID)
}

// readyQueue is a binary min-heap of ready threads ordered by earlier.
type readyQueue []*Thread

func (h *readyQueue) push(t *Thread) {
	q := append(*h, t)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !earlier(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *readyQueue) pop() *Thread {
	q := *h
	t := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && earlier(q[c+1], q[c]) {
			c++
		}
		if !earlier(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return t
}

// next runs the event loop for the baton holder (Run or a yielding
// thread): it steps events in (reqTime, ID) order until one grants a
// thread its resumption, and returns that thread, now s.running, with its
// grant. When no thread is ready or the watchdog trips, it returns nil.
func (s *Scheduler) next() (*Thread, grant) {
	for len(s.ready) > 0 {
		t := s.ready.pop()
		if s.Watchdog.MaxVTime > 0 && t.reqTime > s.Watchdog.MaxVTime {
			s.tripped = fmt.Sprintf("no completion by virtual time %d (budget %d)", t.reqTime, s.Watchdog.MaxVTime)
			break
		}
		s.events++
		if s.Watchdog.MaxEvents > 0 && s.events > s.Watchdog.MaxEvents {
			s.tripped = fmt.Sprintf("livelock suspected: %d scheduler events without completion (budget %d)", s.events, s.Watchdog.MaxEvents)
			break
		}
		if g, ok := s.step(t); ok {
			s.running = t
			return t, g
		}
	}
	return nil, grant{}
}

// handOff resumes a granted thread from Run and returns when the thread
// yields the baton back, leaving the next granted thread in passTo. A
// parked thread reads its grant from passGrant; a thread not yet started
// gets a new coroutine, whose first grant is its spawn-time clock,
// already in VTime.
func (s *Scheduler) handOff(t *Thread) {
	s.handoffs++
	if t.resume == nil {
		t.resume, t.stop = iter.Pull(t.main)
	}
	t.resume()
}

// stopThreads stops every started thread: one still parked in yield sees
// park report false and unwinds with errStopped, which its main recovers;
// a finished one is left as it is. Run defers it, so it also runs while a
// thread body's panic propagates out of Run.
func (s *Scheduler) stopThreads() {
	for _, t := range s.threads {
		if t.stop != nil {
			t.stop()
		}
	}
}

// step processes one thread's pending event and returns the thread's grant
// and whether it resumes now (false when it blocks, sleeps or finishes).
func (s *Scheduler) step(t *Thread) (grant, bool) {
	r := t.pending
	switch r.kind {
	case reqNone: // first activation
		return grant{vtime: t.VTime}, true
	case reqDone:
		t.state = tDone
		if r.err != nil && s.firstErr == nil {
			s.firstErr = r.err
		}
	case reqAcquire:
		return s.acquire(t, r.lock)
	case reqRelease:
		return s.release(t, r.lock)
	case reqPush:
		return s.push(t, r.q, r.vals)
	case reqPop:
		return s.pop(t, r.q, r.n)
	case reqSleep:
		// Reschedule the wake as an ordered event rather than resuming
		// immediately, so threads with earlier virtual times run first.
		t.pending = request{kind: reqWake}
		t.VTime += r.d
		t.reqTime = t.VTime
		s.ready.push(t)
	case reqWake:
		return grant{vals: r.vals, vtime: t.VTime}, true
	}
	return grant{}, false
}

func (s *Scheduler) acquire(t *Thread, l *Lock) (grant, bool) {
	if !l.held {
		l.held = true
		l.owner = t
		t.holds = append(t.holds, l)
		if s.Probe != nil {
			s.Probe.LockAcquired(t.ID, l.Name)
		}
		cost := s.Cost.MutexAcquire
		if l.Kind == Spin {
			cost = s.Cost.SpinAcquire
		}
		return grant{vtime: t.VTime + cost}, true
	}
	t.block(l, nil, "acquire")
	l.waiters = append(l.waiters, t)
	return grant{}, false
}

func (s *Scheduler) release(t *Thread, l *Lock) (grant, bool) {
	if l.owner != t {
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("des: thread %s releases lock %s it does not hold", t.Name, l.Name)
		}
		t.state = tDone
		return grant{}, false
	}
	relCost := s.Cost.MutexRelease
	if l.Kind == Spin {
		relCost = s.Cost.SpinRelease
	}
	relTime := t.VTime + relCost
	for i, h := range t.holds {
		if h == l {
			t.holds = append(t.holds[:i], t.holds[i+1:]...)
			break
		}
	}
	if s.Probe != nil {
		s.Probe.LockReleased(t.ID, l.Name)
	}

	if len(l.waiters) > 0 {
		// Grant to the earliest requester (FIFO by request time, then ID).
		i := 0
		for j, w := range l.waiters {
			if earlier(w, l.waiters[i]) {
				i = j
			}
		}
		w := l.waiters[i]
		l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
		l.owner = w
		w.holds = append(w.holds, l)
		wake := maxI64(w.reqTime, relTime)
		switch l.Kind {
		case Mutex:
			wake += s.Cost.MutexWake
		case Spin:
			// Spinners burn their own time; contended handoff pays a
			// cache-line penalty per remaining contender.
			wake += s.Cost.SpinAcquire + s.Cost.SpinContention*int64(len(l.waiters)+1)
		}
		s.wake(w, wake, request{kind: reqWake})
		if s.Probe != nil {
			s.Probe.LockAcquired(w.ID, l.Name)
		}
	} else {
		l.held = false
		l.owner = nil
	}
	return grant{vtime: relTime}, true
}

// push appends a batch of tokens (one for Push) in one event. The batch
// blocks as a unit while it does not fit; the first token pays QueuePush
// and each additional one QueuePushPer, and the Stall hook fires once for
// the batch, its extra latency applying to every token in it.
func (s *Scheduler) push(t *Thread, q *Queue, vs []any) (grant, bool) {
	if len(q.items)+len(vs) > q.Cap {
		t.block(nil, q, "push")
		q.blocked = append(q.blocked, t)
		return grant{}, false
	}
	pushTime := t.VTime + s.Cost.QueuePush + s.Cost.QueuePushPer*int64(len(vs)-1)
	latency := s.Cost.QueueLatency
	if q.Stall != nil {
		latency += q.Stall()
	}
	var seqs []int64
	if s.Probe != nil {
		seqs = make([]int64, 0, len(vs))
	}
	for _, v := range vs {
		seq := s.tokSeq
		s.tokSeq++
		if s.Probe != nil {
			seqs = append(seqs, seq)
		}
		q.items = append(q.items, queueItem{val: v, ready: pushTime + latency, seq: seq})
	}
	q.noteDepth()
	if s.Probe != nil {
		s.Probe.QueuePushed(t.ID, q.Name, seqs)
	}
	s.wakePoppers(q)
	return grant{vtime: pushTime}, true
}

// pop takes up to max buffered tokens (one for Pop) in one event, blocking
// while the queue is empty.
func (s *Scheduler) pop(t *Thread, q *Queue, max int) (grant, bool) {
	if len(q.items) == 0 {
		t.block(nil, q, "pop")
		q.waiters = append(q.waiters, t)
		return grant{}, false
	}
	taken, at := s.take(t, t.VTime, q, max)
	s.wakePushers(t.VTime, q)
	return grant{vals: taken, vtime: at}, true
}

// take removes up to max tokens from the head of the queue for t, whose
// request was posted at time from, and reports them to the probe. A Pop
// receives its token in t's one-slot buffer, a PopN a fresh slice. at is
// when t resumes: the latest taken token's ready time plus the amortized
// pop cost, QueuePop for the first token and QueuePopPer for each other.
func (s *Scheduler) take(t *Thread, from int64, q *Queue, max int) (taken []any, at int64) {
	n := min(max, len(q.items))
	if max == 1 {
		taken = t.one[:]
	} else {
		taken = make([]any, n)
	}
	var seqs []int64
	if s.Probe != nil {
		seqs = make([]int64, n)
	}
	ready := int64(0)
	for i, it := range q.items[:n] {
		taken[i] = it.val
		if seqs != nil {
			seqs[i] = it.seq
		}
		ready = maxI64(ready, it.ready)
	}
	q.items = q.items[n:]
	if s.Probe != nil {
		s.Probe.QueuePopped(t.ID, q.Name, seqs)
	}
	return taken, maxI64(from, ready) + s.Cost.QueuePop + s.Cost.QueuePopPer*int64(n-1)
}

// wakePoppers hands buffered tokens to blocked poppers in block order
// until one side runs out. Each blocked popper receives up to its
// requested count in a single wake.
func (s *Scheduler) wakePoppers(q *Queue) {
	for len(q.waiters) > 0 && len(q.items) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		taken, at := s.take(w, w.reqTime, q, w.pending.n)
		s.wake(w, at, request{kind: reqWake, vals: taken})
	}
}

// wakePushers re-dispatches blocked pushers, in block order, whose whole
// batch now fits the freed space. A batch at the head that still does
// not fit keeps later pushers blocked too, preserving FIFO push order.
func (s *Scheduler) wakePushers(now int64, q *Queue) {
	space := q.Cap - len(q.items)
	for len(q.blocked) > 0 {
		w := q.blocked[0]
		need := len(w.pending.vals)
		if need > space {
			return
		}
		space -= need
		q.blocked = q.blocked[1:]
		s.wake(w, maxI64(w.reqTime, now), w.pending)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
