package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pipeline"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/value"
)

// Service mode turns the closed batch loop into an open system: requests
// arrive on their own seeded schedule (des.Arrivals), pass a deterministic
// admission controller (per-class virtual-time token buckets plus a bounded
// ingress queue), and each admitted request binds one loop iteration. The
// loop-control machinery stays on the dispatcher exactly as in batch mode,
// so a completed service run computes the same live-outs and externalizes a
// prefix-consistent subset of the sequential run's effects — one effect
// bundle per completed request.
//
// Every generated request lands in exactly one accounting bucket — completed,
// shed (admission), shed (full ingress), deadline-abandoned, rejected
// (drained after a diagnosed failure or a closed loop), or failed — and
// RunService verifies the balance before returning (zero silent drops).

// ServiceClass is one admission class: a virtual-time token bucket plus the
// degradation-ladder level at which the class is shed outright.
type ServiceClass struct {
	Name string `json:"name"`
	// Rate is the bucket refill rate in requests per 1e6 virtual-time
	// units; ≤ 0 disables rate limiting for the class.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket depth (default 8).
	Burst float64 `json:"burst,omitempty"`
	// ShedAtLevel, when positive, sheds the class at admission once the
	// degradation ladder reaches that level.
	ShedAtLevel int `json:"shed_at_level,omitempty"`
}

// ServiceConfig describes one open-system run.
type ServiceConfig struct {
	// Arrivals generates the interarrival gaps; Requests bounds the trace.
	Arrivals des.Arrivals
	Requests int

	// IngressCap bounds the ingress queue (default 64); arrivals beyond a
	// full ingress are shed (backpressure reaches the admission controller
	// rather than blocking the arrival process).
	IngressCap int

	// Deadline, when positive, abandons requests still queued that long
	// after arrival; the dispatcher charges abandonCost virtual-time units
	// per abandonment.
	Deadline int64

	// SLO is the target virtual latency; completions within it count toward
	// SLO attainment (≤ 0 disables the distinction).
	SLO int64

	// Classes are the admission classes (default: one unlimited class);
	// ClassOf maps request ordinal to class index (default: class 0).
	Classes []ServiceClass
	ClassOf func(k int) int

	// Scaler, when set, runs the online recalibration controller and the
	// degradation ladder.
	Scaler *ScalerConfig

	// EstReqCost seeds the controller's per-request service-cost estimate
	// until the first window completes requests to measure.
	EstReqCost int64
}

// abandonCost is the virtual time the dispatcher charges per abandoned
// request.
const abandonCost = 100

func (c *ServiceConfig) ingressCap() int {
	if c.IngressCap > 0 {
		return c.IngressCap
	}
	return 64
}

// svcReq is one arrival in the ingress queue (k < 0 is the end-of-trace
// sentinel).
type svcReq struct {
	k       int
	arrival int64
}

// svcWork is one dispatched request in the DOALL service queue.
type svcWork struct {
	iter    int64
	arrival int64
	stop    bool
	locals  []value.Value
}

// svcJoin is the completion message of one DOALL service worker.
type svcJoin struct {
	w        int
	fr       *frame
	lastIter int64
}

// svcState is the shared service-mode bookkeeping. The simulator serializes
// threads, so plain fields suffice.
type svcState struct {
	cfg     *ServiceConfig
	ingress *des.Queue
	pool    bool // DOALL worker pool (scalable); pipelines are structural
	threads int

	// Admission token buckets (one per class).
	tokens  []float64
	tokLast int64

	// Accounting (the zero-silent-drop identity).
	generated  int
	admitted   int
	completed  int
	shedBucket int
	shedQueue  int
	abandoned  int
	rejected   int
	failed     int

	lat            []int64
	withinSLO      int
	firstArrival   int64
	lastCompletion int64
	estCost        int64

	// Window deltas consumed by the controller.
	wArrivals  int
	wCompleted int
	wWithinSLO int
	wShedQueue int
	wSvcCost   int64
	wSvcCostN  int

	draining bool

	// Worker-pool state (DOALL only).
	live        []bool
	nLive       int
	target      int
	level       int
	maxLevel    int
	badRun      int
	goodRun     int
	scaleEvents []ScaleEvent
	deadWorkers int

	// steals counts backlog requests served by parked workers (Tune.Steal).
	steals int
}

func newSvcState(cfg *ServiceConfig, threads int, pool bool) *svcState {
	sv := &svcState{cfg: cfg, threads: threads, pool: pool, target: threads}
	if len(cfg.Classes) == 0 {
		cfg.Classes = []ServiceClass{{Name: "default"}}
	}
	sv.tokens = make([]float64, len(cfg.Classes))
	for i, c := range cfg.Classes {
		sv.tokens[i] = c.burst()
	}
	sv.live = make([]bool, threads)
	for i := range sv.live {
		sv.live[i] = true
	}
	sv.nLive = threads
	sv.estCost = cfg.EstReqCost
	return sv
}

func (c ServiceClass) burst() float64 {
	if c.Burst > 0 {
		return c.Burst
	}
	return 8
}

// admit runs the admission controller for request k arriving now. A denied
// request is accounted before returning.
func (sv *svcState) admit(now int64, k int) bool {
	sv.generated++
	sv.wArrivals++
	if sv.firstArrival == 0 {
		sv.firstArrival = now
	}
	class := 0
	if sv.cfg.ClassOf != nil {
		class = sv.cfg.ClassOf(k)
	}
	if class < 0 || class >= len(sv.cfg.Classes) {
		class = 0
	}
	c := sv.cfg.Classes[class]
	// Ladder shed: the class is turned away outright at this level.
	if c.ShedAtLevel > 0 && sv.level >= c.ShedAtLevel {
		sv.shedBucket++
		return false
	}
	// Token bucket in virtual time.
	if c.Rate > 0 {
		elapsed := now - sv.tokLast
		sv.tokLast = now
		for i, cl := range sv.cfg.Classes {
			if cl.Rate <= 0 {
				continue
			}
			sv.tokens[i] += float64(elapsed) * cl.Rate / 1e6
			if b := cl.burst(); sv.tokens[i] > b {
				sv.tokens[i] = b
			}
		}
		if sv.tokens[class] < 1 {
			sv.shedBucket++
			return false
		}
		sv.tokens[class]--
	}
	// Bounded ingress: backpressure sheds instead of blocking arrivals.
	if sv.ingress.Len() >= sv.cfg.ingressCap() {
		sv.shedQueue++
		sv.wShedQueue++
		return false
	}
	sv.admitted++
	return true
}

// complete records one finished request.
func (sv *svcState) complete(arrival, now, cost int64) {
	l := now - arrival
	sv.lat = append(sv.lat, l)
	sv.completed++
	sv.wCompleted++
	if sv.cfg.SLO <= 0 || l <= sv.cfg.SLO {
		sv.withinSLO++
		sv.wWithinSLO++
	}
	if now > sv.lastCompletion {
		sv.lastCompletion = now
	}
	if cost > 0 {
		sv.wSvcCost += cost
		sv.wSvcCostN++
	}
}

// markDead retires worker w permanently; the last death fails the run.
func (sv *svcState) markDead(m *machine, w int, vtime int64) {
	if w < len(sv.live) && sv.live[w] {
		sv.live[w] = false
		sv.nLive--
		sv.deadWorkers++
	}
	if sv.nLive == 0 {
		role := fmt.Sprintf("svc.%d", w)
		m.fail(role, &CrashError{Thread: role, VTime: vtime, Perm: true,
			Reason: "permanent crash with no surviving service workers"})
	}
}

// mayServe reports whether pool worker w is in the active set: the target's
// first live workers by index serve, the rest park (scaled down).
func (sv *svcState) mayServe(w int) bool {
	if !sv.pool {
		return true
	}
	if w < len(sv.live) && !sv.live[w] {
		return false
	}
	rank := 0
	for i := 0; i < w && i < len(sv.live); i++ {
		if sv.live[i] {
			rank++
		}
	}
	return rank < sv.target
}

// parkQuantum is how long a scaled-down worker sleeps between activation
// checks.
func (sv *svcState) parkQuantum() int64 {
	if sc := sv.cfg.Scaler; sc != nil {
		return sc.window() / 2
	}
	return 10000
}

// stealBacklog is the dispatch-queue depth at which a parked worker steals
// a request instead of sleeping: once every active worker has at least one
// request queued, head-of-line blocking behind a heavy request is certain,
// so idle capacity drains it. A pure function of the pool size, keeping
// the decision deterministic.
func (sv *svcState) stealBacklog() int {
	if sv.threads > 2 {
		return sv.threads
	}
	return 2
}

// admissionState renders the controller state for stall diagnostics
// (Scheduler.DiagNote): a stalled service run names its ladder level, pool
// target, and bucket fills alongside the saturated queue.
func (sv *svcState) admissionState() string {
	s := fmt.Sprintf("admission: level=%d workers=%d/%d live=%d", sv.level, sv.target, sv.threads, sv.nLive)
	for i, c := range sv.cfg.Classes {
		if c.Rate > 0 {
			s += fmt.Sprintf(" %s=%.1f", c.Name, sv.tokens[i])
		}
	}
	s += fmt.Sprintf(" generated=%d completed=%d shed=%d abandoned=%d",
		sv.generated, sv.completed, sv.shedBucket+sv.shedQueue, sv.abandoned)
	return s
}

// balance checks the zero-silent-drop identity.
func (sv *svcState) balance() error {
	sum := sv.completed + sv.shedBucket + sv.shedQueue + sv.abandoned + sv.rejected + sv.failed
	if sum != sv.generated {
		return fmt.Errorf("exec: service accounting violation: generated %d != completed %d + shed %d+%d + abandoned %d + rejected %d + failed %d",
			sv.generated, sv.completed, sv.shedBucket, sv.shedQueue, sv.abandoned, sv.rejected, sv.failed)
	}
	if sv.admitted != sv.completed+sv.abandoned+sv.rejected+sv.failed {
		return fmt.Errorf("exec: service accounting violation: admitted %d != completed %d + abandoned %d + rejected %d + failed %d",
			sv.admitted, sv.completed, sv.abandoned, sv.rejected, sv.failed)
	}
	return nil
}

// ServiceResult reports one service run.
type ServiceResult struct {
	Schedule string `json:"schedule"`
	Sync     string `json:"sync"`
	Threads  int    `json:"threads"`
	Arrivals string `json:"arrivals"`
	Makespan int64  `json:"makespan"`

	Generated  int `json:"generated"`
	Admitted   int `json:"admitted"`
	Completed  int `json:"completed"`
	ShedBucket int `json:"shed_bucket"`
	ShedQueue  int `json:"shed_queue"`
	Abandoned  int `json:"abandoned"`
	Rejected   int `json:"rejected"`
	Failed     int `json:"failed"`

	P50           int64   `json:"p50"`
	P99           int64   `json:"p99"`
	P999          int64   `json:"p999"`
	MaxLatency    int64   `json:"max_latency"`
	WithinSLO     int     `json:"within_slo"`
	SLOAttainment float64 `json:"slo_attainment"`
	// ThroughputPerMvt is completions per 1e6 virtual-time units over the
	// span from first arrival to last completion.
	ThroughputPerMvt float64 `json:"throughput_per_mvt"`
	ShedRate         float64 `json:"shed_rate"`

	IngressHighWater int            `json:"ingress_high_water"`
	QueueHighWater   map[string]int `json:"queue_high_water,omitempty"`

	Level       int          `json:"level"`
	MaxLevel    int          `json:"max_level"`
	ScaleEvents []ScaleEvent `json:"scale_events,omitempty"`
	EstReqCost  int64        `json:"est_req_cost,omitempty"`

	CallRetries    int             `json:"call_retries,omitempty"`
	IterRetries    int             `json:"iter_retries,omitempty"`
	Restarts       int             `json:"restarts,omitempty"`
	DeadWorkers    int             `json:"dead_workers,omitempty"`
	RestartHistory []RestartRecord `json:"restart_history,omitempty"`
	// Steals counts backlog requests served by parked (scaled-down)
	// workers under Tune.Steal — the anti-head-of-line-blocking path.
	Steals int `json:"steals,omitempty"`

	Attempts int           `json:"attempts,omitempty"`
	FellBack bool          `json:"fell_back,omitempty"`
	Aborted  *ServiceAbort `json:"aborted,omitempty"`
}

// ServiceAbort summarizes a failed parallel service attempt — the evidence
// (ladder walk, restart count, accounting) carried alongside the fallback's
// result.
type ServiceAbort struct {
	Err         string       `json:"err"`
	MaxLevel    int          `json:"max_level"`
	ScaleEvents []ScaleEvent `json:"scale_events,omitempty"`
	Restarts    int          `json:"restarts,omitempty"`
	Generated   int          `json:"generated"`
	Completed   int          `json:"completed"`
	Shed        int          `json:"shed"`
	Abandoned   int          `json:"abandoned"`
}

// pct returns the nearest-rank percentile of the (sorted) latency sample.
func pct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// result assembles the report from the run's final state.
func (sv *svcState) result(m *machine, sched *transform.Schedule, mode SyncMode, threads int, makespan int64, sim *des.Scheduler) *ServiceResult {
	res := &ServiceResult{
		Schedule: sched.String(),
		Sync:     mode.String(),
		Threads:  threads,
		Arrivals: sv.cfg.Arrivals.Name(),
		Makespan: makespan,

		Generated:  sv.generated,
		Admitted:   sv.admitted,
		Completed:  sv.completed,
		ShedBucket: sv.shedBucket,
		ShedQueue:  sv.shedQueue,
		Abandoned:  sv.abandoned,
		Rejected:   sv.rejected,
		Failed:     sv.failed,

		WithinSLO: sv.withinSLO,

		Level:       sv.level,
		MaxLevel:    sv.maxLevel,
		ScaleEvents: sv.scaleEvents,
		EstReqCost:  sv.estCost,

		CallRetries:    m.stats.callRetries,
		IterRetries:    m.stats.iterRetries,
		Restarts:       m.stats.restarts,
		DeadWorkers:    sv.deadWorkers,
		RestartHistory: m.restarts,
		Steals:         sv.steals,
	}
	lat := append([]int64(nil), sv.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50 = pct(lat, 0.50)
	res.P99 = pct(lat, 0.99)
	res.P999 = pct(lat, 0.999)
	if n := len(lat); n > 0 {
		res.MaxLatency = lat[n-1]
	}
	if sv.admitted > 0 {
		res.SLOAttainment = float64(sv.withinSLO) / float64(sv.admitted)
	} else {
		res.SLOAttainment = 1
	}
	if span := sv.lastCompletion - sv.firstArrival; span > 0 {
		res.ThroughputPerMvt = float64(sv.completed) * 1e6 / float64(span)
	}
	if sv.generated > 0 {
		res.ShedRate = float64(sv.shedBucket+sv.shedQueue) / float64(sv.generated)
	}
	if sv.ingress != nil {
		res.IngressHighWater = sv.ingress.HighWater()
	}
	if sim != nil {
		for _, d := range sim.QueueDiags() {
			if d.Name == "ingress" || d.HighWater == 0 {
				continue
			}
			if res.QueueHighWater == nil {
				res.QueueHighWater = map[string]int{}
			}
			res.QueueHighWater[d.Name] = d.HighWater
		}
	}
	return res
}

// RunService executes the target loop as an open-system service. Unlike Run,
// a non-nil *ServiceResult accompanies most errors so the fallback machinery
// can carry the aborted attempt's degradation evidence.
func RunService(cfg Config, svc ServiceConfig, la *pipeline.LoopAnalysis, sched *transform.Schedule, mode SyncMode, threads int) (*ServiceResult, error) {
	if svc.Arrivals == nil || svc.Requests <= 0 {
		return nil, fmt.Errorf("exec: service config needs an arrival process and a positive request count")
	}
	if la.Fn.Name != "main" {
		return nil, fmt.Errorf("exec: target loop must be in main, not %s", la.Fn.Name)
	}
	if sched == nil {
		sched = &transform.Schedule{Kind: transform.Sequential}
	}
	if threads < 1 || sched.Kind == transform.Sequential {
		threads = 1
	}
	if sched.Kind == transform.Sequential && svc.Scaler != nil && svc.Scaler.AllowFallback {
		// The sequential service IS the ladder's final rung: there is
		// nothing further to fall back to, so the ladder tops out at
		// shedding (level 2 clamps to the already-minimal pool).
		sc := *svc.Scaler
		sc.AllowFallback = false
		svc.Scaler = &sc
	}
	// A service is always resilient: requests are isolated and recovery cost
	// shows up as latency, never as an aborted trace.
	if cfg.Recovery == nil {
		cfg.Recovery = DefaultRecovery()
	}
	// Service mode owns pacing: no one-shot auto-tuning (the controller
	// recalibrates online), and — with a crash plan armed — per-token
	// queue transfers so no request rides an unflushed batch buffer into a
	// crash window.
	cfg.Auto = nil
	cfg.Tune.Privatize = false
	if cfg.CrashCheck != nil {
		cfg.Tune.Batch = 1
	}

	m := newMachine(cfg, la, sched, mode)
	sv := newSvcState(&svc, threads, sched.Kind == transform.DOALL)
	m.svc = sv
	m.sim.DiagNote = sv.admissionState
	makespan, err := m.simulate(func(th *des.Thread, fr *frame) error {
		return m.serveTrace(th, fr, threads)
	})
	res := sv.result(m, sched, mode, threads, makespan, m.sim)
	if err == nil {
		err = sv.balance()
	}
	return res, err
}

// serveTrace is the service loop of runMain: it opens the ingress queue,
// starts the arrival and controller threads, and serves the trace under
// the schedule.
func (m *machine) serveTrace(th *des.Thread, fr *frame, threads int) error {
	sv := m.svc
	sv.ingress = m.sim.NewQueue("ingress", sv.cfg.ingressCap()+1) // +1: the stop sentinel never blocks admission
	m.spawnArrivals(th)
	if sv.cfg.Scaler != nil {
		m.sim.Spawn("svc-ctl", th.VTime, func(cth *des.Thread) error {
			return m.svcController(cth)
		})
	}

	// The dispatcher steps loop control on the main frame directly, with
	// shared-cell interposition active (control may read promoted slots).
	dst := m.newStepper(th, fr)
	dst.sharedActive = true
	switch m.sched.Kind {
	case transform.Sequential:
		return m.svcSequential(th, dst)
	case transform.DOALL:
		return m.svcDOALL(th, dst, fr, threads)
	case transform.DSWP, transform.PSDSWP:
		return m.svcPipeline(th, dst, fr, threads)
	}
	return fmt.Errorf("exec: unsupported service schedule kind %v", m.sched.Kind)
}

// spawnArrivals starts the request-generation thread: per request, sleep the
// process gap, run admission, and push admitted requests into the ingress
// queue. A sentinel closes the trace.
func (m *machine) spawnArrivals(th *des.Thread) {
	sv := m.svc
	m.sim.Spawn("arrivals", th.VTime, func(ath *des.Thread) error {
		for k := 0; k < sv.cfg.Requests; k++ {
			ath.Sleep(sv.cfg.Arrivals.Next())
			if sv.admit(ath.VTime, k) {
				ath.Push(sv.ingress, svcReq{k: k, arrival: ath.VTime})
			}
		}
		ath.Push(sv.ingress, svcReq{k: -1})
		return nil
	})
}

// svcNext pops the next serviceable request, running loop control for it.
// Deadline-expired requests are abandoned here — timeout abandonment charged
// in virtual time — and once the run is failed (or the loop condition
// closes), the remaining trace drains as rejected. ok=false ends the trace.
func (m *machine) svcNext(th *des.Thread, st *stepper, closed *bool) (svcReq, bool) {
	sv := m.svc
	for {
		req := th.Pop(sv.ingress).(svcReq)
		if req.k < 0 {
			return req, false
		}
		if m.failed() {
			sv.rejected++
			continue
		}
		if d := sv.cfg.Deadline; d > 0 && th.VTime-req.arrival > d {
			sv.abandoned++
			th.Charge(abandonCost)
			continue
		}
		if !*closed {
			exit, err := m.runCond(st)
			if err != nil {
				m.fail("dispatcher", err)
				sv.rejected++
				continue
			}
			if exit {
				*closed = true
			}
		}
		if *closed {
			sv.rejected++
			continue
		}
		return req, true
	}
}

// svcSequential serves the trace one request at a time on the dispatcher —
// the sequential service baseline and the degradation ladder's final rung.
func (m *machine) svcSequential(th *des.Thread, st *stepper) error {
	sv := m.svc
	closed := false
	for {
		req, ok := m.svcNext(th, st, &closed)
		if !ok {
			break
		}
		start := th.VTime
		if err := m.runIterBody(st, st.fr); err != nil {
			sv.failed++
		} else {
			sv.complete(req.arrival, th.VTime, th.VTime-start)
		}
		if _, err := st.runGroup(m.la.Units.Post); err != nil {
			m.fail("dispatcher", err)
		}
	}
	sv.draining = true
	if m.failDiag != nil {
		return m.failDiag
	}
	return nil
}

// svcWorkerState is the restartable identity of one pool worker role.
type svcWorkerState struct {
	w int
	incarnation
	lastIter int64
	served   int64 // crash-tick ordinal (serve-loop passes)
}

// svcDOALL serves the trace over a scalable pool of stateless workers: the
// dispatcher binds each admitted request to one loop iteration and queues a
// frame snapshot; any active worker executes it.
func (m *machine) svcDOALL(th *des.Thread, st *stepper, mainFr *frame, threads int) error {
	sv := m.svc
	dispatch := m.newWorkQueue("svcq")
	join := m.sim.NewQueue("svc.join", threads)
	for w := 0; w < threads; w++ {
		role := fmt.Sprintf("svc.%d", w)
		m.sim.Spawn(role, th.VTime, func(th *des.Thread) error {
			ws := &svcWorkerState{w: w, incarnation: incarnation{role: role, restartsLeft: maxRestarts}, lastIter: -1}
			m.svcServe(th, ws, mainFr, dispatch, join)
			return nil
		})
	}

	closed := false
	var iter int64
	for {
		req, ok := m.svcNext(th, st, &closed)
		if !ok {
			break
		}
		locals := make([]value.Value, len(st.fr.locals))
		copy(locals, st.fr.locals)
		th.Push(dispatch, svcWork{iter: iter, arrival: req.arrival, locals: locals})
		if _, err := st.runGroup(m.la.Units.Post); err != nil {
			m.fail("dispatcher", err)
		}
		iter++
	}
	sv.draining = true
	if m.failed() {
		// The pool may be gone: reclaim undispatched work so every admitted
		// request stays accounted.
		for dispatch.Len() > 0 {
			if wk, ok := th.Pop(dispatch).(svcWork); ok && !wk.stop {
				sv.rejected++
			}
		}
	}
	th.Push(dispatch, svcWork{stop: true})

	var lastFr *frame
	lastIter := int64(-1)
	for i := 0; i < threads; i++ {
		d := th.Pop(join).(svcJoin)
		if d.fr != nil && d.lastIter > lastIter {
			lastIter, lastFr = d.lastIter, d.fr
		}
	}
	if m.failDiag != nil {
		return m.failDiag
	}
	if lastFr != nil {
		m.mergeBodyWrites(mainFr, lastFr)
	}
	return nil
}

// svcServe is one pool worker's serve loop over a fresh clone of the
// loop-entry frame, shared by the original incarnation and crash
// replacements. A scaled-down worker parks; crash ticks fire at the top of
// an active pass, before anything is popped, so a death never strands a
// request (completed work is output-committed at the request boundary).
func (m *machine) svcServe(th *des.Thread, ws *svcWorkerState, mainFr *frame, dispatch, join *des.Queue) {
	sv := m.svc
	st := m.newStepper(th, mainFr.clone())
	st.sharedActive = true
	fr := st.fr
	// serve runs one request. Request isolation: a failure is charged to
	// this request alone; the worker stays up for the rest of the trace.
	serve := func(wk svcWork) bool {
		copy(fr.locals, wk.locals)
		slow := m.straggleAt(ws.role)
		start := th.VTime
		err := m.runIterBody(st, fr)
		straggleCharge(th, slow, th.VTime-start)
		if err != nil {
			sv.failed++
			return false
		}
		ws.lastIter = wk.iter
		sv.complete(wk.arrival, th.VTime, th.VTime-start)
		return true
	}
	for {
		if !sv.mayServe(ws.w) {
			if sv.draining {
				break // active workers drain the backlog; parked ones retire
			}
			if m.cfg.Tune.Steal && dispatch.Len() >= sv.stealBacklog() {
				// Steal routing: the backlog says every active worker is
				// busy (likely head-of-line blocked behind a heavy
				// request), so a parked worker drains one request instead
				// of sleeping through the spike. Steal passes consume no
				// crash ticks — those belong to the active serve loop.
				wk := th.Pop(dispatch).(svcWork)
				if wk.stop {
					th.Push(dispatch, wk)
				} else if m.failed() {
					sv.rejected++
				} else {
					sv.steals++
					serve(wk)
				}
				continue
			}
			th.Sleep(sv.parkQuantum())
			continue
		}
		if die, perm := m.crashAt(ws.role); die {
			m.svcCrash(th, ws, mainFr, dispatch, join, perm)
			return
		}
		wk := th.Pop(dispatch).(svcWork)
		if wk.stop {
			th.Push(dispatch, wk) // leave the sentinel for the siblings
			break
		}
		ws.served++
		if m.failed() {
			sv.rejected++
			continue
		}
		if serve(wk) && m.checkpointing() {
			// Output-commit at the request boundary: the response is
			// externalized, so the role's resumable state is simply the top
			// of the next pass.
			th.Charge(m.cfg.Cost.Checkpoint)
		}
	}
	th.Push(join, svcJoin{w: ws.w, fr: fr, lastIter: ws.lastIter})
}

// svcCrash handles a crash tick on a pool worker. Transient deaths are
// restarted by the supervisor — stateless workers restore by cloning the
// loop-entry frame, since completed requests were output-committed and no
// request was in flight at the tick. Permanent deaths retire the role; the
// pool absorbs its share, and the last death fails the run.
func (m *machine) svcCrash(th *des.Thread, ws *svcWorkerState, mainFr *frame, dispatch, join *des.Queue, perm bool) {
	if m.crash(th, ws.incarnation, ws.served, 0, perm).Perm {
		m.svc.markDead(m, ws.w, th.VTime)
		th.Push(join, svcJoin{w: ws.w, fr: nil, lastIter: ws.lastIter})
		return
	}
	m.restart(th, ws.incarnation, m.cfg.Cost.Restore, func(th *des.Thread, life incarnation) {
		ws2 := &svcWorkerState{w: ws.w, incarnation: life, lastIter: ws.lastIter, served: ws.served}
		m.svcServe(th, ws2, mainFr, dispatch, join)
	})
}

// svcPipeline serves the trace through the DSWP/PS-DSWP stage network. The
// stage workers are the batch-mode ones (stageWorker/stageRun) — service
// awareness lives in the token's arrival stamp, the last stage's completion
// hook, and the accounting of discarded tokens; the crash/checkpoint layer
// works unchanged. Unlike the batch dispatcher, which stops at the first
// failure, the service dispatcher isolates a failed request and keeps
// serving. It runs stage 0 on the main frame directly, so it sends no join
// message of its own.
func (m *machine) svcPipeline(th *des.Thread, st *stepper, mainFr *frame, threads int) error {
	sv := m.svc
	p, err := m.startPipeline(th, mainFr, threads)
	if err != nil {
		return err
	}
	out := newWriters(p.qs[0], m.cfg.Tune.BatchSize())
	closed := false
	var iter int64
	for {
		req, ok := m.svcNext(th, st, &closed)
		if !ok {
			break
		}
		if err := m.dispatchIter(th, st, p, out, token{iter: iter, arrival: req.arrival}); err != nil {
			m.fail("dispatcher", err)
			sv.failed++
		}
		if _, err := st.runGroup(m.la.Units.Post); err != nil {
			m.fail("dispatcher", err)
		}
		iter++
	}
	sv.draining = true
	st.flush()
	sendStop(th, out, m.failed())
	return m.joinPipeline(th, p, mainFr, p.workers)
}

// ServiceRoster lists the worker roles a service run spawns, split into the
// structurally required set and the set the degradation ladder may scale
// away. A DOALL pool keeps Scaler.MinWorkers (default 1) always-on workers;
// pipeline stages are structural, so the whole roster is always-on.
func ServiceRoster(sched *transform.Schedule, threads, minWorkers int) (always, scalable []string) {
	if sched == nil {
		return nil, nil
	}
	if threads < 1 {
		threads = 1
	}
	switch sched.Kind {
	case transform.DOALL:
		if minWorkers < 1 {
			minWorkers = 1
		}
		if minWorkers > threads {
			minWorkers = threads
		}
		for w := 0; w < threads; w++ {
			role := fmt.Sprintf("svc.%d", w)
			if w < minWorkers {
				always = append(always, role)
			} else {
				scalable = append(scalable, role)
			}
		}
	case transform.DSWP, transform.PSDSWP:
		always = CrashRoster(sched, threads)
	}
	return always, scalable
}

// ServiceResilientOptions configures RunServiceResilient.
type ServiceResilientOptions struct {
	LA      *pipeline.LoopAnalysis
	Sched   *transform.Schedule
	Mode    SyncMode
	Threads int

	// Fresh builds a fresh Config and ServiceConfig (new substrate, new
	// arrival-process instance, new fault injector) per execution attempt.
	Fresh func() (Config, ServiceConfig)

	// Accept, when set, validates the accepted run's externalized effects
	// against the sequential reference (one effect bundle per completed
	// request).
	Accept func(res *ServiceResult) error
}

// RunServiceResilient is the degradation ladder's final rung: one parallel
// service attempt (a deterministic trace replays deterministically, so a
// second attempt could not change the outcome), then — on a failure such
// as an OverloadError or a permanently dead pipeline stage — the
// Accept-verified sequential service over a fresh trace.
func RunServiceResilient(opts ServiceResilientOptions) (*ServiceResult, error) {
	attempts := 0
	parallel := opts.Sched != nil && opts.Sched.Kind != transform.Sequential
	var lastErr error
	var aborted *ServiceAbort
	if parallel {
		attempts++
		cfg, svc := opts.Fresh()
		res, err := RunService(cfg, svc, opts.LA, opts.Sched, opts.Mode, opts.Threads)
		if err == nil && opts.Accept != nil {
			if aerr := opts.Accept(res); aerr != nil {
				err = fmt.Errorf("exec: parallel service output rejected: %w", aerr)
			}
		}
		if err == nil {
			res.Attempts = attempts
			return res, nil
		}
		lastErr = err
		aborted = abortOf(res, err)
	}

	attempts++
	cfg, svc := opts.Fresh()
	res, err := RunService(cfg, svc, opts.LA, nil, opts.Mode, 1)
	if err != nil {
		if lastErr != nil {
			return nil, fmt.Errorf("exec: parallel service failed (%v); sequential service fallback failed: %w", lastErr, err)
		}
		return nil, err
	}
	if opts.Accept != nil {
		if aerr := opts.Accept(res); aerr != nil {
			return nil, fmt.Errorf("exec: sequential service fallback produced divergent output: %w", aerr)
		}
	}
	if parallel {
		res.Schedule = opts.Sched.String() + " (sequential service fallback)"
		res.FellBack = true
	}
	res.Attempts = attempts
	res.Aborted = aborted
	return res, nil
}

// abortOf summarizes a failed attempt's result (which may be nil on
// pre-flight errors).
func abortOf(res *ServiceResult, err error) *ServiceAbort {
	a := &ServiceAbort{Err: err.Error()}
	if res != nil {
		a.MaxLevel = res.MaxLevel
		a.ScaleEvents = res.ScaleEvents
		a.Restarts = res.Restarts
		a.Generated = res.Generated
		a.Completed = res.Completed
		a.Shed = res.ShedBucket + res.ShedQueue
		a.Abandoned = res.Abandoned
	}
	return a
}
