// Package faults provides deterministic, seedable fault injection for the
// COMMSET runtime. A Plan describes a reproducible campaign of substrate
// faults — transient and permanent builtin failures, latency spikes,
// transactional-memory conflict storms, pipeline-queue stalls, and whole
// worker-thread crashes — and an Injector instantiates the plan over any
// substrate's builtin table.
//
// Determinism is the defining property: the discrete-event simulator
// serializes all execution, so the global sequence of builtin calls, queue
// pushes, and TM commits is identical from run to run, and every injection
// decision is a pure function of (plan seed, spec index, event stream,
// event index). The same seed and plan therefore produce bit-identical
// fault sequences, diagnostics, and outputs — the property the resilience
// layer's tests and the `commsetbench -campaign faults` campaign assert.
package faults

import (
	"fmt"
	"strings"

	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// Kind enumerates the fault classes a Spec can inject.
type Kind int

// Fault classes.
const (
	// Transient fails a builtin call cleanly (before the builtin runs, so
	// no substrate state changes) for a bounded window of calls; later
	// calls succeed. Recoverable by per-call retry.
	Transient Kind = iota
	// Permanent fails every call of the target builtin once triggered.
	// Not recoverable: the run must terminate with a diagnosed error.
	Permanent
	// Latency adds Delay virtual-cost units to an affected call without
	// failing it (a slow disk, a page fault, a cache-cold library).
	Latency
	// TMStorm charges extra synthetic aborts on transactional-memory
	// commits (a burst of optimistic-concurrency conflicts).
	TMStorm
	// QueueStall delays token visibility on pipeline queues (a slow
	// consumer core, NUMA interconnect congestion).
	QueueStall
	// Crash kills a chosen simulated worker thread at a chosen crash-tick
	// index (a segfault, an OOM kill, a node reboot). The thread's private
	// state — frame, cursors, unflushed batches, unmerged shadows — is
	// lost; shared substrate state survives. A transient crash is followed
	// by a supervisor restart from the last checkpoint; a crash with
	// Spec.Permanent set leaves the thread dead and forces degraded mode.
	Crash
	// Straggler slows a chosen simulated worker thread by Factor× for a
	// window of its passes (a thermally throttled core, a co-scheduled
	// noisy neighbour, a failing disk behind one worker). The worker stays
	// alive and correct — only its virtual time stretches — so the repair
	// is load redistribution (work stealing), not restart.
	Straggler
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Latency:
		return "latency"
	case TMStorm:
		return "tm-storm"
	case QueueStall:
		return "queue-stall"
	case Crash:
		return "crash"
	case Straggler:
		return "straggler"
	}
	return "?"
}

// Spec is one fault source inside a plan. A spec targets an event stream —
// builtin calls (Transient, Permanent, Latency), queue pushes (QueueStall),
// or TM commits (TMStorm) — and fires either deterministically by event
// index (After/Count) or probabilistically per event (Prob), seeded by the
// plan so both forms are reproducible.
type Spec struct {
	Kind Kind

	// Builtin targets one builtin by name; "" or "*" targets every builtin
	// (the event index is then the global call index across all builtins).
	// Ignored by TMStorm and QueueStall.
	Builtin string

	// Queue restricts QueueStall to queues whose name has this prefix
	// ("" = every queue).
	Queue string

	// Thread names the simulated worker role a Crash spec kills or a
	// Straggler spec slows (e.g. "doall.1", "stage2.0"). Crash and
	// Straggler only; must be non-empty, and — when the plan is validated
	// against a thread roster — must name a thread the schedule actually
	// spawns, or a dynamically spawned steal/salvage role
	// ("salvage.<worker>.<share>") that no static roster can list. The
	// event stream is the victim's per-role tick counter: one tick per
	// iteration pass (DOALL) or per token (stages), continuous across
	// restarts, so Count > 1 models repeated crashes.
	Thread string

	// Permanent marks a Crash as unrecoverable: the supervisor does not
	// restart the victim, and the run degrades (DOALL re-partitions the
	// dead worker's remaining iterations across survivors; a dead pipeline
	// stage collapses the run to the sequential fallback). Crash only.
	Permanent bool

	// After is the 1-based event index at which the fault starts firing;
	// 0 selects probabilistic firing via Prob instead.
	After int
	// Count bounds how many events the fault affects once started
	// (Transient, Latency, TMStorm, QueueStall; <= 0 means 1).
	// Permanent ignores Count: once triggered it never clears.
	Count int
	// Prob fires the fault on each event independently with this
	// probability (deterministically derived from the seed). For
	// Permanent, the first probabilistic hit latches the fault on.
	Prob float64

	// Delay is the extra virtual cost charged by Latency and QueueStall.
	Delay int64
	// Aborts is the number of extra conflict aborts charged per affected
	// TM commit by TMStorm.
	Aborts int

	// Factor is the Straggler slowdown multiplier (> 1): an affected pass
	// of the target worker costs Factor× its fault-free virtual time.
	// Straggler only.
	Factor float64
}

// window reports whether a 1-based event index falls in the spec's
// deterministic firing window.
func (s *Spec) window(idx int) bool {
	if s.After <= 0 {
		return false
	}
	if s.Kind == Permanent {
		return idx >= s.After
	}
	n := s.Count
	if n <= 0 {
		n = 1
	}
	return idx >= s.After && idx < s.After+n
}

// matchesBuiltin reports whether the spec targets the named builtin.
func (s *Spec) matchesBuiltin(name string) bool {
	return s.Builtin == "" || s.Builtin == "*" || s.Builtin == name
}

// wildcard reports whether the spec targets every builtin (and therefore
// counts events on the global call stream).
func (s *Spec) wildcard() bool { return s.Builtin == "" || s.Builtin == "*" }

// describe renders the spec for plan listings.
func (s *Spec) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", s.Kind)
	switch s.Kind {
	case TMStorm:
	case QueueStall:
		if s.Queue != "" {
			fmt.Fprintf(&b, " queue=%s*", s.Queue)
		}
	case Crash:
		fmt.Fprintf(&b, " thread=%s", s.Thread)
		if s.Permanent {
			b.WriteString(" permanent")
		}
	case Straggler:
		fmt.Fprintf(&b, " thread=%s factor=%g", s.Thread, s.Factor)
	default:
		target := s.Builtin
		if s.wildcard() {
			target = "*"
		}
		fmt.Fprintf(&b, " builtin=%s", target)
	}
	if s.After > 0 {
		fmt.Fprintf(&b, " after=%d count=%d", s.After, s.Count)
	} else {
		fmt.Fprintf(&b, " prob=%g", s.Prob)
	}
	if s.Delay > 0 {
		fmt.Fprintf(&b, " delay=%d", s.Delay)
	}
	if s.Aborts > 0 {
		fmt.Fprintf(&b, " aborts=%d", s.Aborts)
	}
	return b.String()
}

// Plan is a named, seeded set of fault specs.
type Plan struct {
	Name  string
	Seed  uint64
	Specs []Spec

	// Recoverable declares the plan's expectation: true means a resilient
	// executor must absorb every injected fault and produce
	// sequential-equivalent output; false means runs are expected to
	// terminate with a diagnosed error (never a hang or panic).
	Recoverable bool
}

// HasCrash reports whether the plan contains any Crash spec. Harnesses use
// it to arm the executor's checkpoint layer (Config.CrashCheck) only for
// plans that can actually kill a thread, keeping crash-free runs on the
// exact legacy timeline.
func (p *Plan) HasCrash() bool {
	for i := range p.Specs {
		if p.Specs[i].Kind == Crash {
			return true
		}
	}
	return false
}

// HasStraggler reports whether the plan contains any Straggler spec.
// Harnesses use it to wire the executor's per-pass slowdown hook
// (Config.Straggle) only for plans that can actually slow a thread.
func (p *Plan) HasStraggler() bool {
	for i := range p.Specs {
		if p.Specs[i].Kind == Straggler {
			return true
		}
	}
	return false
}

// String renders the plan header and its specs on one line.
func (p *Plan) String() string {
	parts := make([]string, len(p.Specs))
	for i := range p.Specs {
		parts[i] = p.Specs[i].describe()
	}
	return fmt.Sprintf("%s(seed=%d): %s", p.Name, p.Seed, strings.Join(parts, "; "))
}

// Validate checks the plan's specs for structural errors before a run, so
// malformed plans fail fast instead of deep inside a simulation. roster, if
// non-nil, lists the worker-thread roles the target schedule actually
// spawns; Crash and Straggler specs must name one of them — or a
// dynamically spawned steal/salvage role ("salvage.<worker>.<share>"),
// which the executor creates at join time and no static roster can list.
// Checks:
//
//   - Prob must lie in [0,1]; Delay and Aborts must be non-negative.
//   - Crash specs must name a target thread, must be able to fire
//     (After > 0 or Prob > 0), and — with a roster — must name a real role.
//   - Straggler specs must name a target thread, must carry a slowdown
//     Factor > 1, and must be able to fire (After > 0 or Prob > 0): a
//     straggler window that can never open repairs nothing and hides a
//     campaign typo.
//   - Thread applies only to Crash and Straggler specs; Permanent and
//     Factor are Crash-only and Straggler-only respectively.
//   - A permanent crash cannot repeat (Count > 1 conflicts with Permanent:
//     a dead, never-restarted thread has no further crash ticks).
//   - Two deterministic Crash specs whose tick windows overlap on the same
//     thread must agree on permanence — "crash then restart" and "crash for
//     good" on the same event contradict each other.
func (p *Plan) Validate(roster []string) error {
	for si := range p.Specs {
		s := &p.Specs[si]
		if s.Prob < 0 || s.Prob > 1 {
			return fmt.Errorf("plan %s spec %d (%v): Prob %g outside [0,1]", p.Name, si, s.Kind, s.Prob)
		}
		if s.Delay < 0 {
			return fmt.Errorf("plan %s spec %d (%v): negative Delay %d", p.Name, si, s.Kind, s.Delay)
		}
		if s.Aborts < 0 {
			return fmt.Errorf("plan %s spec %d (%v): negative Aborts %d", p.Name, si, s.Kind, s.Aborts)
		}
		if s.Kind != Straggler && s.Factor != 0 {
			return fmt.Errorf("plan %s spec %d (%v): Factor=%g applies only to straggler specs", p.Name, si, s.Kind, s.Factor)
		}
		if s.Kind != Crash && s.Permanent {
			return fmt.Errorf("plan %s spec %d (%v): Permanent applies only to crash specs", p.Name, si, s.Kind)
		}
		if s.Kind != Crash && s.Kind != Straggler {
			if s.Thread != "" {
				return fmt.Errorf("plan %s spec %d (%v): Thread=%q applies only to crash and straggler specs", p.Name, si, s.Kind, s.Thread)
			}
			continue
		}
		if s.Thread == "" {
			return fmt.Errorf("plan %s spec %d: %v spec must name a target thread", p.Name, si, s.Kind)
		}
		if s.Kind == Straggler {
			if s.Factor <= 1 {
				return fmt.Errorf("plan %s spec %d: straggler of %s needs a slowdown Factor > 1 (got %g)", p.Name, si, s.Thread, s.Factor)
			}
			if s.After <= 0 && s.Prob <= 0 {
				return fmt.Errorf("plan %s spec %d: straggler of %s can never fire (need After or Prob)", p.Name, si, s.Thread)
			}
		}
		if s.Kind == Crash {
			if s.After <= 0 && s.Prob <= 0 {
				return fmt.Errorf("plan %s spec %d: crash of %s can never fire (need After or Prob)", p.Name, si, s.Thread)
			}
			if s.Permanent && s.Count > 1 {
				return fmt.Errorf("plan %s spec %d: permanent crash of %s cannot repeat (Count=%d)", p.Name, si, s.Thread, s.Count)
			}
		}
		if roster != nil && !rosterHas(roster, s.Thread) && !dynamicRole(s.Thread) {
			return fmt.Errorf("plan %s spec %d: %v targets nonexistent thread %q (schedule spawns: %s)",
				p.Name, si, s.Kind, s.Thread, strings.Join(roster, ", "))
		}
		if s.Kind != Crash {
			continue
		}
		for sj := 0; sj < si; sj++ {
			o := &p.Specs[sj]
			if o.Kind != Crash || o.Thread != s.Thread || o.Permanent == s.Permanent {
				continue
			}
			if crashWindowsOverlap(o, s) {
				return fmt.Errorf("plan %s specs %d and %d: conflicting crash and permanent-crash on thread %s at the same event",
					p.Name, sj, si, s.Thread)
			}
		}
	}
	return nil
}

// dynamicRole reports whether the role name matches one the executor
// spawns dynamically rather than as part of the static schedule: salvage
// runners ("salvage.<worker>.<share>") created at join time to
// re-partition a permanently dead DOALL worker's remaining range. Such
// roles consume crash ticks of their own, so plans may legitimately
// target them, but no static roster can list them — Validate accepts
// them by shape instead.
func dynamicRole(name string) bool {
	rest, ok := strings.CutPrefix(name, "salvage.")
	if !ok {
		return false
	}
	a, b, ok := strings.Cut(rest, ".")
	return ok && isUint(a) && isUint(b)
}

func isUint(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ServiceRoster is the dynamic worker roster of a service-mode run. The
// degradation ladder may scale Scalable workers away (parked workers consume
// no crash ticks), so only Always workers — the structurally required set:
// pipeline stages, plus the pool's MinWorkers — have guaranteed crash-tick
// streams.
type ServiceRoster struct {
	Always   []string
	Scalable []string
}

// ValidateService checks the plan against a service-mode roster: the
// structural checks of Validate over the full dynamic roster, plus the
// service-specific rule that a Crash or Straggler spec may not target a
// Scalable worker. A scaled-away worker is parked — it consumes no crash
// or slow ticks — so a spec whose target the ladder can scale away for
// the whole service window might deterministically never fire; campaigns
// must pin crashes and stragglers to Always roles.
func (p *Plan) ValidateService(r ServiceRoster) error {
	full := append(append([]string(nil), r.Always...), r.Scalable...)
	if err := p.Validate(full); err != nil {
		return err
	}
	for si := range p.Specs {
		s := &p.Specs[si]
		if s.Kind != Crash && s.Kind != Straggler {
			continue
		}
		if rosterHas(r.Scalable, s.Thread) && !rosterHas(r.Always, s.Thread) {
			return fmt.Errorf("plan %s spec %d: %v targets scalable worker %q, which the degradation ladder can scale away for the whole service window (always-on: %s; scalable: %s)",
				p.Name, si, s.Kind, s.Thread, strings.Join(r.Always, ", "), strings.Join(r.Scalable, ", "))
		}
	}
	return nil
}

func rosterHas(roster []string, name string) bool {
	for _, r := range roster {
		if r == name {
			return true
		}
	}
	return false
}

// crashWindowsOverlap reports whether two deterministic crash windows share
// a tick. Probabilistic specs (After <= 0) can hit any tick, so they
// overlap everything.
func crashWindowsOverlap(a, b *Spec) bool {
	if a.After <= 0 || b.After <= 0 {
		return true
	}
	end := func(s *Spec) int {
		n := s.Count
		if n <= 0 {
			n = 1
		}
		return s.After + n // exclusive
	}
	return a.After < end(b) && b.After < end(a)
}

// Error is an injected builtin failure. The resilience layer inspects
// IsTransient to decide between retry and orderly shutdown.
type Error struct {
	Builtin string
	Call    int // event index at which the fault fired
	Perm    bool
}

// Error renders the diagnosed failure.
func (e *Error) Error() string {
	kind := "transient"
	if e.Perm {
		kind = "permanent"
	}
	return fmt.Sprintf("injected %s fault in builtin %s (call %d)", kind, e.Builtin, e.Call)
}

// IsTransient reports whether retrying the call can succeed.
func (e *Error) IsTransient() bool { return !e.Perm }

// Injector instantiates one plan over a substrate. Create a fresh Injector
// per execution attempt: its event counters define the plan's timeline.
// All methods are called from simulated threads, which the discrete-event
// scheduler serializes, so no internal locking is needed.
//
// The specs that can fire on a builtin, a worker role or a queue, and
// the hashes of their roll-stream names, are worked out once per
// builtin (in Wrap), role and queue, so a call, tick or push writes no
// map and builds no string unless a fault fires.
type Injector struct {
	plan Plan

	calls   map[string]*int       // per-builtin call counters, shared by every Wrap
	total   int                   // global builtin call counter
	queues  map[string]*queueFeed // per-queue push counters and stall specs
	commits int                   // TM commit counter
	tm      []specStream          // TMStorm specs
	roles   map[string]*roleFeed  // per-role crash and straggler ticks and specs

	latched []bool // Permanent Prob specs that have fired

	injected int
	events   []string
}

// specStream is one spec that can fire on an event stream, with the hash
// of the stream's name (see streamHash) worked out once.
type specStream struct {
	si int
	h  uint64
}

// queueFeed is one queue's push counter and the QueueStall specs its
// name matches.
type queueFeed struct {
	pushes int
	specs  []specStream
}

// roleFeed is one worker role's crash-tick and straggler-tick counters
// and the Crash and Straggler specs that target it.
type roleFeed struct {
	ticks, slows int
	crash, slow  []specStream
}

// maxTrace bounds the retained injection trace.
const maxTrace = 64

// NewInjector prepares a fresh instantiation of the plan.
func NewInjector(plan Plan) *Injector {
	inj := &Injector{
		plan:    plan,
		calls:   map[string]*int{},
		queues:  map[string]*queueFeed{},
		roles:   map[string]*roleFeed{},
		latched: make([]bool, len(plan.Specs)),
	}
	for si := range plan.Specs {
		if plan.Specs[si].Kind == TMStorm {
			inj.tm = append(inj.tm, inj.stream(si, "tm"))
		}
	}
	return inj
}

// stream pairs spec si with the hash of the stream name it rolls on.
func (inj *Injector) stream(si int, name string) specStream {
	return specStream{si: si, h: inj.streamHash(name)}
}

// role returns the named worker role's feed, building it on first use.
func (inj *Injector) role(thread string) *roleFeed {
	r := inj.roles[thread]
	if r == nil {
		r = &roleFeed{}
		for si := range inj.plan.Specs {
			s := &inj.plan.Specs[si]
			switch {
			case s.Kind == Crash && s.Thread == thread:
				r.crash = append(r.crash, inj.stream(si, "crash:"+thread))
			case s.Kind == Straggler && s.Thread == thread:
				r.slow = append(r.slow, inj.stream(si, "slow:"+thread))
			}
		}
		inj.roles[thread] = r
	}
	return r
}

// Plan returns the injector's plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// Injected reports how many fault events have fired so far.
func (inj *Injector) Injected() int { return inj.injected }

// Trace returns the (bounded) log of fired fault events, in order.
func (inj *Injector) Trace() []string { return inj.events }

// note records one fired fault event.
func (inj *Injector) note(format string, args ...any) {
	inj.injected++
	if len(inj.events) < maxTrace {
		inj.events = append(inj.events, fmt.Sprintf(format, args...))
	}
}

// streamHash folds a stream name into the plan seed: the first half of
// roll, which depends on the stream alone.
func (inj *Injector) streamHash(stream string) uint64 {
	h := inj.plan.Seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// roll returns a deterministic uniform [0,1) draw for one (spec, stream,
// index) triple; h is the stream's streamHash.
func roll(spec int, h uint64, idx int) float64 {
	h ^= uint64(spec+1) * 0xff51afd7ed558ccd
	h ^= uint64(idx) * 0xc4ceb9fe1a85ec53
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// fires decides whether spec ss.si fires on event idx of its stream.
func (inj *Injector) fires(ss specStream, idx int) bool {
	s := &inj.plan.Specs[ss.si]
	if s.After > 0 {
		return s.window(idx)
	}
	if s.Prob <= 0 {
		return false
	}
	if s.Kind == Permanent {
		if inj.latched[ss.si] {
			return true
		}
		if roll(ss.si, ss.h, idx) < s.Prob {
			inj.latched[ss.si] = true
			return true
		}
		return false
	}
	return roll(ss.si, ss.h, idx) < s.Prob
}

// Wrap interposes the plan on a builtin table. The returned table is a
// drop-in replacement: unaffected calls forward to the original builtin
// unchanged; failed calls return an *Error without running the builtin (so
// an injected failure never leaves partial substrate state behind).
func (inj *Injector) Wrap(fns map[string]interp.BuiltinFn) map[string]interp.BuiltinFn {
	out := make(map[string]interp.BuiltinFn, len(fns))
	for name, base := range fns {
		calls := inj.calls[name]
		if calls == nil {
			calls = new(int)
			inj.calls[name] = calls
		}
		var specs []specStream
		for si := range inj.plan.Specs {
			s := &inj.plan.Specs[si]
			if !s.matchesBuiltin(name) {
				continue
			}
			switch s.Kind {
			case Transient, Permanent:
				specs = append(specs, inj.stream(si, "call:"+s.Builtin))
			case Latency:
				specs = append(specs, inj.stream(si, "lat:"+s.Builtin))
			}
		}
		out[name] = func(args []value.Value) (value.Value, int64, error) {
			inj.total++
			*calls++
			var extra int64
			for _, ss := range specs {
				s := &inj.plan.Specs[ss.si]
				idx := *calls
				if s.wildcard() {
					idx = inj.total
				}
				if !inj.fires(ss, idx) {
					continue
				}
				if s.Kind == Latency {
					inj.note("latency +%d on %s call %d", s.Delay, name, idx)
					extra += s.Delay
					continue
				}
				inj.note("%v %s call %d", s.Kind, name, idx)
				return value.Value{}, 0, &Error{Builtin: name, Call: idx, Perm: s.Kind == Permanent}
			}
			v, cost, err := base(args)
			return v, cost + extra, err
		}
	}
	return out
}

// QueueDelay reports the extra virtual latency to charge for the next push
// on the named queue (0 when no QueueStall spec fires). Call exactly once
// per push: the call advances the queue's event counter.
func (inj *Injector) QueueDelay(queue string) int64 {
	q := inj.queues[queue]
	if q == nil {
		q = &queueFeed{}
		for si := range inj.plan.Specs {
			if s := &inj.plan.Specs[si]; s.Kind == QueueStall && strings.HasPrefix(queue, s.Queue) {
				q.specs = append(q.specs, inj.stream(si, "queue:"+queue))
			}
		}
		inj.queues[queue] = q
	}
	q.pushes++
	idx := q.pushes
	var d int64
	for _, ss := range q.specs {
		if inj.fires(ss, idx) {
			s := &inj.plan.Specs[ss.si]
			inj.note("queue-stall +%d on %s push %d", s.Delay, queue, idx)
			d += s.Delay
		}
	}
	return d
}

// CrashNow reports whether the named worker role crashes at its next crash
// tick, and whether the crash is permanent (no restart). Call exactly once
// per tick — one iteration pass for DOALL workers, one token for pipeline
// stages — the call advances the role's tick counter. The counter is keyed
// by role, not by simulated-thread incarnation, so it runs continuously
// across supervisor restarts: a Crash spec with Count > 1 kills the
// replacement too (repeated crashes), and the replayed window after a
// restore consumes fresh ticks of its own.
func (inj *Injector) CrashNow(thread string) (die, permanent bool) {
	r := inj.role(thread)
	r.ticks++
	idx := r.ticks
	for _, ss := range r.crash {
		if inj.fires(ss, idx) {
			s := &inj.plan.Specs[ss.si]
			kind := "crash"
			if s.Permanent {
				kind = "permanent crash"
			}
			inj.note("%s of %s at tick %d", kind, thread, idx)
			die = true
			permanent = permanent || s.Permanent
		}
	}
	return die, permanent
}

// CrashTick reports how many crash ticks the named role has consumed so
// far (diagnostics only; does not advance the counter).
func (inj *Injector) CrashTick(thread string) int {
	if r := inj.roles[thread]; r != nil {
		return r.ticks
	}
	return 0
}

// SlowNow reports the slowdown factor (≥ 1; 1 = full speed) the named
// worker role suffers on its next pass. Call exactly once per pass: the
// call advances the role's straggler-tick counter ("slow:"+thread
// stream), which — like crash ticks — is keyed by role, not by
// simulated-thread incarnation, so it runs continuously across restarts.
// When several Straggler specs fire on the same tick the largest Factor
// wins (a throttled core is as slow as its worst cause).
func (inj *Injector) SlowNow(thread string) float64 {
	r := inj.role(thread)
	r.slows++
	idx := r.slows
	f := 1.0
	for _, ss := range r.slow {
		if s := &inj.plan.Specs[ss.si]; inj.fires(ss, idx) && s.Factor > f {
			f = s.Factor
		}
	}
	if f > 1 {
		inj.note("straggler x%g on %s pass %d", f, thread, idx)
	}
	return f
}

// SlowTick reports how many straggler ticks the named role has consumed
// so far (diagnostics only; does not advance the counter).
func (inj *Injector) SlowTick(thread string) int {
	if r := inj.roles[thread]; r != nil {
		return r.slows
	}
	return 0
}

// ExtraAborts reports the synthetic additional conflict aborts to charge
// for the next TM commit. Call exactly once per commit: the call advances
// the commit event counter.
func (inj *Injector) ExtraAborts() int {
	inj.commits++
	n := 0
	for _, ss := range inj.tm {
		if inj.fires(ss, inj.commits) {
			s := &inj.plan.Specs[ss.si]
			inj.note("tm-storm +%d aborts on commit %d", s.Aborts, inj.commits)
			n += s.Aborts
		}
	}
	return n
}
