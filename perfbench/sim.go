package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/builtins"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/sanitize"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
	"repro/internal/workloads"
)

// prepared is one workload variant compiled, profiled and analyzed, with
// its schedules and sequential reference: everything a simulation op needs,
// built in set-up.
type prepared struct {
	wl        *workloads.Workload
	variant   string
	c         *pipeline.Compiled
	la        *pipeline.LoopAnalysis
	hot       int
	profTotal int64
	scheds    map[int][]*transform.Schedule // by simulated thread count
	seqCost   int64
	seqWorld  *builtins.World
	effectful map[string]bool
}

func prepare(wl *workloads.Workload, variant string, threadCounts []int) (*prepared, error) {
	tables := builtins.NewWorld()
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile(fmt.Sprintf("%s[%s]", wl.Name, variant), wl.Variant(variant)),
		Sigs:    tables.Sigs(),
		Effects: tables.EffectTable(),
	})
	if err != nil {
		return nil, fmt.Errorf("compile %s/%s: %w", wl.Name, variant, err)
	}
	p := &prepared{wl: wl, variant: variant, c: c, scheds: map[int][]*transform.Schedule{}, effectful: bench.Effectful(tables)}
	prof, err := profile.Run(c, p.world(off).Fns())
	if err != nil {
		return nil, fmt.Errorf("profile %s/%s: %w", wl.Name, variant, err)
	}
	p.hot, p.profTotal = prof.Hottest(), prof.Total
	if p.hot < 0 {
		return nil, fmt.Errorf("%s/%s has no loop in main", wl.Name, variant)
	}
	if p.la, err = c.AnalyzeLoop("main", p.hot); err != nil {
		return nil, fmt.Errorf("analyze %s/%s: %w", wl.Name, variant, err)
	}
	if p.la.Units == nil {
		return nil, fmt.Errorf("%s/%s: hot loop has no unit record", wl.Name, variant)
	}
	for _, n := range threadCounts {
		p.scheds[n] = transform.Schedules(p.la, prof.Weights, n)
	}
	p.seqWorld = p.world(off)
	r, err := exec.RunSequential(p.config(p.seqWorld.Fns()))
	if err != nil {
		return nil, fmt.Errorf("sequential %s/%s: %w", wl.Name, variant, err)
	}
	p.seqCost = r.VirtualTime
	return p, nil
}

// prepareAll prepares every annotated variant of every workload.
func prepareAll(threadCounts []int) ([]*prepared, error) {
	var out []*prepared
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			p, err := prepare(wl, v.Name, threadCounts)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

func (p *prepared) name() string { return p.wl.Name + "/" + p.variant }

func (p *prepared) schedule(kind transform.Kind, threads int) *transform.Schedule {
	for _, s := range p.scheds[threads] {
		if s.Kind == kind {
			return s
		}
	}
	return nil
}

func (p *prepared) config(fns map[string]interp.BuiltinFn) exec.Config {
	return exec.Config{Prog: p.c.Low.Prog, Builtins: fns, Model: p.c.Model, Cost: des.DefaultCostModel()}
}

// resilientConfig is config with the fault-recovery policies armed, as the
// fault and steal campaigns run them.
func (p *prepared) resilientConfig(fns map[string]interp.BuiltinFn, plan faults.Plan) exec.Config {
	inj := faults.NewInjector(plan)
	cfg := p.config(inj.Wrap(fns))
	cfg.Recovery = exec.DefaultRecovery()
	cfg.Watchdog = des.Watchdog{MaxEvents: 5_000_000}
	cfg.Effectful = p.effectful
	cfg.PushDelay = inj.QueueDelay
	cfg.ExtraAborts = inj.ExtraAborts
	if plan.HasCrash() {
		cfg.CrashCheck = inj.CrashNow
	}
	if plan.HasStraggler() {
		cfg.Straggle = inj.SlowNow
	}
	return cfg
}

// world builds the fresh, populated substrate every op starts from.
func (p *prepared) world(tr *tracer) *builtins.World {
	sp := tr.begin("workloads.setup")
	w := builtins.NewWorld()
	p.wl.Setup(w)
	tr.end(sp)
	return w
}

// validate checks an op's final world against the sequential reference.
func (p *prepared) validate(tr *tracer, w *builtins.World, ordered bool) error {
	sp := tr.begin("workloads.validate")
	err := p.wl.Validate(p.seqWorld, w, ordered)
	tr.end(sp)
	return err
}

// ordered reports whether a schedule keeps sequential output order.
func ordered(kind transform.Kind) bool { return kind == transform.Sequential || kind == transform.DSWP }

// execLayer names the exec span of a schedule kind.
func execLayer(kind transform.Kind) string {
	switch kind {
	case transform.DOALL:
		return "exec.doall"
	case transform.DSWP:
		return "exec.dswp"
	case transform.PSDSWP:
		return "exec.psdswp"
	}
	return "exec.seq"
}

var parallelKinds = []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP}

func cellKey(p *prepared, kind transform.Kind, mode exec.SyncMode, threads int) string {
	return fmt.Sprintf("%s/%v/%v/%d", p.name(), kind, mode, threads)
}

// seqOp is one sequential run of the program.
func seqOp(p *prepared) *op {
	return &op{key: "seq/" + p.name(), cost: p.seqCost, run: func(tr *tracer) (int64, error) {
		w := p.world(tr)
		sp := tr.beginCost("exec.seq", p.seqCost)
		r, err := exec.RunSequential(p.config(tr.wrap(w.Fns())))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		return r.VirtualTime, p.validate(tr, w, true)
	}}
}

// profileOp is one profiling (training) run, checked against set-up's.
func profileOp(p *prepared) *op {
	return &op{key: "profile/" + p.name(), cost: p.seqCost, run: func(tr *tracer) (int64, error) {
		w := p.world(tr)
		sp := tr.begin("profile")
		prof, err := profile.Run(p.c, tr.wrap(w.Fns()))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if prof.Hottest() != p.hot || prof.Total != p.profTotal {
			return 0, fmt.Errorf("hottest loop b%d of cost %d, set-up found b%d of %d", prof.Hottest(), prof.Total, p.hot, p.profTotal)
		}
		return prof.Total, p.validate(tr, w, true)
	}}
}

// cellOp is one plain parallel cell.
func cellOp(p *prepared, kind transform.Kind, mode exec.SyncMode, threads int) *op {
	sched := p.schedule(kind, threads)
	if sched == nil {
		return nil
	}
	return &op{key: cellKey(p, kind, mode, threads), cost: p.seqCost, speedup: true, run: func(tr *tracer) (int64, error) {
		w := p.world(tr)
		sp := tr.beginCost(execLayer(kind), p.seqCost)
		r, err := exec.Run(p.config(tr.wrap(w.Fns())), p.la, sched, mode, threads)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		tr.countExec(r)
		return r.VirtualTime, p.validate(tr, w, ordered(kind))
	}}
}

// stealOp is one DOALL cell under a straggler plan with work stealing on.
func stealOp(p *prepared, plan faults.Plan, mode exec.SyncMode, threads int) *op {
	sched := p.schedule(transform.DOALL, threads)
	key := cellKey(p, transform.DOALL, mode, threads) + "/steal/" + plan.Name
	return &op{key: key, cost: p.seqCost, run: func(tr *tracer) (int64, error) {
		w := p.world(tr)
		cfg := p.resilientConfig(tr.wrap(w.Fns()), plan)
		cfg.Tune = transform.Tuning{Steal: true}
		sp := tr.beginCost("exec.doall", p.seqCost)
		r, err := exec.Run(cfg, p.la, sched, mode, threads)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		tr.countExec(r)
		return r.VirtualTime, p.validate(tr, w, false)
	}}
}

// resilientOp is one cell run through the resilient executor under a
// recoverable fault plan: every attempt gets a fresh world, and the
// accepted attempt's output must match the sequential reference.
func resilientOp(p *prepared, kind transform.Kind, plan faults.Plan, mode exec.SyncMode, threads int) *op {
	sched := p.schedule(kind, threads)
	key := cellKey(p, kind, mode, threads) + "/plan/" + plan.Name
	return &op{key: key, cost: p.seqCost, run: func(tr *tracer) (int64, error) {
		var last *builtins.World
		opts := exec.ResilientOptions{
			LA: p.la, Sched: sched, Mode: mode, Threads: threads,
			Fresh: func() exec.Config {
				last = p.world(tr)
				return p.resilientConfig(tr.wrap(last.Fns()), plan)
			},
			Accept: func(parallel bool) error {
				return p.validate(tr, last, !parallel || ordered(kind))
			},
		}
		sp := tr.beginCost(execLayer(kind), p.seqCost)
		r, err := exec.RunResilient(opts)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		tr.countExec(r)
		return r.VirtualTime, nil
	}}
}

// sanitizeOp is one plain cell under the sanitizer's detect pass, followed
// by the capture rerun and both-order replay of any oracle candidates. The
// detect run must keep the plain run's virtual time (plainVT) and report no
// race; every replayed pair must not be a violation.
func sanitizeOp(p *prepared, kind transform.Kind, mode exec.SyncMode, threads int, plainVT int64) *op {
	sched := p.schedule(kind, threads)
	return &op{key: cellKey(p, kind, mode, threads) + "/sanitize", cost: p.seqCost, speedup: true, run: func(tr *tracer) (int64, error) {
		w := p.world(tr)
		det := sanitize.New(sanitize.Detect, p.c.Low.Prog, w)
		cfg := p.config(tr.wrap(w.Fns()))
		cfg.Sanitize = det
		sp := tr.beginCost(execLayer(kind), p.seqCost)
		r, err := exec.Run(cfg, p.la, sched, mode, threads)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if err := p.validate(tr, w, ordered(kind)); err != nil {
			return 0, err
		}
		if r.VirtualTime != plainVT {
			return 0, fmt.Errorf("sanitized vtime %d, plain %d", r.VirtualTime, plainVT)
		}
		if races := det.Races(); len(races) > 0 {
			return 0, fmt.Errorf("%d race(s), first on %s", len(races), races[0].Cell)
		}
		ss := tr.begin("sanitize")
		defer tr.end(ss)
		cands := det.Candidates()
		tr.count("sanitize.candidates", int64(len(cands)))
		if len(cands) == 0 {
			return r.VirtualTime, nil
		}
		cw := p.world(tr)
		capMon := sanitize.NewCapture(p.c.Low.Prog, cw, cands)
		cfg = p.config(tr.wrap(cw.Fns()))
		cfg.Sanitize = capMon
		cs := tr.beginCost(execLayer(kind), p.seqCost)
		cr, err := exec.Run(cfg, p.la, sched, mode, threads)
		tr.end(cs)
		if err != nil {
			return 0, err
		}
		if cr.VirtualTime != plainVT {
			return 0, fmt.Errorf("capture vtime %d, plain %d", cr.VirtualTime, plainVT)
		}
		var bad []string
		for _, v := range capMon.ReplayCandidates(cands, func(sanitize.Candidate) string { return "" }) {
			tr.count("sanitize.pairs", 1)
			switch v.Verdict {
			case sanitize.VerdictVerified:
				tr.count("sanitize.verified", 1)
			case sanitize.VerdictViolation:
				bad = append(bad, fmt.Sprintf("%s/%s: %s", v.FnA, v.FnB, v.Diff))
			}
		}
		if len(bad) > 0 {
			return 0, fmt.Errorf("commute violation: %s", strings.Join(bad, "; "))
		}
		return r.VirtualTime, nil
	}}
}

// libWorkloads are the workloads whose members are thread-safe library
// calls; their Lib cells run with no commset locks.
var libWorkloads = map[string]bool{"md5sum": true, "em3d": true, "potrace": true}

// simCompute: profiling runs, sequential runs and lock-free Lib cells.
func simCompute(seed int64) (*suite, error) {
	ps, err := prepareAll([]int{8})
	if err != nil {
		return nil, err
	}
	s := &suite{}
	for _, p := range ps {
		s.ops = append(s.ops, profileOp(p), seqOp(p))
		if !libWorkloads[p.wl.Name] {
			continue
		}
		for _, kind := range parallelKinds {
			s.add(cellOp(p, kind, exec.SyncLib, 8))
		}
	}
	return s, nil
}

// simSync: every lock-synchronized parallel cell at 8 and 32 threads.
func simSync(seed int64) (*suite, error) {
	ps, err := prepareAll([]int{8, 32})
	if err != nil {
		return nil, err
	}
	s := &suite{calib: seqOps(ps)}
	for _, p := range ps {
		modes := []exec.SyncMode{exec.SyncMutex, exec.SyncSpin}
		if p.wl.TM {
			modes = append(modes, exec.SyncTM)
		}
		for _, threads := range []int{8, 32} {
			for _, kind := range parallelKinds {
				for _, mode := range modes {
					s.add(cellOp(p, kind, mode, threads))
				}
			}
		}
	}
	return s, nil
}

// simResilient: cells with one optional subsystem armed each — straggler
// plans with work stealing, crash plans with restart and re-partition,
// transient builtin faults with retries, and the sanitizer.
func simResilient(seed int64) (*suite, error) {
	const threads = 8
	planSeed := uint64(seed)
	var ps []*prepared
	for _, wl := range workloads.All() {
		p, err := prepare(wl, wl.Variants[0].Name, []int{threads})
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	var transient []faults.Plan
	for _, plan := range bench.DefaultPlans(planSeed) {
		if len(plan.Specs) > 0 && plan.Specs[0].Kind == faults.Transient {
			transient = append(transient, plan)
		}
	}
	s := &suite{calib: seqOps(ps)}
	for _, p := range ps {
		mode := p.wl.Syncs()[0]
		if doall := p.schedule(transform.DOALL, threads); doall != nil {
			if roster := exec.CrashRoster(doall, threads); len(roster) >= 3 {
				for _, plan := range bench.StragglerPlans(planSeed, roster[1], roster[2]) {
					if err := plan.Validate(roster); err != nil {
						return nil, err
					}
					s.add(stealOp(p, plan, mode, threads))
				}
			}
		}
		for _, kind := range parallelKinds {
			sched := p.schedule(kind, threads)
			if sched == nil {
				continue
			}
			roster := exec.CrashRoster(sched, threads)
			if victim := crashVictim(roster); victim != "" {
				for _, plan := range bench.CrashPlans(planSeed, victim) {
					if err := plan.Validate(roster); err != nil {
						return nil, err
					}
					s.add(resilientOp(p, kind, plan, mode, threads))
				}
			}
			for _, plan := range transient {
				s.add(resilientOp(p, kind, plan, mode, threads))
			}
			w := p.world(off)
			r, err := exec.Run(p.config(w.Fns()), p.la, sched, mode, threads)
			if err != nil {
				return nil, fmt.Errorf("plain %s: %w", cellKey(p, kind, mode, threads), err)
			}
			s.add(sanitizeOp(p, kind, mode, threads, r.VirtualTime))
		}
	}
	return s, nil
}

// crashVictim picks the crash target from a schedule's roster the way the
// fault campaign does: the second DOALL worker, or the first pipeline
// stage worker.
func crashVictim(roster []string) string {
	if len(roster) == 0 {
		return ""
	}
	if len(roster) > 1 && strings.HasPrefix(roster[0], "doall.") {
		return roster[1]
	}
	return roster[0]
}

func seqOps(ps []*prepared) []*op {
	out := make([]*op, len(ps))
	for i, p := range ps {
		out[i] = seqOp(p)
	}
	return out
}
