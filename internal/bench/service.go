package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/builtins"
	"repro/internal/faults"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// ServiceCell is one (service, schedule, sync, trace, scenario) campaign
// cell of the machine-readable report.
type ServiceCell struct {
	Service  string `json:"service"`
	Kind     string `json:"kind"`
	Sync     string `json:"sync"`
	Trace    string `json:"trace"`
	Scenario string `json:"scenario"`
	// Util is the offered load as a fraction of the schedule's measured
	// closed-loop capacity.
	Util    float64 `json:"util,omitempty"`
	Outcome string  `json:"outcome"`
	Detail  string  `json:"detail,omitempty"`
	// Deterministic is set on scenarios that are executed twice under the
	// same seed and compared bit-for-bit (overload, crash and heavy-tail
	// cells).
	Deterministic bool                `json:"deterministic,omitempty"`
	Result        *exec.ServiceResult `json:"result,omitempty"`
}

// RatePoint is one sustainable-throughput ladder measurement.
type RatePoint struct {
	Service          string  `json:"service"`
	Util             float64 `json:"util"`
	ThroughputPerMvt float64 `json:"throughput_per_mvt"`
	Attainment       float64 `json:"slo_attainment"`
	ShedRate         float64 `json:"shed_rate"`
	Abandoned        int     `json:"abandoned"`
	Sustainable      bool    `json:"sustainable"`
}

// ServiceSummary aggregates the campaign outcomes.
type ServiceSummary struct {
	Runs       int `json:"runs"`
	OK         int `json:"ok"`
	Violations int `json:"violations"`

	Generated int `json:"generated"`
	Completed int `json:"completed"`
	Shed      int `json:"shed"`
	Abandoned int `json:"abandoned"`
	Rejected  int `json:"rejected"`
	Failed    int `json:"failed"`

	Restarts int `json:"restarts"`
	FellBack int `json:"fell_back"`
	// MaxLevel is the deepest degradation-ladder level any cell reached
	// (including aborted parallel attempts).
	MaxLevel int `json:"max_level"`
}

func (s *ServiceSummary) add(res *exec.ServiceResult) {
	if res == nil {
		return
	}
	s.Generated += res.Generated
	s.Completed += res.Completed
	s.Shed += res.ShedBucket + res.ShedQueue
	s.Abandoned += res.Abandoned
	s.Rejected += res.Rejected
	s.Failed += res.Failed
	s.Restarts += res.Restarts
	if res.FellBack {
		s.FellBack++
	}
	if lvl := deepestLevel(res); lvl > s.MaxLevel {
		s.MaxLevel = lvl
	}
}

// deepestLevel reads the ladder high-water mark of a result, including the
// evidence carried over from an aborted parallel attempt.
func deepestLevel(res *exec.ServiceResult) int {
	lvl := res.MaxLevel
	if res.Aborted != nil && res.Aborted.MaxLevel > lvl {
		lvl = res.Aborted.MaxLevel
	}
	return lvl
}

// ServiceReport is the machine-readable campaign result behind
// BENCH_service.json. CI uploads it as an artifact so latency/robustness
// regressions show up as a diff, not a rerun.
type ServiceReport struct {
	Threads    int            `json:"threads"`
	Seed       uint64         `json:"seed"`
	Smoke      bool           `json:"smoke"`
	Summary    ServiceSummary `json:"summary"`
	Cells      []ServiceCell  `json:"cells"`
	RateLadder []RatePoint    `json:"rate_ladder,omitempty"`
}

// svcCompiled is one open service, compiled and calibrated: the schedules of
// its workload variant plus a sequential reference run over the
// service-sized world (the validation oracle and the per-request cost
// estimate every trace is paced from).
type svcCompiled struct {
	svc      *workloads.Service
	cp       *Compiled
	n        int
	setup    func(w *builtins.World)
	seqWorld *builtins.World
	seqCost  int64
	reqCost  int64
}

func compileService(svc *workloads.Service, threads, n int) (*svcCompiled, error) {
	return compileServiceWith(svc, threads, n, func(w *builtins.World) { svc.Setup(w, n) })
}

// compileServiceHeavy builds the heavy-tailed variant of a service: the same
// program over a world whose per-request service times follow the seeded
// bounded-Pareto distribution, with its own sequential reference (the
// validation oracle must digest the same request sizes).
func compileServiceHeavy(svc *workloads.Service, threads, n int, seed uint64) (*svcCompiled, error) {
	return compileServiceWith(svc, threads, n, func(w *builtins.World) { svc.HeavySetup(w, n, seed) })
}

func compileServiceWith(svc *workloads.Service, threads, n int, setup func(w *builtins.World)) (*svcCompiled, error) {
	cp, err := Compile(svc.Workload, svc.Variant, threads)
	if err != nil {
		return nil, err
	}
	w := builtins.NewWorld()
	setup(w)
	r, err := exec.RunSequential(exec.Config{
		Prog: cp.C.Low.Prog, Builtins: w.Fns(), Model: cp.C.Model, Cost: des.DefaultCostModel(),
	})
	if err != nil {
		return nil, fmt.Errorf("bench: sequential %s reference: %w", svc.Name, err)
	}
	sc := &svcCompiled{svc: svc, cp: cp, n: n, setup: setup, seqWorld: w, seqCost: r.VirtualTime}
	sc.reqCost = r.VirtualTime / int64(n)
	if sc.reqCost < 1 {
		sc.reqCost = 1
	}
	return sc, nil
}

// fresh builds a service-sized substrate world.
func (sc *svcCompiled) fresh() *builtins.World {
	w := builtins.NewWorld()
	sc.setup(w)
	return w
}

// capacity measures the schedule's closed-loop speedup over the
// service-sized world — the denominator every utilization target is paced
// against.
func (sc *svcCompiled) capacity(sched *transform.Schedule, mode exec.SyncMode, threads int) (float64, error) {
	w := sc.fresh()
	res, err := exec.Run(resilientConfig(sc.cp.C, w, nil), sc.cp.LA, sched, mode, threads)
	if err != nil {
		return 0, fmt.Errorf("bench: capacity %s %s/%v: %w", sc.svc.Name, sched.String(), mode, err)
	}
	sp := float64(sc.seqCost) / float64(res.VirtualTime)
	if sp < 1 {
		sp = 1
	}
	return sp, nil
}

// gap converts a utilization target into the mean interarrival gap: offered
// load util×capacity means one request every reqCost/(capacity×util) units.
func (sc *svcCompiled) gap(util, capacity float64) float64 {
	return float64(sc.reqCost) / (capacity * util)
}

// arrivals builds the seeded arrival process for a trace name.
func (sc *svcCompiled) arrivals(trace string, seed uint64, gap float64) des.Arrivals {
	switch trace {
	case "bursty":
		// Sojourns of ~20 mean gaps: bursts long enough to fill the ingress
		// queue, lulls long enough to drain it.
		return des.NewBursty(seed, gap, gap*20)
	case "diurnal":
		return des.NewDiurnal(seed, gap, sc.n)
	default:
		return des.NewPoisson(seed, gap)
	}
}

// svcConfig returns a ServiceConfig factory: every invocation builds a fresh
// arrival-process instance (same seed) and a private ScalerConfig copy, so
// repeated runs replay the identical trace.
func (sc *svcCompiled) svcConfig(trace string, seed uint64, gap float64, scaler *exec.ScalerConfig, ingress int) func() exec.ServiceConfig {
	return func() exec.ServiceConfig {
		var sccfg *exec.ScalerConfig
		if scaler != nil {
			c := *scaler
			sccfg = &c
		}
		return exec.ServiceConfig{
			Arrivals:   sc.arrivals(trace, seed, gap),
			Requests:   sc.n,
			IngressCap: ingress,
			Deadline:   int64(sc.svc.DeadlineFactor * float64(sc.reqCost)),
			SLO:        int64(sc.svc.SLOFactor * float64(sc.reqCost)),
			Scaler:     sccfg,
			EstReqCost: sc.reqCost,
		}
	}
}

// runChecked executes one service run on a fresh world under tune (the
// heavy-tail cells toggle Tune.Steal) and validates it: the full trace is
// generated (zero silent drops) and the externalized effects are
// consistent with the sequential reference.
func (sc *svcCompiled) runChecked(sched *transform.Schedule, mode exec.SyncMode, threads int, svcCfg exec.ServiceConfig, plan *faults.Plan, tune transform.Tuning) (*exec.ServiceResult, error) {
	w := sc.fresh()
	cfg := resilientConfig(sc.cp.C, w, plan)
	cfg.Tune = tune
	res, err := exec.RunService(cfg, svcCfg, sc.cp.LA, sched, mode, threads)
	if err != nil {
		return res, err
	}
	if res.Generated != sc.n {
		return res, fmt.Errorf("trace truncated: %d requests generated, want %d", res.Generated, sc.n)
	}
	return res, sc.svc.Validate(sc.seqWorld, w, res.Completed)
}

// runResilient executes one service scenario through the fallback machinery:
// parallel attempt, then the Accept-verified sequential service on a
// non-transient diagnosis.
func (sc *svcCompiled) runResilient(sched *transform.Schedule, mode exec.SyncMode, threads int, mkSvc func() exec.ServiceConfig, mkPlan func() *faults.Plan) (*exec.ServiceResult, error) {
	var lastW *builtins.World
	fresh := func() (exec.Config, exec.ServiceConfig) {
		w := sc.fresh()
		lastW = w
		var plan *faults.Plan
		if mkPlan != nil {
			plan = mkPlan()
		}
		return resilientConfig(sc.cp.C, w, plan), mkSvc()
	}
	accept := func(res *exec.ServiceResult) error {
		return sc.svc.Validate(sc.seqWorld, lastW, res.Completed)
	}
	return exec.RunServiceResilient(exec.ServiceResilientOptions{
		LA: sc.cp.LA, Sched: sched, Mode: mode, Threads: threads,
		Fresh: fresh, Accept: accept,
	})
}

func resultDetail(res *exec.ServiceResult) string {
	if res == nil {
		return ""
	}
	return fmt.Sprintf("completed=%d/%d p99=%d slo=%.2f shed=%d abandoned=%d level=%d",
		res.Completed, res.Generated, res.P99, res.SLOAttainment,
		res.ShedBucket+res.ShedQueue, res.Abandoned, deepestLevel(res))
}

// traceSeeds keeps each arrival family on its own deterministic stream.
var traceSeeds = map[string]uint64{"poisson": 11, "bursty": 23, "diurnal": 37}

// steadyUtil is the offered load of the steady cells; ladderUtils the
// sustainable-throughput sweep (smoke keeps two points).
const steadyUtil = 0.6

var ladderUtils = []float64{0.3, 0.6, 0.9, 1.2}
var ladderUtilsSmoke = []float64{0.5, 1.1}

// ServiceCampaign sweeps the open services × {DOALL, DSWP, PS-DSWP} × sync
// modes × arrival traces through the service runtime, plus per-service
// overload, crash, and sustainable-rate scenarios. Invariants enforced on
// every cell: the full trace is generated and accounted (zero silent
// drops — RunService checks the balance identity internally, the campaign
// re-checks the generated count), and the externalized effects are a
// subset-consistent prefix of the sequential reference. Overload, crash
// and heavy-tail cells run twice under the same seed and must reproduce
// bit-for-bit; at least one cell must walk the degradation ladder to
// level ≥ 2. Smoke restricts the sweep to the primary sync mode and the
// CI-sized traces.
func ServiceCampaign(out io.Writer, opts CampaignOptions) (*ServiceReport, error) {
	rep := &ServiceReport{Threads: opts.Threads, Seed: opts.Seed, Smoke: opts.Smoke}
	sum := &rep.Summary
	var violations []string
	covered := map[string]map[string]bool{}

	record := func(cell ServiceCell, res *exec.ServiceResult, err error) {
		sum.Runs++
		cell.Result = res
		if err != nil {
			cell.Outcome = "violation"
			cell.Detail = err.Error()
		}
		if cell.Outcome == "violation" {
			sum.Violations++
			violations = append(violations, fmt.Sprintf("%s %s/%s %s %s: %s",
				cell.Service, cell.Kind, cell.Sync, cell.Trace, cell.Scenario, cell.Detail))
		} else {
			sum.OK++
			sum.add(res)
		}
		if covered[cell.Service] == nil {
			covered[cell.Service] = map[string]bool{}
		}
		covered[cell.Service][cell.Kind] = true
		rep.Cells = append(rep.Cells, cell)
		fmt.Fprintf(out, "  %-14s %-8s %-6s %-8s %-16s %-10s %s\n",
			cell.Service, cell.Kind, cell.Sync, cell.Trace, cell.Scenario, cell.Outcome, cell.Detail)
	}

	fmt.Fprintf(out, "Service campaign: %d services, seed %d, %d threads\n",
		len(workloads.Services()), opts.Seed, opts.Threads)
	fmt.Fprintf(out, "  %-14s %-8s %-6s %-8s %-16s %-10s %s\n",
		"service", "kind", "sync", "trace", "scenario", "outcome", "detail")

	for _, svc := range workloads.Services() {
		n := svc.Requests
		if opts.Smoke {
			n = svc.SmokeRequests
		}
		sc, err := compileService(svc, opts.Threads, n)
		if err != nil {
			return nil, err
		}
		syncs := svc.Workload.Syncs()
		if opts.Smoke {
			syncs = syncs[:1]
		}
		primary := syncs[0]

		// Steady cells: every applicable schedule × sync under moderate load;
		// the full arrival-trace sweep rides on the DOALL primary-sync cell
		// in smoke mode and on every cell otherwise. The capacity
		// calibrations and the cells are independent seeded runs, so both
		// sweeps execute concurrently under -hostpar; cells are recorded in
		// submission order, keeping table and JSON byte-identical to a
		// sequential run.
		type kmSpec struct {
			kind  transform.Kind
			sched *transform.Schedule
			mode  exec.SyncMode
		}
		var kms []kmSpec
		for _, kind := range parallelKinds {
			sched := sc.cp.Schedule(kind)
			if sched == nil {
				violations = append(violations, fmt.Sprintf(
					"%s: schedule %v not generated — campaign must cover both services × all three transforms", svc.Name, kind))
				continue
			}
			for _, mode := range syncs {
				kms = append(kms, kmSpec{kind, sched, mode})
			}
		}
		capacs := make([]float64, len(kms))
		if err := opts.parDo(len(kms), func(i int) error {
			c, err := sc.capacity(kms[i].sched, kms[i].mode, opts.Threads)
			capacs[i] = c
			return err
		}); err != nil {
			return nil, err
		}

		type steadyCell struct {
			km    int
			trace string
			cell  ServiceCell
			res   *exec.ServiceResult
			err   error
		}
		var steady []*steadyCell
		for ki, km := range kms {
			traces := []string{"poisson", "bursty", "diurnal"}
			if opts.Smoke && !(km.kind == transform.DOALL && km.mode == primary) {
				traces = []string{"poisson"}
			}
			for _, trace := range traces {
				steady = append(steady, &steadyCell{km: ki, trace: trace})
			}
		}
		if err := opts.parDo(len(steady), func(i int) error {
			st := steady[i]
			km := kms[st.km]
			gap := sc.gap(steadyUtil, capacs[st.km])
			scaler := &exec.ScalerConfig{Window: 8 * sc.reqCost}
			mk := sc.svcConfig(st.trace, opts.Seed+traceSeeds[st.trace], gap, scaler, 32)
			res, err := sc.runChecked(km.sched, km.mode, opts.Threads, mk(), nil, transform.Tuning{})
			cell := ServiceCell{
				Service: svc.Name, Kind: fmt.Sprintf("%v", km.kind), Sync: fmt.Sprintf("%v", km.mode),
				Trace: st.trace, Scenario: "steady", Util: steadyUtil,
			}
			if err == nil {
				cell.Outcome = "ok"
				cell.Detail = resultDetail(res)
			}
			st.cell, st.res, st.err = cell, res, err
			return nil
		}); err != nil {
			return nil, err
		}
		for _, st := range steady {
			record(st.cell, st.res, st.err)
		}

		doall := sc.cp.Schedule(transform.DOALL)
		if doall == nil {
			continue // already recorded as a coverage violation
		}
		capac, err := sc.capacity(doall, primary, opts.Threads)
		if err != nil {
			return nil, err
		}

		// Overload: bursty load at 5× capacity, shallow ingress, tight
		// controller with the full ladder armed — the run must escalate
		// through shed and scale-down to the sequential fallback, twice,
		// identically. 5× keeps even the MMPP quiet phase (half rate) over
		// capacity after the best-effort token bucket trims its class, so
		// pressure is sustained across controller windows instead of
		// recovering between bursts.
		{
			gap := sc.gap(5.0, capac)
			window := int64(gap * float64(sc.n) / 10)
			if window < 1 {
				window = 1
			}
			scaler := &exec.ScalerConfig{
				Window: window, EscalateAfter: 1, BadAttainment: 0.6, BadPressure: 0.5, AllowFallback: true,
			}
			// A shallow ingress (16) is the escalation signal: at 5× capacity
			// the queue saturates and sheds, which forces the controller's
			// pressure reading to 1 while completions go stale against the SLO.
			base := sc.svcConfig("bursty", opts.Seed+traceSeeds["bursty"], gap, scaler, 16)
			rate := 2.5e5 / gap // half the best-effort class's arrival share
			mkSvc := func() exec.ServiceConfig {
				c := base()
				// The overload scenario holds the service to a tight
				// interactive SLO: the default factors are sized so steady
				// cells pass, but past capacity the queueing delay must
				// actually register as missed deadlines and stale responses
				// for the ladder to move.
				c.SLO = 3 * sc.reqCost
				c.Deadline = 8 * sc.reqCost
				c.Classes = []exec.ServiceClass{
					{Name: "paid"},
					{Name: "best-effort", Rate: rate, Burst: 4, ShedAtLevel: 1},
				}
				c.ClassOf = func(k int) int { return k % 2 }
				return c
			}
			res, err := runTwice(func() (*exec.ServiceResult, error) {
				return sc.runResilient(doall, primary, opts.Threads, mkSvc, nil)
			})
			cell := ServiceCell{
				Service: svc.Name, Kind: fmt.Sprintf("%v", transform.DOALL),
				Sync: fmt.Sprintf("%v", primary), Trace: "bursty", Scenario: "overload",
				Util: 5.0, Deterministic: true,
			}
			if err == nil {
				switch {
				case deepestLevel(res) < 2:
					err = fmt.Errorf("overload never walked the ladder past level %d", deepestLevel(res))
				case res.Generated != sc.n:
					err = fmt.Errorf("trace truncated: %d generated, want %d", res.Generated, sc.n)
				}
			}
			if err == nil {
				if res.FellBack {
					cell.Outcome = "degraded"
				} else {
					cell.Outcome = "shed"
				}
				cell.Detail = resultDetail(res)
			}
			record(cell, res, err)
		}

		// Crash cells: the PR 2/5 fault plans aimed at the dynamic service
		// roster. MinWorkers=2 keeps the victim in the always-on set, which
		// faults.ValidateService requires of every crash target.
		{
			gap := sc.gap(0.5, capac)
			scaler := &exec.ScalerConfig{Window: 8 * sc.reqCost, MinWorkers: 2}
			always, scalable := exec.ServiceRoster(doall, opts.Threads, scaler.MinWorkers)
			roster := faults.ServiceRoster{Always: always, Scalable: scalable}
			for _, crash := range []struct {
				name string
				perm bool
			}{{"crash-transient", false}, {"crash-perm", true}} {
				plan := faults.Plan{
					Name: crash.name, Seed: opts.Seed, Recoverable: true,
					Specs: []faults.Spec{{Kind: faults.Crash, Thread: "svc.1", After: 4, Permanent: crash.perm}},
				}
				if err := plan.ValidateService(roster); err != nil {
					return nil, fmt.Errorf("bench: %w", err)
				}
				mk := sc.svcConfig("poisson", opts.Seed+traceSeeds["poisson"], gap, scaler, 32)
				res, err := runTwice(func() (*exec.ServiceResult, error) {
					return sc.runChecked(doall, primary, opts.Threads, mk(), &plan, transform.Tuning{})
				})
				cell := ServiceCell{
					Service: svc.Name, Kind: fmt.Sprintf("%v", transform.DOALL),
					Sync: fmt.Sprintf("%v", primary), Trace: "poisson", Scenario: crash.name,
					Util: 0.5, Deterministic: true,
				}
				if err == nil {
					switch {
					case !crash.perm && res.Restarts < 1:
						err = fmt.Errorf("transient crash never restarted the worker")
					case crash.perm && res.DeadWorkers < 1:
						err = fmt.Errorf("permanent crash never retired the worker")
					}
				}
				if err == nil {
					if crash.perm {
						cell.Outcome = "absorbed"
					} else {
						cell.Outcome = "recovered"
					}
					cell.Detail = fmt.Sprintf("restarts=%d dead=%d %s", res.Restarts, res.DeadWorkers, resultDetail(res))
				}
				record(cell, res, err)
			}
		}

		// Heavy-tailed overload pair: the seeded bounded-Pareto trace makes a
		// deterministic few requests ~64x the mode, so whichever workers draw
		// them become stragglers while the ladder's scale-down level parks
		// their peers. The cell runs twice — Tune.Steal off then on — under
		// the identical trace; with stealing the parked workers drain the
		// dispatch backlog the stragglers left behind. Both cells must
		// validate against the heavy sequential reference and reproduce
		// bit-for-bit.
		if svc.HeavySetup != nil {
			hsc, err := compileServiceHeavy(svc, opts.Threads, n, opts.Seed+101)
			if err != nil {
				return nil, err
			}
			hcap, err := hsc.capacity(doall, primary, opts.Threads)
			if err != nil {
				return nil, err
			}
			gap := hsc.gap(1.5, hcap)
			var p99s [2]int64
			for si, steal := range []bool{false, true} {
				scaler := &exec.ScalerConfig{
					Window: 8 * hsc.reqCost, MinWorkers: 2,
					EscalateAfter: 1, BadAttainment: 0.6, BadPressure: 0.5,
				}
				mk := hsc.svcConfig("bursty", opts.Seed+traceSeeds["bursty"], gap, scaler, 32)
				tune := transform.Tuning{Steal: steal}
				res, err := runTwice(func() (*exec.ServiceResult, error) {
					return hsc.runChecked(doall, primary, opts.Threads, mk(), nil, tune)
				})
				scenario := "heavy-tail"
				if steal {
					scenario = "heavy-tail-steal"
				}
				cell := ServiceCell{
					Service: svc.Name, Kind: fmt.Sprintf("%v", transform.DOALL),
					Sync: fmt.Sprintf("%v", primary), Trace: "bursty", Scenario: scenario,
					Util: 1.5, Deterministic: true,
				}
				if err == nil {
					p99s[si] = res.P99
					cell.Outcome = "ok"
					cell.Detail = fmt.Sprintf("steals=%d %s", res.Steals, resultDetail(res))
				}
				record(cell, res, err)
			}
			if p99s[0] > 0 && p99s[1] > 0 {
				fmt.Fprintf(out, "  %-14s heavy tail: p99 %d -> %d with stealing (%+.0f%%)\n",
					svc.Name, p99s[0], p99s[1], 100*float64(p99s[1]-p99s[0])/float64(p99s[0]))
			}
		}

		// Pipeline permanent-stage crash: a structural worker dies for good,
		// so the parallel attempt is diagnosed non-transient and the runtime
		// degrades to the Accept-verified sequential service.
		if pipe := firstPipeline(sc.cp); pipe != nil {
			pcap, err := sc.capacity(pipe, primary, opts.Threads)
			if err != nil {
				return nil, err
			}
			always, scalable := exec.ServiceRoster(pipe, opts.Threads, 1)
			plan := faults.Plan{
				Name: "crash-stage-perm", Seed: opts.Seed, Recoverable: true,
				Specs: []faults.Spec{{Kind: faults.Crash, Thread: always[0], After: 5, Permanent: true}},
			}
			if err := plan.ValidateService(faults.ServiceRoster{Always: always, Scalable: scalable}); err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
			gap := sc.gap(0.5, pcap)
			mk := sc.svcConfig("poisson", opts.Seed+traceSeeds["poisson"], gap, nil, 32)
			mkPlan := func() *faults.Plan { p := plan; return &p }
			res, err := runTwice(func() (*exec.ServiceResult, error) {
				return sc.runResilient(pipe, primary, opts.Threads, mk, mkPlan)
			})
			cell := ServiceCell{
				Service: svc.Name, Kind: fmt.Sprintf("%v", pipe.Kind),
				Sync: fmt.Sprintf("%v", primary), Trace: "poisson", Scenario: "crash-stage-perm",
				Util: 0.5, Deterministic: true,
			}
			if err == nil {
				switch {
				case !res.FellBack:
					err = fmt.Errorf("permanent stage crash did not degrade to the sequential service")
				case res.Generated != sc.n:
					err = fmt.Errorf("trace truncated: %d generated, want %d", res.Generated, sc.n)
				}
			}
			if err == nil {
				cell.Outcome = "degraded"
				cell.Detail = resultDetail(res)
			}
			record(cell, res, err)
		}

		// Sustainable-rate ladder: walk the offered load up on the DOALL
		// primary-sync Poisson cell; the last point that holds ≥90% SLO
		// attainment with zero shed/abandonment is the sustainable rate.
		utils := ladderUtils
		if opts.Smoke {
			utils = ladderUtilsSmoke
		}
		// Ladder points are independent seeded runs: measure them
		// concurrently, classify them in ladder order.
		type ladderRun struct {
			res *exec.ServiceResult
			err error
		}
		runs := make([]ladderRun, len(utils))
		if err := opts.parDo(len(utils), func(i int) error {
			gap := sc.gap(utils[i], capac)
			scaler := &exec.ScalerConfig{Window: 8 * sc.reqCost}
			mk := sc.svcConfig("poisson", opts.Seed+traceSeeds["poisson"], gap, scaler, 32)
			res, err := sc.runChecked(doall, primary, opts.Threads, mk(), nil, transform.Tuning{})
			runs[i] = ladderRun{res, err}
			return nil
		}); err != nil {
			return nil, err
		}
		lastSustainable := -1
		points := make([]RatePoint, 0, len(utils))
		for i, util := range utils {
			res, err := runs[i].res, runs[i].err
			if err != nil {
				violations = append(violations, fmt.Sprintf("%s rate ladder util %.2f: %v", svc.Name, util, err))
				continue
			}
			pt := RatePoint{
				Service: svc.Name, Util: util,
				ThroughputPerMvt: res.ThroughputPerMvt,
				Attainment:       res.SLOAttainment,
				ShedRate:         res.ShedRate,
				Abandoned:        res.Abandoned,
			}
			pt.Sustainable = pt.Attainment >= 0.9 && pt.ShedRate == 0 && pt.Abandoned == 0
			if pt.Sustainable {
				lastSustainable = len(points)
			}
			points = append(points, pt)
			sum.Runs++
			sum.OK++
			sum.add(res)
			fmt.Fprintf(out, "  %-14s %-8s %-6s %-8s %-16s %-10s util=%.2f tput=%.1f/Mvt slo=%.2f shed=%.2f\n",
				svc.Name, "DOALL", fmt.Sprintf("%v", primary), "poisson",
				fmt.Sprintf("rate-%.2f", util), "point", util, pt.ThroughputPerMvt, pt.Attainment, pt.ShedRate)
		}
		if lastSustainable < 0 {
			violations = append(violations, fmt.Sprintf(
				"%s: no sustainable point on the rate ladder (lowest util %.2f already misses the SLO)", svc.Name, utils[0]))
		} else {
			fmt.Fprintf(out, "  %-14s sustainable: util %.2f at %.1f req/Mvt\n",
				svc.Name, points[lastSustainable].Util, points[lastSustainable].ThroughputPerMvt)
		}
		rep.RateLadder = append(rep.RateLadder, points...)
	}

	// Acceptance: both services × all three transforms, and the degradation
	// ladder exercised somewhere.
	for _, svc := range workloads.Services() {
		for _, kind := range parallelKinds {
			if !covered[svc.Name][fmt.Sprintf("%v", kind)] {
				violations = append(violations, fmt.Sprintf("%s: no cell covers transform %v", svc.Name, kind))
			}
		}
	}
	if sum.MaxLevel < 2 {
		violations = append(violations, fmt.Sprintf(
			"no cell walked the degradation ladder to level ≥ 2 (high-water %d)", sum.MaxLevel))
	}

	fmt.Fprintf(out, "  %d runs: %d ok, %d violations; %d generated = %d completed + %d shed + %d abandoned + %d rejected + %d failed; %d restarts, %d fallbacks, ladder high-water %d\n",
		sum.Runs, sum.OK, sum.Violations, sum.Generated, sum.Completed, sum.Shed,
		sum.Abandoned, sum.Rejected, sum.Failed, sum.Restarts, sum.FellBack, sum.MaxLevel)
	if len(violations) > 0 {
		return rep, fmt.Errorf("bench: service campaign failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return rep, nil
}

// firstPipeline returns the workload's DSWP schedule, falling back to
// PS-DSWP (the crash-stage scenario needs any structural stage network).
func firstPipeline(cp *Compiled) *transform.Schedule {
	if s := cp.Schedule(transform.DSWP); s != nil {
		return s
	}
	return cp.Schedule(transform.PSDSWP)
}
