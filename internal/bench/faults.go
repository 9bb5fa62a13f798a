package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// Effectful derives the builtins with externally visible writes from the
// substrate's effect table; the resilient executor refuses to re-execute a
// DOALL iteration that already completed one of them.
func Effectful(w *builtins.World) map[string]bool {
	out := map[string]bool{}
	for name, d := range w.EffectTable() {
		if len(d.Writes) > 0 {
			out[name] = true
		}
	}
	return out
}

// DefaultPlans is the standard fault campaign: five recoverable plans (one
// per fault class) and one permanent plan that every schedule must convert
// into a diagnosed error.
func DefaultPlans(seed uint64) []faults.Plan {
	return []faults.Plan{
		{Name: "transient-burst", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Transient, Builtin: "*", After: 40, Count: 3},
		}},
		{Name: "transient-io", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Transient, Builtin: "*", Prob: 0.01},
		}},
		{Name: "latency-spikes", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Latency, Builtin: "*", Prob: 0.05, Delay: 20000},
		}},
		{Name: "queue-stall", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.QueueStall, Queue: "q", After: 3, Count: 8, Delay: 15000},
		}},
		{Name: "tm-storm", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.TMStorm, After: 1, Count: 50, Aborts: 2},
		}},
		{Name: "permanent", Seed: seed, Specs: []faults.Spec{
			{Kind: faults.Permanent, Builtin: "*", After: 60},
		}},
	}
}

// CrashPlans builds the crash sub-campaign for one schedule: a transient
// crash (restart from checkpoint), a repeated crash (the replacement dies
// too), and a permanent crash (degraded mode: DOALL re-partitions, a
// pipeline collapses to the sequential fallback). victim must be a role from
// exec.CrashRoster for the target schedule. All three plans are declared
// Recoverable: a crash must never end in a diagnosed error, only in
// recovered or degraded outcomes.
func CrashPlans(seed uint64, victim string) []faults.Plan {
	return []faults.Plan{
		{Name: "crash-transient", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Crash, Thread: victim, After: 3},
		}},
		{Name: "crash-repeat", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Crash, Thread: victim, After: 2, Count: 2},
		}},
		{Name: "crash-perm", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Crash, Thread: victim, After: 3, Permanent: true},
		}},
	}
}

// crashVictim picks the campaign's crash target from a schedule's roster:
// the second DOALL worker (so the main-thread worker survives to collect
// joins even in single-survivor splits) or the first pipeline stage worker.
func crashVictim(roster []string) string {
	if len(roster) == 0 {
		return ""
	}
	if len(roster) > 1 && strings.HasPrefix(roster[0], "doall.") {
		return roster[1]
	}
	return roster[0]
}

// FaultSummary aggregates the fault campaign outcomes.
type FaultSummary struct {
	Runs      int `json:"runs"`
	Clean     int `json:"clean"`     // no faults fired (or none applied to the configuration)
	Recovered int `json:"recovered"` // faults absorbed by retries / restarts / re-execution
	Degraded  int `json:"degraded"`  // re-partitioned or sequential fallback, output accepted
	Diagnosed int `json:"diagnosed"` // run terminated with a diagnosed unrecoverable fault

	Restarts      int `json:"restarts"`      // total supervisor restarts across all runs
	Repartitioned int `json:"repartitioned"` // total dead-worker re-partitions across all runs
}

// FaultCell is one (workload, schedule, sync, plan) campaign cell of the
// machine-readable report.
type FaultCell struct {
	Workload    string `json:"workload"`
	Kind        string `json:"kind"`
	Sync        string `json:"sync"`
	Plan        string `json:"plan"`
	Recoverable bool   `json:"recoverable"`
	Outcome     string `json:"outcome"`
	Detail      string `json:"detail,omitempty"`

	// VTime is the accepted run's makespan; BaselineVTime the fault-free
	// makespan of the same schedule cell. OverheadPct is the recovery cost:
	// how much slower the faulted run finished than the fault-free one.
	VTime         int64   `json:"vtime,omitempty"`
	BaselineVTime int64   `json:"baseline_vtime,omitempty"`
	OverheadPct   float64 `json:"overhead_pct,omitempty"`

	Restarts       int                  `json:"restarts,omitempty"`
	Repartitioned  int                  `json:"repartitioned,omitempty"`
	RestartHistory []exec.RestartRecord `json:"restart_history,omitempty"`

	// MTTR is the cell's worst mean-time-to-repair in virtual time: the
	// largest RecoveredVTime-VTime gap across the restart history (how long
	// any crashed role was out of service before its replacement or salvage
	// crew resumed progress). P99JoinSkew is the loop-completion skew: the
	// p99 worker-join time minus the earliest join, the straggler tail the
	// stealing layer exists to flatten.
	MTTR        int64 `json:"mttr,omitempty"`
	P99JoinSkew int64 `json:"p99_join_skew,omitempty"`
}

// mttrOf extracts the worst repair latency from a restart history.
func mttrOf(hist []exec.RestartRecord) int64 {
	var worst int64
	for _, r := range hist {
		if r.RecoveredVTime > r.VTime && r.RecoveredVTime-r.VTime > worst {
			worst = r.RecoveredVTime - r.VTime
		}
	}
	return worst
}

// joinSkew computes p99(join) - min(join) over the virtual times at which
// the loop's workers delivered their results.
func joinSkew(joins []int64) int64 {
	if len(joins) < 2 {
		return 0
	}
	s := append([]int64(nil), joins...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s)-1)*0.99 + 0.5)
	return s[idx] - s[0]
}

// FaultReport is the machine-readable campaign result behind
// BENCH_faults.json. CI uploads it as an artifact so resilience regressions
// show up as a diff, not a rerun.
type FaultReport struct {
	Threads int          `json:"threads"`
	Seed    uint64       `json:"seed"`
	Smoke   bool         `json:"smoke"`
	Summary FaultSummary `json:"summary"`
	Cells   []FaultCell  `json:"cells"`
}

// FaultCampaign sweeps workloads × {DOALL, DSWP, PS-DSWP} × sync modes ×
// fault plans through the resilient executor. On top of the kind-agnostic
// DefaultPlans, every schedule cell also runs the CrashPlans targeting one
// of its own worker roles (validated against exec.CrashRoster first). Every
// recoverable plan must end with sequential-equivalent output (clean,
// recovered, or degraded); every permanent-builtin plan must end in a
// diagnosed error — any other outcome fails the campaign. The sweep order
// and, given a seed, every outcome are deterministic. Smoke restricts the
// sweep to two workloads and the deterministic plans.
func FaultCampaign(out io.Writer, opts CampaignOptions) (*FaultReport, error) {
	wls := workloads.All()
	plans := DefaultPlans(opts.Seed)
	if opts.Smoke {
		wls = []*workloads.Workload{workloads.ByName("md5sum"), workloads.ByName("kmeans")}
		plans = []faults.Plan{plans[0], plans[3], plans[5]}
	}

	fmt.Fprintf(out, "Fault campaign: %d workloads, seed %d, %d threads\n", len(wls), opts.Seed, opts.Threads)
	fmt.Fprintf(out, "  %-10s %-8s %-6s %-16s %-10s %s\n", "workload", "kind", "sync", "plan", "outcome", "detail")

	rep := &FaultReport{Threads: opts.Threads, Seed: opts.Seed, Smoke: opts.Smoke}
	sum := &rep.Summary
	var violations []string

	// Compile every workload, then flatten the sweep into independent
	// (workload, schedule, sync) groups. Each group runs its fault-free
	// baseline and its whole plan list; groups share only read-only compile
	// artifacts, so they execute concurrently under -hostpar. Results are
	// replayed in submission order below, which keeps the printed table,
	// the summary, and the JSON report byte-identical to a sequential run.
	cps := make([]*Compiled, len(wls))
	if err := opts.parDo(len(wls), func(i int) error {
		cp, err := Compile(wls[i], "comm", opts.Threads)
		cps[i] = cp
		return err
	}); err != nil {
		return nil, err
	}

	type faultGroup struct {
		cp    *Compiled
		kind  transform.Kind
		mode  exec.SyncMode
		plans []faults.Plan
	}
	var groups []faultGroup
	for wi, wl := range wls {
		cp := cps[wi]
		for _, kind := range parallelKinds {
			sched := cp.Schedule(kind)
			if sched == nil {
				continue
			}
			kindPlans := plans
			roster := exec.CrashRoster(sched, opts.Threads)
			if victim := crashVictim(roster); victim != "" {
				crash := CrashPlans(opts.Seed, victim)
				if opts.Smoke {
					crash = []faults.Plan{crash[0], crash[2]}
				}
				for i := range crash {
					if err := crash[i].Validate(roster); err != nil {
						return nil, fmt.Errorf("bench: %w", err)
					}
				}
				kindPlans = append(append([]faults.Plan(nil), plans...), crash...)
			}
			for _, mode := range wl.Syncs() {
				groups = append(groups, faultGroup{cp, kind, mode, kindPlans})
			}
		}
	}

	cells := make([][]FaultCell, len(groups))
	if err := opts.parDo(len(groups), func(i int) error {
		g := groups[i]
		sched := g.cp.Schedule(g.kind)
		baseline, err := cleanBaseline(g.cp, sched, g.mode, opts.Threads)
		if err != nil {
			return fmt.Errorf("bench: fault-free baseline %s %v/%v: %w", g.cp.WL.Name, g.kind, g.mode, err)
		}
		cells[i] = make([]FaultCell, 0, len(g.plans))
		for _, plan := range g.plans {
			cell, err := runFaulted(g.cp, sched, g.kind, g.mode, opts.Threads, plan)
			if err != nil {
				return err
			}
			cell.BaselineVTime = baseline
			if cell.VTime > 0 && baseline > 0 {
				cell.OverheadPct = 100 * float64(cell.VTime-baseline) / float64(baseline)
			}
			cells[i] = append(cells[i], cell)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for gi, g := range groups {
		for ci, cell := range cells[gi] {
			plan := g.plans[ci]
			sum.Runs++
			switch cell.Outcome {
			case "clean":
				sum.Clean++
			case "recovered":
				sum.Recovered++
			case "degraded":
				sum.Degraded++
			case "diagnosed":
				sum.Diagnosed++
			}
			sum.Restarts += cell.Restarts
			sum.Repartitioned += cell.Repartitioned
			ok := cell.Outcome == "diagnosed" != plan.Recoverable
			if !ok {
				violations = append(violations, fmt.Sprintf(
					"%s %v/%v plan %s: outcome %s violates recoverable=%v (%s)",
					g.cp.WL.Name, g.kind, g.mode, plan.Name, cell.Outcome, plan.Recoverable, cell.Detail))
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Fprintf(out, "  %-10s %-8v %-6v %-16s %-10s %s\n",
				g.cp.WL.Name, g.kind, g.mode, plan.Name, cell.Outcome, cell.Detail)
		}
	}
	fmt.Fprintf(out, "  %d runs: %d clean, %d recovered, %d degraded, %d diagnosed (%d restarts, %d re-partitions)\n",
		sum.Runs, sum.Clean, sum.Recovered, sum.Degraded, sum.Diagnosed, sum.Restarts, sum.Repartitioned)
	if len(violations) > 0 {
		return rep, fmt.Errorf("bench: fault campaign failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return rep, nil
}

// resilientConfig is the executor configuration of the fault, service and
// steal campaigns: recovery armed, a 5M-event watchdog, and the world's
// effectful builtins. A non-nil plan gets a fresh fault injector wired
// into the builtins, queue pushes and TM commits, plus crash ticks when
// the plan can kill a thread (arming the checkpoint layer only then keeps
// crash-free cells on their exact timings) and straggler ticks when it can
// slow one.
func resilientConfig(c *pipeline.Compiled, w *builtins.World, plan *faults.Plan) exec.Config {
	cfg := exec.Config{
		Prog:      c.Low.Prog,
		Builtins:  w.Fns(),
		Model:     c.Model,
		Cost:      des.DefaultCostModel(),
		Recovery:  exec.DefaultRecovery(),
		Watchdog:  des.Watchdog{MaxEvents: 5_000_000},
		Effectful: Effectful(w),
	}
	if plan == nil {
		return cfg
	}
	inj := faults.NewInjector(*plan)
	cfg.Builtins = inj.Wrap(cfg.Builtins)
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

// cleanBaseline measures the fault-free makespan of one schedule cell (the
// denominator of the recovery-cost overhead).
func cleanBaseline(cp *Compiled, sched *transform.Schedule, mode exec.SyncMode, threads int) (int64, error) {
	res, err := exec.Run(resilientConfig(cp.C, freshWorld(cp.WL), nil), cp.LA, sched, mode, threads)
	if err != nil {
		return 0, err
	}
	return res.VirtualTime, nil
}

// runFaulted executes one workload/schedule/sync/plan cell resiliently and
// classifies the outcome.
func runFaulted(cp *Compiled, sched *transform.Schedule, kind transform.Kind, mode exec.SyncMode, threads int, plan faults.Plan) (FaultCell, error) {
	cell := FaultCell{
		Workload:    cp.WL.Name,
		Kind:        fmt.Sprintf("%v", kind),
		Sync:        fmt.Sprintf("%v", mode),
		Plan:        plan.Name,
		Recoverable: plan.Recoverable,
	}
	var lastW *builtins.World
	fresh := func() exec.Config {
		lastW = freshWorld(cp.WL)
		return resilientConfig(cp.C, lastW, &plan)
	}
	accept := func(parallel bool) error {
		// Sequential fallbacks replay the exact sequential output; parallel
		// schedules are held to the same standard the main harness uses.
		ordered := !parallel || kind == transform.DSWP
		return cp.WL.Validate(cp.SeqWorld, lastW, ordered)
	}
	res, runErr := exec.RunResilient(exec.ResilientOptions{
		LA:      cp.LA,
		Sched:   sched,
		Mode:    mode,
		Threads: threads,
		Fresh:   fresh,
		Accept:  accept,
	})
	if runErr != nil {
		cell.Outcome, cell.Detail = "diagnosed", runErr.Error()
		return cell, nil
	}
	cell.VTime = res.VirtualTime
	cell.Restarts = res.Restarts
	cell.Repartitioned = res.Repartitioned
	cell.RestartHistory = res.RestartHistory
	cell.MTTR = mttrOf(res.RestartHistory)
	cell.P99JoinSkew = joinSkew(res.WorkerJoins)
	switch {
	case res.FellBack || res.Degraded:
		cell.Outcome = "degraded"
		cell.Detail = fmt.Sprintf("attempts=%d restarts=%d repartitioned=%d", res.Attempts, res.Restarts, res.Repartitioned)
	case res.Recovered:
		cell.Outcome = "recovered"
		cell.Detail = fmt.Sprintf("call-retries=%d iter-retries=%d restarts=%d", res.CallRetries, res.IterRetries, res.Restarts)
	default:
		cell.Outcome = "clean"
	}
	return cell, nil
}

// VetWorkloads is the commsetvet -werror gate of the benchmark harness: it
// runs the full static check suite over every variant of every workload and
// fails if any diagnostic (error or warning) is reported, so a misannotated
// variant fails fast before any simulation runs.
func VetWorkloads(out io.Writer, threads int) error {
	checked := 0
	var bad []string
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			world := builtins.NewWorld()
			c, err := pipeline.Compile(pipeline.Options{
				File:    source.NewFile(fmt.Sprintf("%s[%s]", wl.Name, v.Name), v.Source),
				Sigs:    world.Sigs(),
				Effects: world.EffectTable(),
			})
			if err != nil {
				return fmt.Errorf("bench: vet gate: compile %s/%s: %w", wl.Name, v.Name, err)
			}
			diags, err := analysis.Run(c, analysis.Options{Checks: analysis.DefaultChecks(), Threads: threads})
			if err != nil {
				return fmt.Errorf("bench: vet gate: %s/%s: %w", wl.Name, v.Name, err)
			}
			checked++
			// -werror semantics: errors and warnings fail the gate;
			// informational notes do not.
			failed := false
			for i := range diags.Diags {
				if diags.Diags[i].Sev >= source.SevWarning {
					failed = true
					fmt.Fprintln(out, diags.Diags[i].Error())
				}
			}
			if failed {
				bad = append(bad, fmt.Sprintf("%s/%s", wl.Name, v.Name))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: vet gate (-werror): misannotated variants: %s", strings.Join(bad, ", "))
	}
	fmt.Fprintf(out, "vet gate: %d workload variants clean (commsetvet -werror)\n", checked)
	return nil
}
