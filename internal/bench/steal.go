package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/faults"
	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// Steal campaign: straggler resilience of the always-on work-stealing layer.
//
// Every DOALL-capable workload runs a matrix of straggler plans × steal
// on/off pairs through the resilient executor. The steal-off cell is the
// control: the same seed, the same injected slowdown, the same schedule,
// only Tune.Steal differs. The campaign gates on the tentpole acceptance
// criterion — under a whole-loop ≥4x straggler, the steal-enabled run must
// finish in ≤60% of the steal-disabled virtual time on at least three
// workloads — and re-runs every steal-enabled cell under the same seed to
// assert the steal schedule is bit-for-bit deterministic.

// StealCell is one (workload, plan, steal) run of the report.
type StealCell struct {
	Workload string `json:"workload"`
	Plan     string `json:"plan"`
	Steal    bool   `json:"steal"`
	Outcome  string `json:"outcome"`
	Detail   string `json:"detail,omitempty"`

	VTime       int64 `json:"vtime,omitempty"`
	Steals      int   `json:"steals,omitempty"`
	Restarts    int   `json:"restarts,omitempty"`
	MTTR        int64 `json:"mttr,omitempty"`
	P99JoinSkew int64 `json:"p99_join_skew,omitempty"`

	// RatioVsNoSteal is set on steal-enabled cells: this cell's makespan
	// over the paired steal-disabled cell's. Under a qualifying straggler
	// plan the acceptance bar is ≤ 0.60.
	RatioVsNoSteal float64 `json:"ratio_vs_no_steal,omitempty"`
}

// StealSummary aggregates the campaign outcomes.
type StealSummary struct {
	Runs       int `json:"runs"`
	OK         int `json:"ok"`
	Violations int `json:"violations"`
	// Steals is the total number of granted steals across all cells.
	Steals int `json:"steals"`
	// StragglerWins counts workloads where some qualifying (whole-loop,
	// ≥4x) straggler plan met the ≤0.60 steal-speedup bar. The campaign
	// fails below three.
	StragglerWins int `json:"straggler_wins"`
}

// StealReport is the machine-readable campaign result behind
// BENCH_steal.json. CI uploads it as an artifact so straggler-resilience
// regressions show up as a diff, not a rerun.
type StealReport struct {
	Threads int          `json:"threads"`
	Seed    uint64       `json:"seed"`
	Smoke   bool         `json:"smoke"`
	Summary StealSummary `json:"summary"`
	Cells   []StealCell  `json:"cells"`
}

// StragglerPlans builds the steal campaign's fault plans against one DOALL
// victim role. The first two are the qualifying plans of the acceptance
// gate: the victim runs ≥4x slow for the whole loop. slow-late-6x starts
// the slowdown mid-loop (the steal layer must help even when the straggler
// appears after scheduling decisions are made); slow-crash composes a
// straggler with a transient crash of a different worker, exercising steals
// and checkpoint restarts on the same board.
func StragglerPlans(seed uint64, victim, crashVictim string) []faults.Plan {
	whole := 1 << 20 // covers any loop in the suite
	return []faults.Plan{
		{Name: "slow-4x", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Straggler, Thread: victim, After: 1, Count: whole, Factor: 4},
		}},
		{Name: "slow-8x", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Straggler, Thread: victim, After: 1, Count: whole, Factor: 8},
		}},
		{Name: "slow-late-6x", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Straggler, Thread: victim, After: 8, Count: whole, Factor: 6},
		}},
		{Name: "slow-crash", Seed: seed, Recoverable: true, Specs: []faults.Spec{
			{Kind: faults.Straggler, Thread: victim, After: 1, Count: whole, Factor: 4},
			{Kind: faults.Crash, Thread: crashVictim, After: 3},
		}},
	}
}

// stealQualifying marks the plans that carry the ≤0.60 acceptance gate.
var stealQualifying = map[string]bool{"slow-4x": true, "slow-8x": true}

// runStealCell executes one (workload, plan, steal) cell: a direct
// exec.Run — never the measurement memo, whose key ignores Tune — with the
// straggler/crash injector wired in, validated against the sequential
// reference. Steal-enabled cells run twice under the same seed and must
// reproduce the full Result bit-for-bit.
func runStealCell(cp *Compiled, threads int, plan *faults.Plan, steal bool) (StealCell, error) {
	cell := StealCell{Workload: cp.WL.Name, Plan: "none", Steal: steal}
	if plan != nil {
		cell.Plan = plan.Name
	}
	sched := cp.Schedule(transform.DOALL)
	mode := cp.WL.Syncs()[0]
	run := func() (*exec.Result, error) {
		w := freshWorld(cp.WL)
		cfg := resilientConfig(cp.C, w, plan)
		cfg.Tune = transform.Tuning{Steal: steal}
		res, err := exec.Run(cfg, cp.LA, sched, mode, threads)
		if err != nil {
			return nil, err
		}
		// DOALL externalizes out of order; the multiset must still match.
		if err := cp.WL.Validate(cp.SeqWorld, w, false); err != nil {
			return nil, err
		}
		return res, nil
	}
	var res *exec.Result
	var err error
	if steal {
		res, err = runTwice(run)
	} else {
		res, err = run()
	}
	if err != nil {
		cell.Outcome, cell.Detail = "violation", err.Error()
		return cell, nil
	}
	cell.Outcome = "ok"
	cell.VTime = res.VirtualTime
	cell.Steals = res.Steals
	cell.Restarts = res.Restarts
	cell.MTTR = mttrOf(res.RestartHistory)
	cell.P99JoinSkew = joinSkew(res.WorkerJoins)
	cell.Detail = fmt.Sprintf("vtime=%d steals=%d skew=%d", res.VirtualTime, res.Steals, cell.P99JoinSkew)
	if res.Restarts > 0 {
		cell.Detail += fmt.Sprintf(" restarts=%d", res.Restarts)
	}
	return cell, nil
}

// stealSmokeWorkloads is the CI-sized sweep: four DOALL workloads, enough
// for the three-workload acceptance gate with one slot of slack. potrace
// rides along as an informative floor case — its 72-trip loop spends a
// large share of each sweep in privatized loop control, which every
// adopted range must replay, so its steal-on ratio bottoms out near 0.7
// rather than under the 0.6 bar the work-dominated loops clear.
var stealSmokeWorkloads = []string{"md5sum", "kmeans", "url", "potrace"}

// StealCampaign sweeps DOALL workloads × straggler plans × {steal off, on}
// and reports into BENCH_steal.json. Gates enforced on every cell: output
// multiset-identical to the sequential run, steal-enabled cells bit-for-bit
// deterministic under their seed; and across the report, some qualifying
// ≥4x whole-loop straggler plan must show steal-on finishing in ≤60% of the
// steal-off virtual time on at least three workloads. Smoke restricts the
// sweep to stealSmokeWorkloads and two plans.
func StealCampaign(out io.Writer, opts CampaignOptions) (*StealReport, error) {
	var wls []*workloads.Workload
	if opts.Smoke {
		for _, name := range stealSmokeWorkloads {
			wls = append(wls, workloads.ByName(name))
		}
	} else {
		wls = workloads.All()
	}

	rep := &StealReport{Threads: opts.Threads, Seed: opts.Seed, Smoke: opts.Smoke}
	sum := &rep.Summary
	var violations []string

	fmt.Fprintf(out, "Steal campaign: %d workloads, seed %d, %d threads\n", len(wls), opts.Seed, opts.Threads)
	fmt.Fprintf(out, "  %-10s %-14s %-6s %12s %7s %7s %s\n", "workload", "plan", "steal", "vtime", "steals", "ratio", "outcome")

	cps := make([]*Compiled, len(wls))
	if err := opts.parDo(len(wls), func(i int) error {
		cp, err := Compile(wls[i], "comm", opts.Threads)
		cps[i] = cp
		return err
	}); err != nil {
		return nil, err
	}

	// Flatten into independent (workload, plan, steal) runs so the sweep
	// parallelizes under -hostpar; results are recorded in submission order,
	// keeping the table and the JSON byte-identical to a sequential run.
	type stealRun struct {
		cp   *Compiled
		plan *faults.Plan
	}
	var runs []stealRun
	for wi := range wls {
		cp := cps[wi]
		if cp.Schedule(transform.DOALL) == nil {
			continue
		}
		roster := exec.CrashRoster(cp.Schedule(transform.DOALL), opts.Threads)
		if len(roster) < 3 {
			continue
		}
		plans := StragglerPlans(opts.Seed, roster[1], roster[2])
		if opts.Smoke {
			plans = []faults.Plan{plans[0], plans[3]}
		}
		for i := range plans {
			if err := plans[i].Validate(roster); err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
		}
		runs = append(runs, stealRun{cp, nil})
		for i := range plans {
			runs = append(runs, stealRun{cp, &plans[i]})
		}
	}

	// Each run is an off/on pair; both halves share nothing but read-only
	// compile artifacts.
	cells := make([][2]StealCell, len(runs))
	if err := opts.parDo(2*len(runs), func(i int) error {
		r := runs[i/2]
		cell, err := runStealCell(r.cp, opts.Threads, r.plan, i%2 == 1)
		cells[i/2][i%2] = cell
		return err
	}); err != nil {
		return nil, err
	}

	wins := map[string]bool{}
	for i := range cells {
		off, on := &cells[i][0], &cells[i][1]
		if off.Outcome == "ok" && on.Outcome == "ok" && off.VTime > 0 {
			on.RatioVsNoSteal = float64(on.VTime) / float64(off.VTime)
			if stealQualifying[on.Plan] && on.RatioVsNoSteal <= 0.60 {
				wins[on.Workload] = true
			}
		}
		for _, cell := range []*StealCell{off, on} {
			sum.Runs++
			if cell.Outcome == "ok" {
				sum.OK++
				sum.Steals += cell.Steals
			} else {
				sum.Violations++
				violations = append(violations, fmt.Sprintf("%s plan %s steal=%v: %s",
					cell.Workload, cell.Plan, cell.Steal, cell.Detail))
			}
			ratio := ""
			if cell.RatioVsNoSteal > 0 {
				ratio = fmt.Sprintf("%.2f", cell.RatioVsNoSteal)
			}
			fmt.Fprintf(out, "  %-10s %-14s %-6v %12d %7d %7s %s\n",
				cell.Workload, cell.Plan, cell.Steal, cell.VTime, cell.Steals, ratio, cell.Outcome)
			rep.Cells = append(rep.Cells, *cell)
		}
	}
	sum.StragglerWins = len(wins)

	if sum.StragglerWins < 3 {
		violations = append(violations, fmt.Sprintf(
			"straggler gate: steal-on finished in ≤60%% of steal-off time on only %d workloads (need ≥3)", sum.StragglerWins))
	}
	fmt.Fprintf(out, "  %d runs: %d ok, %d violations; %d steals granted; %d workloads met the ≤0.60 straggler bar\n",
		sum.Runs, sum.OK, sum.Violations, sum.Steals, sum.StragglerWins)
	if len(violations) > 0 {
		return rep, fmt.Errorf("bench: steal campaign failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return rep, nil
}
