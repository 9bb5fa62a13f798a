package sanitize_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/sanitize"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// recordedRuns runs one variant of a workload at 8 threads the way the
// full-size sanitize campaign does: the sequential run under a VerifyAll
// monitor, then every parallel kind × sync cell through a detect pass
// and, when it names candidates, a capture pass. It calls check with each
// VerifyAll and capture monitor and the verdicts the monitor gave.
func recordedRuns(t *testing.T, wl *workloads.Workload, variant string, check func(label string, mon *sanitize.Monitor, verdicts []sanitize.PairVerdict)) {
	t.Helper()
	cp, err := bench.Compile(wl, variant, 8)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *builtins.World {
		w := builtins.NewWorld()
		wl.Setup(w)
		return w
	}
	config := func(w *builtins.World, mon *sanitize.Monitor) exec.Config {
		return exec.Config{
			Prog: cp.C.Low.Prog, Builtins: w.Fns(), Model: cp.C.Model,
			Cost: des.DefaultCostModel(), Sanitize: mon,
		}
	}
	noReplay := func(sanitize.Candidate) string { return "" }

	w := fresh()
	all := sanitize.New(sanitize.VerifyAll, cp.C.Low.Prog, w)
	if _, err := exec.RunSequential(config(w, all)); err != nil {
		t.Fatal(err)
	}
	check("verify-all", all, all.VerifyPairs(noReplay))

	for _, kind := range []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP} {
		sched := cp.Schedule(kind)
		if sched == nil {
			continue
		}
		for _, mode := range wl.Syncs() {
			dw := fresh()
			det := sanitize.New(sanitize.Detect, cp.C.Low.Prog, dw)
			if _, err := exec.Run(config(dw, det), cp.LA, sched, mode, 8); err != nil {
				t.Fatal(err)
			}
			cands := det.Candidates()
			if len(cands) == 0 {
				continue
			}
			cw := fresh()
			capMon := sanitize.NewCapture(cp.C.Low.Prog, cw, cands)
			if _, err := exec.Run(config(cw, capMon), cp.LA, sched, mode, 8); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%v/%v", kind, mode), capMon, capMon.ReplayCandidates(cands, noReplay))
		}
	}
}

// TestReplayMatchesWholeWorldDiff replays every verdict of the full-size
// sanitize campaign's cells (every variant of every workload at 8
// threads, parallel and sequential) and of the refutes corpus from its
// monitor's recordings, and checks that the oracle's in-place world
// comparison gives the verdict's diff text, which the whole-world
// reference (each order's ObservableState diffed key by key) gives too.
func TestReplayMatchesWholeWorldDiff(t *testing.T) {
	replayed, violations := 0, 0
	check := func(label string, mon *sanitize.Monitor, verdicts []sanitize.PairVerdict) {
		n, err := sanitize.CheckReplays(mon, verdicts)
		if err != nil {
			t.Errorf("%s: %v", label, err)
		}
		replayed += n
		_, v := sanitize.Tally(verdicts)
		violations += v
	}
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			recordedRuns(t, wl, v.Name, func(label string, mon *sanitize.Monitor, verdicts []sanitize.PairVerdict) {
				check(wl.Name+"/"+v.Name+" "+label, mon, verdicts)
			})
		}
	}
	clean := violations
	for _, e := range analysis.Corpus() {
		if !e.Refutes {
			continue
		}
		w := builtins.NewWorld()
		c, err := pipeline.Compile(pipeline.Options{
			File: source.NewFile(e.Name+".mc", e.Source), Sigs: w.Sigs(), Effects: w.EffectTable(),
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		mon := sanitize.New(sanitize.VerifyAll, c.Low.Prog, w)
		if _, err := exec.RunSequential(exec.Config{
			Prog: c.Low.Prog, Builtins: w.Fns(), Model: c.Model,
			Cost: des.DefaultCostModel(), Sanitize: mon,
		}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		check(e.Name, mon, mon.VerifyPairs(func(sanitize.Candidate) string { return "" }))
	}
	if clean != 0 || violations == clean {
		t.Errorf("%d violations in the workload cells and %d in the corpus: want none and some", clean, violations-clean)
	}
	if replayed == 0 {
		t.Error("no pair replayed")
	}
	t.Logf("%d pairs replayed, %d of them violations", replayed, violations)
}
