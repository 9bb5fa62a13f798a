package bench

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/sanitize"
	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// TestSanitizeCellClean drives one representative parallel cell through the
// full detect → capture → replay pipeline: the published md5sum annotations
// must come out race-free with every oracle candidate verified, and neither
// sanitizer phase may perturb virtual time.
func TestSanitizeCellClean(t *testing.T) {
	wl := workloads.ByName("md5sum")
	if wl == nil {
		t.Fatal("md5sum workload missing")
	}
	cp, err := Compile(wl, wl.Variants[0].Name, 4)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cell, err := SanitizeRun(cp, transform.DOALL, exec.SyncSpin, 4)
	if err != nil {
		t.Fatalf("sanitize: %v", err)
	}
	if !cell.Clean {
		t.Errorf("cell dirty: races=%v pairs=%v", cell.Races, cell.Pairs)
	}
	if !cell.VTimeMatch {
		t.Errorf("sanitizer perturbed virtual time: %d", cell.VirtualTime)
	}
	if cell.Candidates > 0 && cell.Verified == 0 {
		t.Errorf("candidates routed but none verified: %+v", cell)
	}
}

// TestVerifyAllUnderTransientFaults runs the sequential VerifyAll oracle
// with recovery armed under a transient-fault plan: each retry stays inside
// its member's extent, so the verdicts equal the clean run's.
func TestVerifyAllUnderTransientFaults(t *testing.T) {
	plan := DefaultPlans(1)[0]
	noReplay := func(sanitize.Candidate) string { return "" }
	for _, name := range []string{"md5sum", "kmeans", "url", "456.hmmer"} {
		cp, err := Compile(workloads.ByName(name), "comm", 1)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		_, clean, err := verifyAll(cp.C, freshWorld(cp.WL), noReplay)
		if err != nil {
			t.Fatalf("%s clean: %v", name, err)
		}
		world := freshWorld(cp.WL)
		mon := sanitize.New(sanitize.VerifyAll, cp.C.Low.Prog, world)
		cfg := resilientConfig(cp.C, world, &plan)
		cfg.Sanitize = mon
		res, err := exec.RunSequential(cfg)
		if err != nil {
			t.Fatalf("%s under %s: %v", name, plan.Name, err)
		}
		if res.CallRetries == 0 {
			t.Errorf("%s: plan %s caused no retries", name, plan.Name)
		}
		faulty := mon.VerifyPairs(noReplay)
		if len(clean) == 0 || !reflect.DeepEqual(faulty, clean) {
			t.Errorf("%s: verdicts under %s differ from the clean run's:\n%+v\nclean:\n%+v", name, plan.Name, faulty, clean)
		}
	}
}

// TestSanitizeSequentialVerifyAll runs the exhaustive sequential oracle on a
// workload and requires every claimed pair to verify (no violations; replay
// failures degrade to inconclusive, never to false alarms).
func TestSanitizeSequentialVerifyAll(t *testing.T) {
	wl := workloads.ByName("md5sum")
	if wl == nil {
		t.Fatal("md5sum workload missing")
	}
	cp, err := Compile(wl, wl.Variants[0].Name, 1)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cell, err := SanitizeRun(cp, transform.Sequential, 0, 1)
	if err != nil {
		t.Fatalf("sanitize: %v", err)
	}
	if cell.Violations != 0 {
		t.Errorf("sequential verify-all found violations: %+v", cell.Pairs)
	}
	if !cell.VTimeMatch {
		t.Errorf("verify-all perturbed sequential cost: %d", cell.VirtualTime)
	}
	if len(cell.Pairs) == 0 {
		t.Error("verify-all produced no pair obligations for md5sum")
	}
}

// TestSanitizeNegativesFlagged replays every seeded misannotation: each
// refutes-corpus entry and the parallel NSET negative must produce at least
// one concrete commutativity violation with a replayable counterexample.
func TestSanitizeNegativesFlagged(t *testing.T) {
	negs, err := sanitizeNegatives(CampaignOptions{})
	if err != nil {
		t.Fatalf("negatives: %v", err)
	}
	var refutes int
	for _, e := range analysis.Corpus() {
		if e.Refutes {
			refutes++
		}
	}
	if want := refutes + 1; len(negs) != want {
		t.Fatalf("negatives = %d, want %d (refutes corpus + parallel)", len(negs), want)
	}
	for _, n := range negs {
		if !n.Flagged || n.Violations == 0 {
			t.Errorf("negative %s (%s) not flagged: %+v", n.Name, n.Mode, n)
		}
	}
}

// TestVerifyAllSourceViolation pins the oracle's counterexample quality on
// one seeded negative: the diff must name the diverging observable and the
// replay closure must be threaded through to the verdict.
func TestVerifyAllSourceViolation(t *testing.T) {
	var entry *analysis.CorpusEntry
	for _, e := range analysis.Corpus() {
		if e.Name == "rf_rmw_global" {
			e := e
			entry = &e
			break
		}
	}
	if entry == nil {
		t.Fatal("rf_rmw_global corpus entry missing")
	}
	pairs, err := VerifyAllSource(entry.Name+".mc", entry.Source, func(c sanitize.Candidate) string {
		return "replay-here"
	})
	if err != nil {
		t.Fatalf("VerifyAllSource: %v", err)
	}
	var violated bool
	for _, p := range pairs {
		if p.Verdict == sanitize.VerdictViolation {
			violated = true
			if p.Diff == "" {
				t.Errorf("violation without counterexample diff: %+v", p)
			}
			if p.Replay != "replay-here" {
				t.Errorf("replay closure not threaded: %q", p.Replay)
			}
		}
	}
	if !violated {
		t.Fatalf("no violation found in %d pairs", len(pairs))
	}
}

// BenchmarkSanitizedCell times the sanitizer layer on md5sum: one parallel
// cell (detect, capture, both-order replay of its oracle candidates) and
// one sequential VerifyAll run. The plain run a cell compares against is
// memoized, so it is warmed first; the substrate memos are reset outside
// the timer, so every iteration's sanitized runs start cold.
func BenchmarkSanitizedCell(b *testing.B) {
	cp, err := Compile(workloads.Md5sum(), "comm", 4)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cp.Run(transform.DOALL, exec.SyncSpin, 4); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		kind    transform.Kind
		mode    exec.SyncMode
		threads int
	}{
		{"doall", transform.DOALL, exec.SyncSpin, 4},
		{"seq", transform.Sequential, 0, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				builtins.ResetFastCaches()
				b.StartTimer()
				cell, err := SanitizeRun(cp, c.kind, c.mode, c.threads)
				if err != nil {
					b.Fatal(err)
				}
				if !cell.Clean || !cell.VTimeMatch {
					b.Fatalf("cell not clean: %+v", cell)
				}
			}
		})
	}
}
