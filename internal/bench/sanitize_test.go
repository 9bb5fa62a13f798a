package bench

import (
	"testing"

	"repro/internal/analysis"
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
