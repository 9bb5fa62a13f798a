package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestVetPrecision runs the full precision gate: every corpus expectation
// must hold and every workload variant must stay warning-free under each
// individual check.
func TestVetPrecision(t *testing.T) {
	var out bytes.Buffer
	rep, err := VetPrecision(&out, 4)
	if err != nil {
		t.Fatalf("VetPrecision: %v\n%s", err, out.String())
	}
	if rep.CorpusEntries < 18 {
		t.Errorf("corpus entries = %d, want at least 18", rep.CorpusEntries)
	}
	if rep.Workloads < 8 {
		t.Errorf("workloads = %d, want at least 8", rep.Workloads)
	}
	if rep.TruePositives == 0 {
		t.Error("no true positives held: the corpus is not exercising the recall side")
	}
	if rep.FalsePositivesHeld == 0 {
		t.Error("no false positives held off: the corpus is not exercising the precision side")
	}
	// The unsound check must account for the seeded errors; the corpus is
	// designed so each pass has at least one firing entry.
	if c := rep.Corpus["unsound"]; c.Errors == 0 {
		t.Error("unsound check reported no corpus errors")
	}
	if c := rep.Corpus["lint"]; c.Warnings == 0 {
		t.Error("lint check reported no corpus warnings")
	}
	if c := rep.Corpus["commute"]; c == nil || c.Errors == 0 {
		t.Error("commute check reported no corpus errors: the refutation entries are not firing")
	}
	// ISSUE acceptance floor: at least 3 verified-commutes pins and 3
	// refuted pins must hold in the corpus.
	if rep.CommutesHeld < 3 {
		t.Errorf("commutes pins held = %d, want at least 3", rep.CommutesHeld)
	}
	if rep.RefutesHeld < 3 {
		t.Errorf("refutes pins held = %d, want at least 3", rep.RefutesHeld)
	}
	// Every check family must record nonzero wall-clock time in the report.
	for _, pc := range precisionChecks {
		if rep.Corpus[pc.name].TimeMS <= 0 {
			t.Errorf("check %s recorded no corpus wall-clock time", pc.name)
		}
	}
	if !strings.Contains(out.String(), "vet precision:") {
		t.Errorf("summary output missing header:\n%s", out.String())
	}
}
