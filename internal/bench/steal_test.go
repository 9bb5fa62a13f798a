package bench

import (
	"bytes"
	"testing"
)

// TestStealCampaignSmoke runs the CI-sized steal campaign: every cell must
// validate against the sequential reference, steal-enabled cells must
// replay bit-identically, and the acceptance gate must hold — under a ≥4x
// whole-loop straggler, steal-enabled DOALL finishes in ≤60% of the
// steal-disabled virtual time on at least three workloads.
func TestStealCampaignSmoke(t *testing.T) {
	var buf bytes.Buffer
	rep, err := StealCampaign(&buf, CampaignOptions{Threads: 8, Seed: 1, Smoke: true})
	if err != nil {
		t.Fatalf("campaign failed:\n%s%v", buf.String(), err)
	}
	sum := rep.Summary
	if sum.Runs == 0 {
		t.Fatal("campaign executed no runs")
	}
	if sum.Violations != 0 {
		t.Errorf("campaign recorded %d violations", sum.Violations)
	}
	if sum.Steals == 0 {
		t.Error("no cell granted a steal")
	}
	if sum.StragglerWins < 3 {
		t.Errorf("straggler gate: %d workloads at ≤0.60, want >= 3", sum.StragglerWins)
	}
	for _, c := range rep.Cells {
		if c.Plan == "none" && !c.Steal && c.Steals != 0 {
			t.Errorf("%s: steal-disabled cell granted %d steals", c.Workload, c.Steals)
		}
	}
}
