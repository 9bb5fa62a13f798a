package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestVetWorkloadsClean: the shipped workload variants must pass the
// commsetvet -werror gate — zero diagnostics of any severity.
func TestVetWorkloadsClean(t *testing.T) {
	var buf bytes.Buffer
	if err := VetWorkloads(&buf, 4); err != nil {
		t.Fatalf("vet gate failed:\n%s%v", buf.String(), err)
	}
	if !strings.Contains(buf.String(), "variants clean") {
		t.Errorf("unexpected gate output: %q", buf.String())
	}
}

// TestSmokeCampaign runs the CI-sized fault campaign: every recoverable
// plan must end sequential-equivalent, every permanent plan diagnosed.
func TestSmokeCampaign(t *testing.T) {
	var buf bytes.Buffer
	rep, err := FaultCampaign(&buf, CampaignOptions{Threads: 4, Seed: 1, Smoke: true})
	if err != nil {
		t.Fatalf("campaign failed:\n%s%v", buf.String(), err)
	}
	sum := rep.Summary
	if sum.Runs == 0 {
		t.Fatal("campaign executed no runs")
	}
	if sum.Recovered == 0 {
		t.Errorf("no run exercised recovery: %+v", sum)
	}
	if sum.Diagnosed == 0 {
		t.Errorf("no permanent fault was diagnosed: %+v", sum)
	}
	if sum.Restarts == 0 {
		t.Errorf("no crash plan exercised a supervisor restart: %+v", sum)
	}
	if sum.Repartitioned == 0 {
		t.Errorf("no permanent crash exercised DOALL re-partitioning: %+v", sum)
	}
}
