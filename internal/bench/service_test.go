package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/transform"
)

// TestServiceCampaignSmoke runs the CI-sized service campaign end to end:
// both services × all three transforms, the overload ladder walk, the crash
// scenarios, and the rate ladder, with every invariant the campaign enforces
// (zero silent drops, subset-consistent output, bit-for-bit determinism).
func TestServiceCampaignSmoke(t *testing.T) {
	var buf bytes.Buffer
	rep, err := ServiceCampaign(&buf, CampaignOptions{Threads: 8, Seed: 1, Smoke: true})
	if err != nil {
		t.Fatalf("service campaign: %v\n%s", err, buf.String())
	}
	if rep.Summary.Violations != 0 {
		t.Fatalf("campaign reported %d violations:\n%s", rep.Summary.Violations, buf.String())
	}
	if rep.Summary.MaxLevel < 2 {
		t.Errorf("degradation ladder high-water %d, want ≥ 2", rep.Summary.MaxLevel)
	}
	if rep.Summary.FellBack < 1 {
		t.Error("no scenario degraded to the sequential service fallback")
	}
	if rep.Summary.Restarts < 1 {
		t.Error("no scenario restarted a crashed service worker")
	}
	// Coverage: both services × all three transforms.
	kinds := []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP}
	for _, svcName := range []string{"url-service", "md5sum-service"} {
		for _, kind := range kinds {
			found := false
			for _, c := range rep.Cells {
				if c.Service == svcName && c.Kind == kind.String() {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no cell covers %s × %v", svcName, kind)
			}
		}
	}
	// The deterministic scenarios must be present and marked.
	det := 0
	for _, c := range rep.Cells {
		if c.Deterministic {
			det++
		}
	}
	if det < 4 {
		t.Errorf("%d deterministic (rerun-compared) cells, want ≥ 4", det)
	}
	if len(rep.RateLadder) == 0 {
		t.Error("rate ladder is empty")
	}
	if !strings.Contains(buf.String(), "sustainable") {
		t.Error("campaign output lacks the sustainable-rate line")
	}
}
