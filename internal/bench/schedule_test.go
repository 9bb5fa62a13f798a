//go:build !race

package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The report pins of this file render a campaign at its default options
// (8 threads, seed 1, full size), which takes seconds, ten times that
// under the race detector, so race builds leave this file out.

// TestScheduleReportPinned renders BENCH_schedule.json once at the default
// options (the campaign has one size) and compares its sha256 prefix with
// the schedule line of testdata/campaign_reports.txt, so a change that
// moves an auto-scheduler pick or a Figure 6 speedup fails here; -update
// rewrites the line.
func TestScheduleReportPinned(t *testing.T) {
	checkReportPins(t, map[string]string{"schedule": renderDefault(t, "schedule")})
}

// TestSanitizeReportPinned renders the full-size BENCH_sanitize.json at the
// default 8 threads — every variant of every workload, including the geti
// and 456.hmmer cells whose detect and replay passes do the most work —
// and compares its sha256 prefix with the sanitize-full line of
// testdata/campaign_reports.txt; the smoke report keeps its own pin in
// TestHostParCampaignsByteIdentical.
func TestSanitizeReportPinned(t *testing.T) {
	checkReportPins(t, map[string]string{"sanitize-full": renderDefault(t, "sanitize")})
}

// renderDefault runs the named campaign at the default options with cold
// caches and returns its report's digest.
func renderDefault(t *testing.T, name string) string {
	t.Helper()
	var c Campaign
	for _, e := range Campaigns {
		if e.Name == name {
			c = e
		}
	}
	if c.Run == nil {
		t.Fatalf("Campaigns has no %s entry", name)
	}
	resetCaches()
	defer resetCaches()
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunCampaign(&out, dir, c, CampaignOptions{}); err != nil {
		t.Fatalf("%s campaign failed:\n%s%v", name, out.String(), err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return reportDigest(string(data))
}
