//go:build !race

package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestScheduleReportPinned renders BENCH_schedule.json once at the default
// options (the campaign has one size) and compares its sha256 prefix with
// the schedule line of testdata/campaign_reports.txt, so a change that
// moves an auto-scheduler pick or a Figure 6 speedup fails here; -update
// rewrites the line. The campaign auto-schedules every Figure 6 cell and
// takes seconds, ten times that under the race detector, so race builds
// leave this file out.
func TestScheduleReportPinned(t *testing.T) {
	var schedule Campaign
	for _, c := range Campaigns {
		if c.Name == "schedule" {
			schedule = c
		}
	}
	if schedule.Run == nil {
		t.Fatal("Campaigns has no schedule entry")
	}
	resetCaches()
	defer resetCaches()
	dir := t.TempDir()
	var out bytes.Buffer
	if err := RunCampaign(&out, dir, schedule, CampaignOptions{}); err != nil {
		t.Fatalf("schedule campaign failed:\n%s%v", out.String(), err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_schedule.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkReportPins(t, map[string]string{"schedule": reportDigest(string(data))})
}
