package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const reportsPath = "testdata/campaign_reports.txt"

// TestHostParCampaignsByteIdentical: running a campaign's cells on a host
// worker pool must reproduce the sequential run exactly — the printed
// table and the written report byte for byte — because results are always
// collected in submission order. Each report's sha256 prefix is also
// pinned in testdata/campaign_reports.txt, so a change that moves any
// campaign result fails here; refresh the pins with -update only for an
// intended change, and review which lines moved.
func TestHostParCampaignsByteIdentical(t *testing.T) {
	opts := map[string]CampaignOptions{
		"faults":   {Threads: 4, Seed: 7, Smoke: true},
		"service":  {Threads: 4, Seed: 7, Smoke: true},
		"sanitize": {Threads: 4, Smoke: true},
		"steal":    {Threads: 8, Seed: 1, Smoke: true},
	}
	dir := t.TempDir()
	ran := 0
	pins := map[string]string{}
	for _, c := range Campaigns {
		o, ok := opts[c.Name]
		if !ok {
			continue
		}
		ran++
		render := func(workers int) (text, rep string) {
			resetCaches()
			defer resetCaches()
			o.Workers = workers
			var buf bytes.Buffer
			if err := RunCampaign(&buf, dir, c, o); err != nil {
				t.Fatalf("%s (workers=%d) failed:\n%s%v", c.Name, workers, buf.String(), err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+c.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			return buf.String(), string(data)
		}
		seqText, seqRep := render(1)
		parText, parRep := render(4)
		if seqText != parText {
			t.Errorf("%s: parallel cells changed the printed report:\n--- sequential ---\n%s--- 4 workers ---\n%s",
				c.Name, seqText, parText)
		}
		if seqRep != parRep {
			t.Errorf("%s: parallel cells changed the JSON report:\n--- sequential ---\n%s\n--- 4 workers ---\n%s",
				c.Name, seqRep, parRep)
		}
		pins[c.Name] = reportDigest(seqRep)
	}
	if ran != len(opts) {
		t.Errorf("ran %d of the %d campaigns under test: Campaigns lost an entry", ran, len(opts))
	}
	checkReportPins(t, pins)
}

// reportDigest is the pinned form of a report: its sha256 prefix.
func reportDigest(rep string) string {
	h := sha256.Sum256([]byte(rep))
	return hex.EncodeToString(h[:8])
}

// checkReportPins compares each campaign's report digest in got with its
// line in testdata/campaign_reports.txt. With -update it rewrites those
// lines instead, keeping the comments and the lines of other campaigns.
func checkReportPins(t *testing.T, got map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(reportsPath))
	if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
		t.Fatalf("missing report pins (run go test ./internal/bench -run %s -update): %v", t.Name(), err)
	}
	var lines []string
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			pinned[f[0]] = f[1]
			if g, ok := got[f[0]]; ok && *update {
				line = fmt.Sprintf("%-8s %s", f[0], g)
			}
		}
		if line != "" {
			lines = append(lines, line)
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := pinned[name]
		switch {
		case *update && !ok:
			lines = append(lines, fmt.Sprintf("%-8s %s", name, got[name]))
		case !*update && want != got[name]:
			t.Errorf("campaign report %s moved from %s: pinned %q, got %s", name, reportsPath, want, got[name])
		}
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(reportsPath), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunCampaignWritesReport: RunCampaign defaults the options, writes
// the report before it returns the gate error — a failing campaign still
// leaves the BENCH_<name>.json that shows why — and writes nothing for a
// campaign that produced no report.
func TestRunCampaignWritesReport(t *testing.T) {
	type stubReport struct {
		Threads int    `json:"threads"`
		Seed    uint64 `json:"seed"`
	}
	gate := errors.New("gate violated")
	stub := func(name string, err error) Campaign {
		return Campaign{Name: name, Run: report(func(_ io.Writer, o CampaignOptions) (*stubReport, error) {
			return &stubReport{Threads: o.Threads, Seed: o.Seed}, err
		})}
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		c    Campaign
		want error
	}{
		{stub("failing", gate), gate},
		{stub("passing", nil), nil},
	} {
		var out bytes.Buffer
		if err := RunCampaign(&out, dir, tc.c, CampaignOptions{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: error = %v, want %v", tc.c.Name, err, tc.want)
		}
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+tc.c.Name+".json"))
		if err != nil {
			t.Fatalf("%s: report not written: %v", tc.c.Name, err)
		}
		var back stubReport
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: report JSON: %v", tc.c.Name, err)
		}
		if back != (stubReport{Threads: 8, Seed: 1}) {
			t.Errorf("%s: report = %+v, want the defaulted options threads 8, seed 1", tc.c.Name, back)
		}
	}

	broken := errors.New("could not compile")
	none := Campaign{Name: "broken", Run: report(func(io.Writer, CampaignOptions) (*stubReport, error) {
		return nil, broken
	})}
	if err := RunCampaign(io.Discard, dir, none, CampaignOptions{}); !errors.Is(err, broken) {
		t.Errorf("broken: error = %v, want %v", err, broken)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_broken.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("broken: a campaign without a report left a file (stat: %v)", err)
	}
}

// TestRunTwice: the determinism gate passes a cell whose rerun reproduces
// the first result, and fails one whose rerun diverges or errors.
func TestRunTwice(t *testing.T) {
	calls := 0
	drifting := func() (int, error) { calls++; return calls, nil }
	if _, err := runTwice(drifting); err == nil {
		t.Error("a rerun with a different result passed")
	}
	if got, err := runTwice(func() (int, error) { return 7, nil }); err != nil || got != 7 {
		t.Errorf("stable cell: got %d, %v", got, err)
	}
	fail := errors.New("rerun crashed")
	calls = 0
	flaky := func() (int, error) {
		calls++
		if calls > 1 {
			return 0, fail
		}
		return 1, nil
	}
	if _, err := runTwice(flaky); !errors.Is(err, fail) {
		t.Errorf("failing rerun: error = %v, want it to wrap %v", err, fail)
	}
}
