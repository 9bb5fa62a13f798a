package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/builtins"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the pinned testdata files (golden_vtimes.txt, campaign_reports.txt) of the tests that run")

const goldenPath = "testdata/golden_vtimes.txt"

// goldenThreads are the thread counts the golden table pins.
var goldenThreads = []int{4, 8}

// digest is a short content hash of sorted lines.
func digest(lines []string) string {
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:8])
}

// stateDigest hashes a final world's observable state, quotiented the way
// the commute oracle compares worlds (see World.ObservableState).
func stateDigest(w *builtins.World, base builtins.Baseline) string {
	var lines []string
	for k, v := range w.ObservableState(base) {
		lines = append(lines, k+"="+v)
	}
	return digest(lines)
}

// weightsDigest hashes a profile's per-instruction weights.
func weightsDigest(weights map[int]int64) string {
	var lines []string
	for id, c := range weights {
		lines = append(lines, fmt.Sprintf("%d:%d", id, c))
	}
	return digest(lines)
}

// goldenTable renders one row per program (workload × variant, including
// the pragma-stripped noannot baseline) with its profile total, weights
// digest, sequential virtual time and final-state digest, then one row per
// thread count × applicable schedule kind × sync mode with the parallel
// run's virtual time and final-state digest. Every run bypasses the
// bench-level memos, so the table pins what the simulator computes.
func goldenTable(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "# %-9s %-7s %-7s %-8s %-5s %12s %s\n", "workload", "variant", "threads", "kind", "sync", "vtime", "state")
	row := func(wl, variant, threads, kind, sync string, vtime int64, rest string) {
		fmt.Fprintf(&b, "%-11s %-7s %-7s %-8s %-5s %12d %s\n", wl, variant, threads, kind, sync, vtime, rest)
	}
	for _, wl := range workloads.All() {
		base := freshWorld(wl).Baseline()
		variants := []string{}
		for _, v := range wl.Variants {
			variants = append(variants, v.Name)
		}
		for _, variant := range append(variants, "noannot") {
			for i, threads := range goldenThreads {
				cp, err := compileUncached(wl, variant, threads)
				if err != nil {
					t.Fatalf("compile %s/%s: %v", wl.Name, variant, err)
				}
				if i == 0 {
					row(wl.Name, variant, "-", "profile", "-", cp.Prof.Total, "weights="+weightsDigest(cp.Prof.Weights))
					row(wl.Name, variant, "1", "seq", "-", cp.SeqCost, stateDigest(cp.SeqWorld, base))
				}
				for _, kind := range parallelKinds {
					if cp.Schedule(kind) == nil {
						continue
					}
					for _, mode := range wl.Syncs() {
						m, err := cp.runUncached(kind, mode, threads, false)
						if err != nil {
							t.Fatalf("run %s/%s %v/%v/%d: %v", wl.Name, variant, kind, mode, threads, err)
						}
						row(wl.Name, variant, fmt.Sprint(threads), kind.String(), mode.String(), m.VirtualTime, stateDigest(m.World, base))
					}
				}
			}
		}
	}
	return b.String()
}

// checkGoldenTable compares got against the committed table, reporting
// each drifted row.
func checkGoldenTable(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("missing golden table (run go test ./internal/bench -run TestGoldenVTimes -update): %v", err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wl) != len(gl) {
		t.Errorf("golden table has %d rows, run produced %d", len(wl), len(gl))
	}
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("row %d drifted:\n  want %s\n  got  %s", i+1, wl[i], gl[i])
		}
	}
}

// TestGoldenVTimes pins the paper's results as exact virtual times: every
// workload × variant × thread count × schedule kind × sync mode, plus each
// program's profile and sequential baseline, must reproduce the committed
// table bit-for-bit.
func TestGoldenVTimes(t *testing.T) {
	got := goldenTable(t)
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGoldenTable(t, got)
}
