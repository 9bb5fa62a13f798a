package bench

import (
	"fmt"
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
// failures degrade to inconclusive, never to false alarms). The first FSET
// pairs of mdfile$READB and main$r3 with main$r1 cannot replay (the later
// call uses an fd opened after the snapshot, or both calls are one
// iteration), so they verify only at a later anchor.
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
	for _, want := range [][2]string{{"mdfile$READB", "main$r1"}, {"main$r3", "main$r1"}} {
		found := false
		for _, p := range cell.Pairs {
			if p.Set == "FSET" && ((p.FnA == want[0] && p.FnB == want[1]) || (p.FnA == want[1] && p.FnB == want[0])) {
				found = true
				if p.Verdict != sanitize.VerdictVerified {
					t.Errorf("FSET %s/%s: %s (%s), want verified", want[0], want[1], p.Verdict, p.Note)
				}
			}
		}
		if !found {
			t.Errorf("no FSET %s/%s pair among %+v", want[0], want[1], cell.Pairs)
		}
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

// sharedLocalSrc is a loop whose member region updates a loop-local
// accumulator through a recursive helper, so the static commute check
// cannot decide and the sanitizer decides. acc is read and written back
// by the region, so a parallel schedule promotes it to a shared cell.
func sharedLocalSrc(update string) string {
	return fmt.Sprintf(`#pragma commset decl self RSET

int spin(int n) {
	if (n > 0) {
		return spin(n - 1);
	}
	return n;
}

void main() {
	int acc = 1;
	for (int i = 0; i < 6; i++) {
		#pragma commset member RSET
		{
			%s
		}
	}
	print_int(acc);
}
`, update)
}

const (
	// sharedLocalLie does not commute with its own instances.
	sharedLocalLie = "acc = acc * 3 + spin(i) + i;"
	// sharedLocalTruth does.
	sharedLocalTruth = "acc = acc + spin(i) + i;"
)

// sharedLocalReaderSrc adds a second member of a group set that only
// prints the accumulator the first member updates, in a loop from start:
// the pair does not commute, though the first iteration's pair does when
// start is 0 (the updater adds 0).
func sharedLocalReaderSrc(start int) string {
	return fmt.Sprintf(`#pragma commset decl GSET

int spin(int n) {
	if (n > 0) {
		return spin(n - 1);
	}
	return n;
}

void main() {
	int acc = 1;
	for (int i = %d; i < 6; i++) {
		#pragma commset member GSET
		{
			acc = acc + spin(i) + i;
		}
		#pragma commset member GSET
		{
			print_int(acc);
		}
	}
}
`, start)
}

// TestVerifyAllThreadsSharedLocals: sequential VerifyAll replays a member
// region's loop-local accumulator through both orders as the shared cell
// a parallel schedule makes of it, instead of from each invocation's own
// recorded argument. The lie is refuted on the cell, the truthful update
// verified, and the printing group member refuted against the updater,
// also when its first pair commutes by accident and a later anchor
// refutes it.
func TestVerifyAllThreadsSharedLocals(t *testing.T) {
	for _, tc := range []struct {
		name, src, verdict, diff string
	}{
		{"shared_local_lie", sharedLocalSrc(sharedLocalLie), sanitize.VerdictViolation, "shared cell:0: A;B=int:10 B;A=int:12"},
		{"shared_local_truth", sharedLocalSrc(sharedLocalTruth), sanitize.VerdictVerified, ""},
		{"shared_local_reader", sharedLocalReaderSrc(1), sanitize.VerdictViolation, "world io.console: A;B=2 B;A=1"},
		{"shared_local_reader_from_0", sharedLocalReaderSrc(0), sanitize.VerdictViolation, "world io.console: A;B=1 B;A=2"},
	} {
		pairs, err := VerifyAllSource(tc.name+".mc", tc.src, func(sanitize.Candidate) string { return "" })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(pairs) != 1 || pairs[0].Verdict != tc.verdict || pairs[0].Diff != tc.diff {
			t.Errorf("%s: pairs = %+v, want one %s pair with diff %q", tc.name, pairs, tc.verdict, tc.diff)
		}
	}
}

// sharedLocalCell runs one shared-local program through detect, capture
// and replay at 4 threads under Mutex.
func sharedLocalCell(t *testing.T, name, update string, kind transform.Kind) *SanitizeCell {
	t.Helper()
	cp, err := Compile(workloads.FromSource(name+".mc", sharedLocalSrc(update)), "comm", 4)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := sanitizedCell(cp, kind, exec.SyncMutex, 4, func(sanitize.Candidate) string { return "" })
	if err != nil {
		t.Fatalf("%s %v: %v", name, kind, err)
	}
	return cell
}

// TestSanitizeReplayComparesSharedCells: under DOALL and PS-DSWP a
// member's returns written back to a shared cell are the cell's
// intermediate values, which differ between the orders even when the
// updates commute, so the replay compares the cell instead: the truthful
// accumulator is verified and the lie refuted.
func TestSanitizeReplayComparesSharedCells(t *testing.T) {
	for _, kind := range []transform.Kind{transform.DOALL, transform.PSDSWP} {
		for _, tc := range []struct {
			name, update string
			violations   int
		}{
			{"shared_local_truth", sharedLocalTruth, 0},
			{"shared_local_lie", sharedLocalLie, 1},
		} {
			cell := sharedLocalCell(t, tc.name, tc.update, kind)
			if cell.Candidates != 1 || cell.Violations != tc.violations || cell.Verified != 1-tc.violations {
				t.Errorf("%s %v: candidates %d verified %d violations %d, want 1 candidate with %d violation(s): %+v",
					tc.name, kind, cell.Candidates, cell.Verified, cell.Violations, tc.violations, cell.Pairs)
			}
		}
	}
}

// TestSanitizeDetectSkipsRereadArgument: the stepper's load of a shared
// cell into a member call's argument is discarded, since the call
// re-reads the cell under its locks, so detect reports no race on the
// truthful accumulator under DOALL and PS-DSWP.
func TestSanitizeDetectSkipsRereadArgument(t *testing.T) {
	for _, kind := range []transform.Kind{transform.DOALL, transform.PSDSWP} {
		if cell := sharedLocalCell(t, "shared_local_truth", sharedLocalTruth, kind); len(cell.Races) != 0 {
			t.Errorf("%v: races %+v, want none", kind, cell.Races)
		}
	}
}

// BenchmarkSanitizedCell times the sanitizer layer. On md5sum: one
// parallel cell (detect, capture, both-order replay of its oracle
// candidates) and one sequential VerifyAll run. On geti DOALL/Mutex at 8
// threads, the cell whose shadow memory works hardest: its detect pass
// alone (geti-doall) next to the same cell's plain run (geti-plain), so
// one run gives the detect/plain ratio. On 456.hmmer PS-DSWP/Mutex at 8
// threads, the cell whose replays work hardest (~200 live matrices at its
// late candidate): the whole detect → capture → replay cell. The plain
// runs a cell compares against are memoized, so they are warmed first;
// the substrate memos are reset outside the timer, so every iteration's
// runs start cold.
func BenchmarkSanitizedCell(b *testing.B) {
	md5, err := Compile(workloads.Md5sum(), "comm", 4)
	if err != nil {
		b.Fatal(err)
	}
	geti, err := Compile(workloads.ByName("geti"), "comm", 8)
	if err != nil {
		b.Fatal(err)
	}
	hmmer, err := Compile(workloads.ByName("456.hmmer"), "comm", 8)
	if err != nil {
		b.Fatal(err)
	}
	cell := func(cp *Compiled, kind transform.Kind, mode exec.SyncMode, threads int) func(b *testing.B) {
		if kind != transform.Sequential {
			if _, err := cp.Run(kind, mode, threads); err != nil {
				b.Fatal(err)
			}
		}
		return func(b *testing.B) {
			cell, err := SanitizeRun(cp, kind, mode, threads)
			if err != nil {
				b.Fatal(err)
			}
			if !cell.Clean || !cell.VTimeMatch {
				b.Fatalf("cell not clean: %+v", cell)
			}
		}
	}
	run := func(cp *Compiled, detect bool) func(b *testing.B) {
		return func(b *testing.B) {
			w := freshWorld(cp.WL)
			var mon *sanitize.Monitor
			if detect {
				mon = sanitize.New(sanitize.Detect, cp.C.Low.Prog, w)
			}
			if _, err := sanitizedRun(cp, transform.DOALL, exec.SyncMutex, 8, mon, w); err != nil {
				b.Fatal(err)
			}
			if len(mon.Races()) > 0 {
				b.Fatalf("races: %+v", mon.Races())
			}
		}
	}
	for _, c := range []struct {
		name string
		op   func(b *testing.B)
	}{
		{"doall", cell(md5, transform.DOALL, exec.SyncSpin, 4)},
		{"seq", cell(md5, transform.Sequential, 0, 1)},
		{"geti-doall", run(geti, true)},
		{"geti-plain", run(geti, false)},
		{"hmmer-psdswp", cell(hmmer, transform.PSDSWP, exec.SyncMutex, 8)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				builtins.ResetFastCaches()
				b.StartTimer()
				c.op(b)
			}
		})
	}
}
