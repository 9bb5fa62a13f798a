package sanitize_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/sanitize"
	"repro/internal/workloads"
)

// writeInvocation renders everything a monitor recorded of one member
// invocation, its pre-state snapshot included.
func writeInvocation(w io.Writer, inv *sanitize.Invocation) {
	fmt.Fprintf(w, "%d %s %v args=%v argslots=%v outslots=%v rets=%v err=%q\n",
		inv.Gseq, inv.Fn, inv.Sets, inv.Args, inv.ArgSlots, inv.OutSlots, inv.Rets, inv.Err)
	if p := inv.Pre; p != nil {
		fmt.Fprintf(w, "  heap=%v cells=%v base=%+v\n  world=%v\n",
			p.Heap, p.Cells, p.Base, p.World.ObservableState(p.Base))
	}
}

// TestCaptureAndVerifyAllRecordings pins what the capture and VerifyAll
// monitors record on md5sum, geti and 456.hmmer — every invocation with
// its arguments, slot wiring, results and pre-state snapshot, and every
// verdict — by the sha256 prefix of its rendering. These monitors run no
// race engine, so they report no races and no candidates.
func TestCaptureAndVerifyAllRecordings(t *testing.T) {
	want := map[string]string{
		"md5sum":    "ffc84e3d3c2e32d7",
		"geti":      "09530a7483c01423",
		"456.hmmer": "f0d61c7704ee79a8",
	}
	for name, pin := range want {
		h := sha256.New()
		wl := workloads.ByName(name)
		recordedRuns(t, wl, wl.Variants[0].Name, func(label string, mon *sanitize.Monitor, verdicts []sanitize.PairVerdict) {
			fmt.Fprintf(h, "== %s\n", label)
			for _, inv := range sanitize.Invocations(mon) {
				writeInvocation(h, inv)
			}
			for _, v := range verdicts {
				fmt.Fprintf(h, "%+v\n", v)
			}
			if len(mon.Races()) != 0 || len(mon.Candidates()) != 0 {
				t.Errorf("%s %s: %d races and %d candidates, want none", name, label, len(mon.Races()), len(mon.Candidates()))
			}
		})
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != pin {
			t.Errorf("%s: recordings digest %s, pinned %s", name, got, pin)
		}
	}
}
