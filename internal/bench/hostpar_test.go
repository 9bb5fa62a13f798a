package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// withHostState runs fn under the given host worker count, restoring the
// package global and dropping every memo cache afterwards so tests cannot
// leak state into each other.
func withHostState(workers int, fn func()) {
	savedWorkers := HostWorkers
	HostWorkers = workers
	resetCaches()
	defer func() {
		HostWorkers = savedWorkers
		resetCaches()
	}()
	fn()
}

// TestHostParCampaignsByteIdentical: running a campaign's cells on the
// -hostpar worker pool must reproduce the sequential run exactly — the
// printed report byte for byte and the machine-readable report
// JSON-identical — because results are always replayed in submission
// order.
func TestHostParCampaignsByteIdentical(t *testing.T) {
	campaigns := []struct {
		name string
		run  func(w io.Writer) (any, error)
	}{
		{"faults", func(w io.Writer) (any, error) {
			return FaultCampaign(w, CampaignOptions{Threads: 4, Seed: 7, Smoke: true})
		}},
		{"service", func(w io.Writer) (any, error) {
			return ServiceCampaign(w, ServiceOptions{Threads: 4, Seed: 7, Smoke: true})
		}},
		{"sanitize", func(w io.Writer) (any, error) {
			return SanitizeCampaign(w, SanitizeOptions{Threads: 4, Smoke: true})
		}},
		{"steal", func(w io.Writer) (any, error) {
			return StealCampaign(w, StealOptions{Threads: 8, Seed: 1, Smoke: true})
		}},
	}
	for _, c := range campaigns {
		render := func(workers int) (text string, rep []byte) {
			withHostState(workers, func() {
				var buf bytes.Buffer
				r, err := c.run(&buf)
				if err != nil {
					t.Fatalf("%s (workers=%d) failed:\n%s%v", c.name, workers, buf.String(), err)
				}
				js, err := json.Marshal(r)
				if err != nil {
					t.Fatalf("%s: marshal report: %v", c.name, err)
				}
				text, rep = buf.String(), js
			})
			return text, rep
		}
		seqText, seqRep := render(1)
		parText, parRep := render(4)
		if seqText != parText {
			t.Errorf("%s: parallel cells changed the printed report:\n--- sequential ---\n%s--- hostpar 4 ---\n%s",
				c.name, seqText, parText)
		}
		if !bytes.Equal(seqRep, parRep) {
			t.Errorf("%s: parallel cells changed the JSON report:\n--- sequential ---\n%s\n--- hostpar 4 ---\n%s",
				c.name, seqRep, parRep)
		}
	}
}
