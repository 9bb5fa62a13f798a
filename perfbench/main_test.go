package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func smokeRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 0.001, trace: trace, setups: 1, log: io.Discard})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkNames(t *testing.T, what string, res *result, want []string) {
	t.Helper()
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%s: emits %d metrics %v, BENCHMARK.json declares %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emits %q where BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// TestSmoke runs every workload on a tiny budget, untraced and traced: each
// must emit exactly the metrics BENCHMARK.json names with no failed op, and
// the deterministic speedup geomean must not depend on the seed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for name := range suites {
		name := name
		t.Run(name, func(t *testing.T) {
			checkNames(t, name+" untraced", smokeRun(t, name, 1, false), endToEnd)
			traced := smokeRun(t, name, 1, true)
			checkNames(t, name+" traced", traced, perLayer)
			if u := traced.Metrics["trace.unattributed_share"].Value; u > 0.10 {
				t.Errorf("trace.unattributed_share %.3f > 0.10", u)
			}
			other := smokeRun(t, name, 2, true)
			a, b := traced.Metrics["sim.speedup_geomean"].Value, other.Metrics["sim.speedup_geomean"].Value
			if a != b {
				t.Errorf("sim.speedup_geomean %v with seed 1, %v with seed 2", a, b)
			}
			if name != "toolchain" && a <= 1 {
				t.Errorf("sim.speedup_geomean %v, want > 1", a)
			}
		})
	}
}

// TestDESKernelEvents pins the kernel's event count and checks it
// completes without a stall.
func TestDESKernelEvents(t *testing.T) {
	events, err := desKernel(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if events != 240 {
		t.Fatalf("events = %d, want 240", events)
	}
}
