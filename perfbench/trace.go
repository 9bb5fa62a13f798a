package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// span is one timed call into a layer, recorded by the traced run. Spans
// nest: a span's parent is the span that was open when it began, and an
// op's root span (named "op") has parent -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the traced run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Cost is the sequential virtual cost the span simulates (exec spans
	// only): the denominator of the ns-per-kcost figures.
	Cost int64 `json:"cost,omitempty"`
	// BuiltinNs and BuiltinCalls fold the builtin calls made while this
	// span was the innermost open one. Recording each call as its own span
	// would mean millions of spans per run.
	BuiltinNs    int64 `json:"builtin_ns,omitempty"`
	BuiltinCalls int64 `json:"builtin_calls,omitempty"`

	childNs int64
}

// self is the span's duration minus the time its child spans and folded
// builtin calls cover.
func (s *span) self() int64 { return s.End - s.Start - s.childNs - s.BuiltinNs }

// tracer records spans and counts around the benchmark's calls into each
// layer. A tracer that is off records nothing and wraps nothing, so the
// untraced run pays one branch per layer call.
type tracer struct {
	on     bool
	epoch  time.Time
	op     int
	spans  []span
	stack  []int
	counts map[string]int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string) int { return t.beginCost(name, 0) }

// beginCost opens a span that simulates cost units of sequential work.
func (t *tracer) beginCost(name string, cost int64) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Cost: cost, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close in reverse order.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].childNs += s.End - s.Start
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// count adds n to a per-layer counter.
func (t *tracer) count(name string, n int64) {
	if t.on {
		t.counts[name] += n
	}
}

// countExec records the resilience counters of one execution.
func (t *tracer) countExec(r *exec.Result) {
	if !t.on || r == nil {
		return
	}
	t.counts["exec.steals"] += int64(r.Steals)
	t.counts["exec.restarts"] += int64(r.Restarts)
	t.counts["exec.call_retries"] += int64(r.CallRetries)
	t.counts["exec.iter_retries"] += int64(r.IterRetries)
	for _, rr := range r.RestartHistory {
		t.counts["exec.replayed"] += rr.Replayed
	}
}

// wrap times every builtin call made through the returned map, folding the
// time into the innermost open span. The simulator serializes its threads,
// so calls never overlap.
func (t *tracer) wrap(fns map[string]interp.BuiltinFn) map[string]interp.BuiltinFn {
	if !t.on {
		return fns
	}
	out := make(map[string]interp.BuiltinFn, len(fns))
	for name, fn := range fns {
		fn := fn
		out[name] = func(args []value.Value) (value.Value, int64, error) {
			start := time.Now()
			v, c, err := fn(args)
			d := int64(time.Since(start))
			if n := len(t.stack); n > 0 {
				s := &t.spans[t.stack[n-1]]
				s.BuiltinNs += d
				s.BuiltinCalls++
			}
			return v, c, err
		}
	}
	return out
}

// layerTotals is the traced run reduced to per-layer sums.
type layerTotals struct {
	ops      int
	opNs     int64 // root-span time of every traced op
	selfNs   map[string]int64
	costNs   map[string]int64 // self time of exec spans, by span name
	cost     map[string]int64 // simulated cost of exec spans, by span name
	builtins int64            // builtin calls
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{selfNs: map[string]int64{}, costNs: map[string]int64{}, cost: map[string]int64{}}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 {
			lt.ops++
			lt.opNs += s.End - s.Start
		}
		lt.selfNs[s.Name] += s.self()
		lt.selfNs["builtins"] += s.BuiltinNs
		lt.builtins += s.BuiltinCalls
		if s.Cost > 0 {
			lt.costNs[s.Name] += s.self()
			lt.cost[s.Name] += s.Cost
		}
	}
	return lt
}

// nsPerKcost is the non-builtin host time per 1000 simulated cost units of
// the named exec spans (0 when there are none).
func (lt layerTotals) nsPerKcost(names ...string) float64 {
	var ns, cost int64
	for _, n := range names {
		ns += lt.costNs[n]
		cost += lt.cost[n]
	}
	if cost == 0 {
		return 0
	}
	return float64(ns) / (float64(cost) / 1000)
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
