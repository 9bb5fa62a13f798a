// Command perfbench is the repository's host-time benchmark. It measures,
// from outside the program, how fast the COMMSET toolchain and simulator
// do their work, and checks every operation's output while doing so.
//
// One client issues one op at a time from a single process (a closed loop).
// A run sets the chosen workload up several times (the median is setup_s),
// warms up with full untimed passes over its ops, then runs passes in a
// seed-permuted order until the time budget is spent. Every op starts from
// cold builtin memo caches and a fresh substrate world, so memoization
// across ops never counts as speed. Virtual time stays an exact gate: every
// op's virtual time must equal its first execution in the process.
//
// With -trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with -trace 1 it carries the per-layer metrics of a
// traced run instead (see README.md). Any failed op makes the run exit 1.
//
//	go run . -workload sim-sync -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/builtins"
)

// op is one closed-loop operation of a workload.
type op struct {
	key string
	// cost is the sequential virtual cost the op simulates (0 when nothing
	// executes).
	cost int64
	// speedup marks fault-free parallel cells, whose sequential-to-cell
	// virtual time ratio enters sim.speedup_geomean.
	speedup bool
	// run performs the op, checks its output, and returns its virtual time
	// (0 when nothing executes).
	run func(tr *tracer) (int64, error)

	seen    bool
	firstVT int64
}

// suite is a workload's set-up result: its ops and, for workloads without
// sequential ops, the sequential runs that calibrate exec.seq.ns_per_kcost
// in a traced run.
type suite struct {
	ops   []*op
	calib []*op
}

func (s *suite) add(o *op) {
	if o != nil {
		s.ops = append(s.ops, o)
	}
}

// off is the disabled tracer the untraced paths use.
var off = newTracer(false)

var suites = map[string]func(seed int64) (*suite, error){
	"toolchain":     toolchain,
	"sim-compute":   simCompute,
	"sim-sync":      simSync,
	"sim-resilient": simResilient,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// Set-up repeats at least setups times and for at least setupSeconds;
	// setup_s is the median.
	setups       int
	setupSeconds float64
	warmup       int    // untimed full passes before measuring
	out          string // directory for the traced run's span file ("" writes none)
	log          io.Writer
}

func main() {
	cfg := config{setups: 7, setupSeconds: 1, warmup: 2, log: os.Stderr}
	flag.StringVar(&cfg.workload, "workload", "", "workload: toolchain, sim-compute, sim-sync or sim-resilient")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the op order and the fault plans")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runner issues ops one at a time and tallies their outcomes.
type runner struct {
	rng       *rand.Rand
	attempted int
	failed    int
	opID      int
	log       io.Writer
}

// runOp runs one op from cold memo caches and returns its host time.
func (r *runner) runOp(o *op, tr *tracer) time.Duration {
	builtins.ResetFastCaches()
	r.opID++
	if tr.on {
		tr.op = r.opID
	}
	root := tr.begin("op")
	start := time.Now()
	vt, err := o.run(tr)
	d := time.Since(start)
	tr.end(root)
	r.attempted++
	if err == nil {
		if !o.seen {
			o.seen, o.firstVT = true, vt
		} else if vt != o.firstVT {
			err = fmt.Errorf("virtual time %d, first execution %d", vt, o.firstVT)
		}
	}
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(r.log, "perfbench: op %s failed: %v\n", o.key, err)
		}
	}
	return d
}

// passStats accumulates the measured passes, indexed like the suite's ops:
// each op's host times and the GC heap goal sampled after it.
type passStats struct {
	times [][]float64 // seconds
	goals [][]float64 // bytes
	ops   int
}

func newPassStats(n int) *passStats {
	return &passStats{times: make([][]float64, n), goals: make([][]float64, n)}
}

// opMedians is each op's median host time over the measured passes. A
// preempted host stretches a few samples of an op, not most of them, so
// the timing metrics are built from these medians.
func (st *passStats) opMedians() []float64 { return medians(st.times) }

// pass runs every op once in a seed-permuted order.
func (r *runner) pass(ops []*op, tr *tracer, st *passStats) {
	for _, i := range r.rng.Perm(len(ops)) {
		d := r.runOp(ops[i], tr)
		if st != nil {
			st.times[i] = append(st.times[i], d.Seconds())
			st.goals[i] = append(st.goals[i], float64(heapGoal()))
			st.ops++
		}
	}
}

func run(cfg config) (*result, error) {
	build := suites[cfg.workload]
	if build == nil {
		return nil, fmt.Errorf("unknown workload %q (want toolchain, sim-compute, sim-sync or sim-resilient)", cfg.workload)
	}
	var s *suite
	var setups []float64
	for total := 0.0; len(setups) < max(cfg.setups, 1) || total < cfg.setupSeconds; {
		builtins.ResetFastCaches()
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = build(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	r := &runner{rng: rand.New(rand.NewSource(cfg.seed)), log: cfg.log}
	for i := 0; i < cfg.warmup; i++ {
		r.pass(s.ops, off, nil)
	}
	fmt.Fprintf(cfg.log, "perfbench: %s seed %d: %d ops per pass, set-up %.3fs\n",
		cfg.workload, cfg.seed, len(s.ops), median(setups))

	budget := time.Duration(cfg.seconds * float64(time.Second))
	plain := newPassStats(len(s.ops))
	tr := newTracer(cfg.trace)
	rt0 := readRuntime()
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start) < budget; passes++ {
		r.pass(s.ops, off, plain)
		if cfg.trace {
			r.pass(s.ops, tr, nil)
		}
	}
	rt1 := readRuntime()

	res := &result{Metrics: map[string]metric{}}
	var err error
	if cfg.trace {
		err = r.layerMetrics(s, tr, plain, rt0, rt1, res.Metrics)
	} else {
		endToEnd(setups, plain, rt0, rt1, res.Metrics)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	if cfg.trace && cfg.out != "" {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	}
	return res, nil
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(setups []float64, st *passStats, rt0, rt1 rtSnap, m map[string]metric) {
	times := st.opMedians()
	sort.Float64s(times)
	m["setup_s"] = metric{median(setups), "s"}
	m["ops_per_s"] = metric{float64(len(times)) / sum(times), "1/s"}
	m["op_p50_ms"] = metric{quantile(times, 0.50) * 1e3, "ms"}
	m["op_p99_ms"] = metric{quantile(times, 0.99) * 1e3, "ms"}
	m["alloc_kb_per_op"] = metric{float64(rt1.allocBytes-rt0.allocBytes) / float64(st.ops) / 1024, "KiB"}
	m["peak_heap_mb"] = metric{slices.Max(medians(st.goals)) / (1 << 20), "MiB"}
}

// timedLayers are the span names whose self time the traced run reports
// as <layer>.ms (<layer>_ms for the harness layers) and <layer>.share.
var timedLayers = []string{
	"lexer", "parser", "types", "lower", "commset", "effects", "pdg", "transform",
	"analysis.unsound", "analysis.race", "analysis.lint", "analysis.commute", "sanitize",
	"profile", "exec.seq", "exec.doall", "exec.dswp", "exec.psdswp", "builtins",
	"workloads.setup", "workloads.validate",
}

// perOpCounts are tracer counters reported as means per traced op.
var perOpCounts = []string{
	"lexer.tokens", "lower.ir_instrs", "pdg.edges", "pdg.relaxed_edges",
	"transform.schedules", "analysis.diags", "sanitize.candidates",
	"exec.steals", "exec.restarts", "exec.replayed", "exec.call_retries", "exec.iter_retries",
}

// layerMetrics fills the per-layer metrics of a traced run.
func (r *runner) layerMetrics(s *suite, tr *tracer, plain *passStats, rt0, rt1 rtSnap, m map[string]metric) error {
	lt := tr.totals()
	ops := float64(lt.ops)
	for _, l := range timedLayers {
		ms := l + ".ms"
		if strings.HasPrefix(l, "workloads.") {
			ms = l + "_ms"
		}
		m[ms] = metric{float64(lt.selfNs[l]) / ops / 1e6, "ms"}
		m[l+".share"] = metric{ratio(float64(lt.selfNs[l]), float64(lt.opNs)), "ratio"}
	}
	for _, name := range perOpCounts {
		m[name] = metric{float64(tr.counts[name]) / ops, "1/op"}
	}
	m["builtins.calls"] = metric{float64(lt.builtins) / ops, "1/op"}
	m["sanitize.verified_ratio"] = metric{ratio(float64(tr.counts["sanitize.verified"]), float64(tr.counts["sanitize.pairs"])), "ratio"}
	m["exec.call_retry_ratio"] = metric{ratio(float64(tr.counts["exec.call_retries"]), float64(lt.builtins)), "ratio"}

	seqNs := lt.nsPerKcost("exec.seq")
	if len(s.calib) > 0 {
		cal := newTracer(true)
		for i := 0; i < 3; i++ {
			r.pass(s.calib, cal, nil)
		}
		seqNs = cal.totals().nsPerKcost("exec.seq")
	}
	parNs := lt.nsPerKcost("exec.doall", "exec.dswp", "exec.psdswp")
	m["exec.seq.ns_per_kcost"] = metric{seqNs, "ns"}
	m["exec.par.ns_per_kcost"] = metric{parNs, "ns"}
	m["exec.par_overhead"] = metric{ratio(parNs, seqNs), "ratio"}
	desNs, err := desNsPerEvent(15)
	if err != nil {
		return err
	}
	m["des.ns_per_event"] = metric{desNs, "ns"}

	m["goruntime.gc_cpu_share"] = metric{ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"}
	m["goruntime.gc_cycles"] = metric{float64(rt1.gcCycles-rt0.gcCycles) / float64(plain.ops+lt.ops), "1/op"}
	m["goruntime.sched_latency_p50_us"] = metric{schedQuantile(rt0, rt1, 0.50) * 1e6, "us"}
	m["goruntime.sched_latency_p99_us"] = metric{schedQuantile(rt0, rt1, 0.99) * 1e6, "us"}

	var plainNs float64
	for _, t := range plain.times {
		plainNs += sum(t) * 1e9
	}
	m["trace.overhead"] = metric{float64(lt.opNs)/ops/(plainNs/float64(plain.ops)) - 1, "ratio"}
	m["trace.unattributed_share"] = metric{ratio(float64(lt.selfNs["op"]), float64(lt.opNs)), "ratio"}

	var cost float64
	for _, o := range s.ops {
		cost += float64(o.cost)
	}
	m["sim.mcost_per_s"] = metric{cost / 1e6 / sum(plain.opMedians()), "Mcost/s"}
	m["sim.speedup_geomean"] = metric{speedupGeomean(s.ops), "x"}
	return nil
}

// speedupGeomean is the geometric mean of sequential over cell virtual
// time across the suite's fault-free parallel cells (0 when it has none).
func speedupGeomean(ops []*op) float64 {
	var logs float64
	n := 0
	for _, o := range ops {
		if o.speedup && o.seen && o.firstVT > 0 {
			logs += math.Log(float64(o.cost) / float64(o.firstVT))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func medians(xss [][]float64) []float64 {
	out := make([]float64, len(xss))
	for i, xs := range xss {
		out[i] = median(xs)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
