package analysis

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
)

// compileSourceErr compiles src against the standard substrate, returning
// the error instead of failing a test (safe to call from goroutines).
func compileSourceErr(name, src string) (*pipeline.Compiled, error) {
	w := builtins.NewWorld()
	return pipeline.Compile(pipeline.Options{
		File:    source.NewFile(name, src),
		Sigs:    w.Sigs(),
		Effects: w.EffectTable(),
	})
}

// raceySrc has a genuine unprotected cross-iteration conflict (console
// output in a predicated nosync set that does not constrain it).
const raceySrc = `
#pragma commset decl self PSET
#pragma commset predicate PSET (k1)(k2) : k1 != k2
#pragma commset nosync PSET

void main() {
	for (int i = 0; i < 8; i++) {
		#pragma commset member PSET(i)
		{
			print_int(i);
		}
	}
}`

// prepare builds the analyzed loop contexts the checks iterate, mirroring
// the setup in Run.
func prepare(t *testing.T, v *vet) {
	t.Helper()
	seenFn := map[string]bool{}
	for _, lu := range v.c.Low.Loops {
		if seenFn[lu.Func] {
			continue
		}
		seenFn[lu.Func] = true
		las, err := v.c.AnalyzeFuncLoops(lu.Func)
		if err != nil {
			t.Fatal(err)
		}
		for _, la := range las {
			v.loops = append(v.loops, loopCtx{fn: lu.Func, la: la})
		}
	}
}

// TestChecksSurviveNilInstrs hardens the nil-instruction guards: a PDG node
// whose instruction entry is missing (nil) must be skipped by both the
// unsound and race passes, not dereferenced. The schedules and unit graph
// are built first (the transform layer requires intact instructions); only
// the analyzer then sees the nil entries.
func TestChecksSurviveNilInstrs(t *testing.T) {
	v := compileForVet(t, raceySrc)
	v.opts.Threads = 4
	v.diags = &source.DiagList{}
	prepare(t, v)
	if len(v.loops) == 0 {
		t.Fatal("no loops analyzed")
	}
	type loopSched struct {
		lc     loopCtx
		g      *transform.UnitGraph
		scheds []*transform.Schedule
	}
	var ls []loopSched
	for _, lc := range v.loops {
		ls = append(ls, loopSched{
			lc:     lc,
			g:      transform.BuildUnitGraph(lc.la, nil),
			scheds: transform.Schedules(lc.la, nil, v.opts.Threads),
		})
	}
	for _, lc := range v.loops {
		for _, e := range lc.la.PDG.Edges {
			lc.la.PDG.Instrs[lc.la.Dep.Of(e.From)] = nil
			lc.la.PDG.Instrs[lc.la.Dep.Of(e.To)] = nil
		}
	}
	v.checkUnsound()
	for _, s := range ls {
		for _, sched := range s.scheds {
			if sched.Kind == transform.Sequential {
				continue
			}
			v.checkSchedule(s.lc, s.g, sched)
		}
	}
	if len(v.diags.Diags) != 0 {
		t.Errorf("diagnostics reported for nil instructions:\n%s", v.diags)
	}
}

// TestCheckScheduleUnrelaxedEdge drives checkSchedule with a synthetic
// all-parallel schedule so an unrelaxed loop-carried conflict lands in a
// concurrent position — the partitioner-violation path, which must report
// the race and say the dependence is not relaxed.
func TestCheckScheduleUnrelaxedEdge(t *testing.T) {
	v := compileForVet(t, `
void main() {
	for (int i = 0; i < 8; i++) {
		print_int(i);
	}
}`)
	v.opts.Threads = 4
	v.diags = &source.DiagList{}
	prepare(t, v)
	if len(v.loops) == 0 {
		t.Fatal("no loops analyzed")
	}
	lc := v.loops[0]
	g := transform.BuildUnitGraph(lc.la, nil)
	units := make([]int, 0, g.NumUnits)
	for u := 0; u < g.NumUnits; u++ {
		units = append(units, u)
	}
	sched := &transform.Schedule{
		Kind:   transform.DOALL,
		Stages: []transform.Stage{{Units: units, Parallel: true}},
	}
	v.checkSchedule(lc, g, sched)
	if len(v.diags.Diags) == 0 {
		t.Fatal("no race reported for a forced-concurrent unrelaxed conflict")
	}
	msg := v.diags.Diags[0].Msg
	if !strings.Contains(msg, "data race") || !strings.Contains(msg, "not relaxed by any commset") {
		t.Errorf("message = %q", msg)
	}
}

// TestLongOperatorChain compiles and vets x = 1 + 1 + ... with 50,000
// terms inside a loop. A position lookup that walked to the leftmost
// operand made every pass asking for positions quadratic in the chain
// (17 s at this length); the bound is generous for slow and -race runs.
func TestLongOperatorChain(t *testing.T) {
	const terms = 50000
	src := "void main() {\n\tint x = 0;\n\tfor (int i = 0; i < 4; i++) {\n\t\tx = 1" +
		strings.Repeat(" + 1", terms-1) + ";\n\t}\n\tprint_int(x);\n}\n"
	start := time.Now()
	vetSource(t, "chain.mc", src)
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("compiling and vetting a %d-term chain took %v", terms, d)
	}
}

// TestSlotRelaxationSynchronizedQuiet exercises checkSlotRelaxation's early
// return: a shared accumulator under a synchronized (lock-carrying) set is
// safe, so no shared-accumulator error may fire.
func TestSlotRelaxationSynchronizedQuiet(t *testing.T) {
	diags := vetSource(t, "sync_acc.mc", `
#pragma commset decl self ASET

void main() {
	int sum = 0;
	for (int i = 0; i < 8; i++) {
		#pragma commset member ASET
		{
			sum = sum + i;
		}
	}
	print_int(sum);
}`)
	for i := range diags.Diags {
		if strings.Contains(diags.Diags[i].Msg, "shared accumulator") {
			t.Errorf("synchronized set flagged as unsound accumulator: %s", diags.Diags[i].Msg)
		}
	}
}

// recursiveKeySrc forwards a predicate key through a self-recursive helper;
// its summary requires the SCC fixed point to converge.
const recursiveKeySrc = `
#pragma commset decl self BSET
#pragma commset predicate BSET (k1)(k2) : k1 != k2
#pragma commset nosync BSET

void mark_depth(int bm, int k, int d) {
	bitmap_set(bm, k);
	if (d > 0) {
		mark_depth(bm, k, d - 1);
	}
}

void main() {
	int g = bitmap_new(64);
	for (int i = 0; i < 8; i++) {
		#pragma commset member BSET(i)
		{
			mark_depth(g, i, 3);
		}
	}
}`

// TestKeyflowFixedPointConcurrent runs the whole-program summary fixed
// point over the recursive helper from many goroutines. Run under
// `go test -race` this checks the SCC iteration and the lazy keyflow cache
// touch no shared state across independent analyses.
func TestKeyflowFixedPointConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := compileSourceErr("recursive.mc", recursiveKeySrc)
			if err != nil {
				errs <- err.Error()
				return
			}
			v := &vet{c: c, seen: map[string]bool{}}
			kf := v.keyflow()
			fn := kf.fns["mark_depth"]
			if fn == nil {
				errs <- "no summary for mark_depth"
				return
			}
			found := false
			for loc, ks := range fn.keyed {
				if _, ok := ks[1]; ok && strings.Contains(string(loc), "bitmaps") {
					found = true
				}
			}
			if !found {
				errs <- "recursive summary lost the key parameter"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
