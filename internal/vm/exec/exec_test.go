package exec_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/types"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// world is the test substrate: a fake filesystem and console with cost
// annotations heavy enough for parallelism to pay off.
type world struct {
	prints []string
}

func (w *world) reset() { w.prints = nil }

func (w *world) sigs() map[string]*types.Sig {
	return map[string]*types.Sig{
		"fopen_i":   {Name: "fopen_i", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
		"fread":     {Name: "fread", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
		"fclose":    {Name: "fclose", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		"digest":    {Name: "digest", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
		"print_int": {Name: "print_int", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		"bound":     {Name: "bound", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
	}
}

func (w *world) effects() effects.Table {
	fs := effects.TagLoc("fs")
	console := effects.TagLoc("io.console")
	return effects.Table{
		"fopen_i":   {Reads: []effects.Loc{fs}, Writes: []effects.Loc{fs}},
		"fread":     {Reads: []effects.Loc{fs}, Writes: []effects.Loc{fs}},
		"fclose":    {Reads: []effects.Loc{fs}, Writes: []effects.Loc{fs}},
		"digest":    {},
		"print_int": {Writes: []effects.Loc{console}},
		"bound":     {},
	}
}

func (w *world) builtins() map[string]interp.BuiltinFn {
	return map[string]interp.BuiltinFn{
		"fopen_i": func(args []value.Value) (value.Value, int64, error) {
			return value.Int(args[0].AsInt() + 1000), 50, nil
		},
		"fread": func(args []value.Value) (value.Value, int64, error) {
			return value.Int(args[0].AsInt() - 1000), 80, nil
		},
		"fclose": func(args []value.Value) (value.Value, int64, error) {
			return value.Void(), 40, nil
		},
		"digest": func(args []value.Value) (value.Value, int64, error) {
			// Real work: a small deterministic mix, costed like hashing.
			v := args[0].AsInt()
			h := uint64(v) * 0x9e3779b97f4a7c15
			h ^= h >> 31
			return value.Int(int64(h % 1000)), 20000, nil
		},
		"print_int": func(args []value.Value) (value.Value, int64, error) {
			w.prints = append(w.prints, fmt.Sprintf("%d", args[0].AsInt()))
			return value.Void(), 100, nil
		},
		// bound is a pure loop-bound helper: calling it in a for-condition
		// plants a builtin call inside the loop-control units.
		"bound": func(args []value.Value) (value.Value, int64, error) {
			return value.Int(args[0].AsInt()), 30, nil
		},
	}
}

// The test programs follow the paper's Figure 1 structure: small
// commutative blocks around the I/O operations, with the heavy digest
// computation outside any commutative region.
const md5Full = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < 32; i++) {
		int fp = 0;
		int raw = 0;
		#pragma commset member FSET(i), SELF
		{ fp = fopen_i(i); }
		#pragma commset member FSET(i), SELF
		{ raw = fread(fp); }
		int d = digest(raw);
		#pragma commset member FSET(i), SELF
		{
			fclose(fp);
			total += d;
		}
		#pragma commset member FSET(i), SELF
		{ print_int(d); }
	}
	print_int(total);
}
`

const md5Det = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < 32; i++) {
		int fp = 0;
		int raw = 0;
		#pragma commset member FSET(i), SELF
		{ fp = fopen_i(i); }
		#pragma commset member FSET(i), SELF
		{ raw = fread(fp); }
		int d = digest(raw);
		#pragma commset member FSET(i), SELF
		{
			fclose(fp);
			total += d;
		}
		#pragma commset member FSET(i)
		{ print_int(d); }
	}
	print_int(total);
}
`

type compiled struct {
	w     *world
	c     *pipeline.Compiled
	la    *pipeline.LoopAnalysis
	cfg   exec.Config
	sched map[transform.Kind]*transform.Schedule
}

func compileFor(t testing.TB, src string, threads int) *compiled {
	t.Helper()
	w := &world{}
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile("t.mc", src),
		Sigs:    w.sigs(),
		Effects: w.effects(),
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	loops := c.Loops("main")
	if len(loops) == 0 {
		t.Fatal("no loop")
	}
	la, err := c.AnalyzeLoop("main", loops[0].Header)
	if err != nil {
		t.Fatal(err)
	}
	scheds := map[transform.Kind]*transform.Schedule{}
	for _, s := range transform.Schedules(la, nil, threads) {
		if _, dup := scheds[s.Kind]; !dup {
			scheds[s.Kind] = s
		}
	}
	return &compiled{
		w:  w,
		c:  c,
		la: la,
		cfg: exec.Config{
			Prog:     c.Low.Prog,
			Builtins: w.builtins(),
			Model:    c.Model,
			Cost:     des.DefaultCostModel(),
		},
		sched: scheds,
	}
}

// seqRun returns the sequential baseline cost and output.
func (cp *compiled) seqRun(t *testing.T) (int64, []string) {
	t.Helper()
	cp.w.reset()
	r, err := exec.RunSequential(cp.cfg)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	out := append([]string(nil), cp.w.prints...)
	return r.VirtualTime, out
}

// parRun executes the given schedule and returns makespan and output.
func (cp *compiled) parRun(t *testing.T, kind transform.Kind, mode exec.SyncMode, threads int) (int64, []string) {
	t.Helper()
	s := cp.sched[kind]
	if s == nil {
		t.Fatalf("schedule %v not applicable", kind)
	}
	cp.w.reset()
	r, err := exec.Run(cp.cfg, cp.la, s, mode, threads)
	if err != nil {
		t.Fatalf("%v run: %v", kind, err)
	}
	out := append([]string(nil), cp.w.prints...)
	return r.VirtualTime, out
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func TestDOALLCorrectAndFaster(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	seqCost, seqOut := cp.seqRun(t)

	par, parOut := cp.parRun(t, transform.DOALL, exec.SyncSpin, 8)

	// Final total (last print) must be exact: the shared accumulator is
	// updated atomically under the commset lock.
	if parOut[len(parOut)-1] != seqOut[len(seqOut)-1] {
		t.Errorf("final total differs: %s vs %s", parOut[len(parOut)-1], seqOut[len(seqOut)-1])
	}
	if len(parOut) != len(seqOut) {
		t.Fatalf("output count %d != %d", len(parOut), len(seqOut))
	}
	speedup := float64(seqCost) / float64(par)
	if speedup < 4 {
		t.Errorf("DOALL on 8 threads speedup = %.2f, want >= 4 (seq %d, par %d)", speedup, seqCost, par)
	}
}

func TestDOALLScalesWithThreads(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	seqCost, _ := cp.seqRun(t)
	prev := float64(0)
	for _, n := range []int{1, 2, 4, 8} {
		m, _ := cp.parRun(t, transform.DOALL, exec.SyncSpin, n)
		sp := float64(seqCost) / float64(m)
		if n > 1 && sp <= prev {
			t.Errorf("speedup did not grow: %d threads %.2f <= %.2f", n, sp, prev)
		}
		prev = sp
	}
}

func TestPSDSWPDeterministicOutput(t *testing.T) {
	cp := compileFor(t, md5Det, 8)
	seqCost, seqOut := cp.seqRun(t)

	par, parOut := cp.parRun(t, transform.PSDSWP, exec.SyncSpin, 8)

	// The sequential print stage must reproduce the sequential output
	// exactly (deterministic semantics of the Group-only print block).
	if strings.Join(parOut, ",") != strings.Join(seqOut, ",") {
		t.Errorf("PS-DSWP output differs from sequential:\npar: %v\nseq: %v", parOut, seqOut)
	}
	speedup := float64(seqCost) / float64(par)
	if speedup < 3 {
		t.Errorf("PS-DSWP speedup = %.2f, want >= 3", speedup)
	}
}

func TestDSWPPipelineCorrect(t *testing.T) {
	cp := compileFor(t, md5Det, 4)
	_, seqOut := cp.seqRun(t)
	if cp.sched[transform.DSWP] == nil {
		t.Skip("DSWP not generated")
	}
	_, parOut := cp.parRun(t, transform.DSWP, exec.SyncSpin, 4)
	if strings.Join(parOut, ",") != strings.Join(seqOut, ",") {
		t.Errorf("DSWP output differs:\npar: %v\nseq: %v", parOut, seqOut)
	}
}

func TestSyncModesAllCorrect(t *testing.T) {
	for _, mode := range []exec.SyncMode{exec.SyncMutex, exec.SyncSpin, exec.SyncTM, exec.SyncLib} {
		cp := compileFor(t, md5Full, 4)
		_, seqOut := cp.seqRun(t)
		_, parOut := cp.parRun(t, transform.DOALL, mode, 4)
		if parOut[len(parOut)-1] != seqOut[len(seqOut)-1] {
			t.Errorf("%v: final total differs", mode)
		}
		a, b := sortedCopy(parOut), sortedCopy(seqOut)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%v: output multiset differs", mode)
				break
			}
		}
	}
}

func TestMutexSlowerThanSpinUnderContention(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	spin, _ := cp.parRun(t, transform.DOALL, exec.SyncSpin, 8)
	mutex, _ := cp.parRun(t, transform.DOALL, exec.SyncMutex, 8)
	if mutex < spin {
		t.Errorf("expected mutex (%d) >= spin (%d) under contention", mutex, spin)
	}
}

func TestZeroIterationLoop(t *testing.T) {
	cp := compileFor(t, `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 7;
	for (int i = 0; i < 0; i++) {
		#pragma commset member FSET(i), SELF
		{ total += digest(i); }
	}
	print_int(total);
}`, 4)
	_, seqOut := cp.seqRun(t)
	_, parOut := cp.parRun(t, transform.DOALL, exec.SyncSpin, 4)
	if len(parOut) != 1 || parOut[0] != seqOut[0] {
		t.Errorf("zero-iteration outputs: par %v seq %v", parOut, seqOut)
	}
}

func TestLiveOutsAfterLoop(t *testing.T) {
	// A non-shared slot written each iteration: after the loop it must hold
	// the final iteration's value.
	cp := compileFor(t, `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int last = -1;
	int total = 0;
	for (int i = 0; i < 16; i++) {
		last = digest(i);
		#pragma commset member FSET(i), SELF
		{ total += last; }
	}
	print_int(last);
	print_int(total);
}`, 4)
	_, seqOut := cp.seqRun(t)
	for _, kind := range []transform.Kind{transform.DOALL, transform.PSDSWP} {
		if cp.sched[kind] == nil {
			continue
		}
		_, parOut := cp.parRun(t, kind, exec.SyncSpin, 4)
		if len(parOut) != len(seqOut) || parOut[0] != seqOut[0] || parOut[1] != seqOut[1] {
			t.Errorf("%v live-outs: par %v seq %v", kind, parOut, seqOut)
		}
	}
}

func TestDeterministicMakespan(t *testing.T) {
	cp := compileFor(t, md5Full, 8)
	a, _ := cp.parRun(t, transform.DOALL, exec.SyncSpin, 8)
	b, _ := cp.parRun(t, transform.DOALL, exec.SyncSpin, 8)
	if a != b {
		t.Errorf("nondeterministic makespan: %d vs %d", a, b)
	}
}
