package exec_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/vm/value"
	"repro/internal/workloads"
)

// runEveryWay compiles md5sum's primary variant, analyzes its hot loop and
// runs the program sequentially, under the profiler and once per parallel
// schedule kind at 4 threads, each run on a fresh substrate; it returns
// the program and the loop analysis.
func runEveryWay(t *testing.T) (*ir.Program, *pipeline.LoopAnalysis) {
	t.Helper()
	wl := workloads.Md5sum()
	tables := builtins.NewWorld()
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile("md5sum", wl.Primary()),
		Sigs:    tables.Sigs(),
		Effects: tables.EffectTable(),
	})
	if err != nil {
		t.Fatal(err)
	}
	world := func() *builtins.World {
		w := builtins.NewWorld()
		wl.Setup(w)
		return w
	}
	prof, err := profile.Run(c, world().Fns())
	if err != nil {
		t.Fatal(err)
	}
	la, err := c.AnalyzeLoop("main", prof.Hottest())
	if err != nil {
		t.Fatal(err)
	}
	cfg := exec.Config{Prog: c.Low.Prog, Model: c.Model, Cost: des.DefaultCostModel()}
	cfg.Builtins = world().Fns()
	if _, err := exec.RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	kinds := map[transform.Kind]bool{}
	for _, sched := range transform.Schedules(la, prof.Weights, 4) {
		if sched.Kind == transform.Sequential || kinds[sched.Kind] {
			continue
		}
		kinds[sched.Kind] = true
		cfg.Builtins = world().Fns()
		if _, err := exec.Run(cfg, la, sched, exec.SyncMutex, 4); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("ran parallel kinds %v, want DOALL, DSWP and PS-DSWP", kinds)
	}
	return c.Low.Prog, la
}

// TestCodeLivesWithItsProgram: once every reference to a program and its
// loop analysis is dropped, both are collected, with the compiled code and
// the loop layout they own; no process-wide cache keeps them alive.
func TestCodeLivesWithItsProgram(t *testing.T) {
	progGone, loopGone := make(chan struct{}), make(chan struct{})
	func() {
		prog, la := runEveryWay(t)
		runtime.SetFinalizer(prog, func(*ir.Program) { close(progGone) })
		runtime.SetFinalizer(la, func(*pipeline.LoopAnalysis) { close(loopGone) })
	}()
	collected := func(c chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	for i := 0; i < 50 && !(collected(progGone) && collected(loopGone)); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // finalizers run on their own goroutine
	}
	if !collected(progGone) {
		t.Error("the program is still reachable after its last use")
	}
	if !collected(loopGone) {
		t.Error("the loop analysis is still reachable after its last use")
	}
}

// TestRunReturnsMainCompileError: a parallel run or a service whose main
// does not compile fails with main's compile error, which names the
// function and the block, before anything is simulated.
func TestRunReturnsMainCompileError(t *testing.T) {
	instr := func(op ir.Op, dst int) *ir.Instr { return &ir.Instr{Op: op, Dst: dst, A: -1, B: -1} }
	cond := instr(ir.OpConst, 0)
	cond.Val = value.Bool(true)
	br := instr(ir.OpCondBr, -1)
	br.A, br.Targets = 0, [2]int{1, 2}
	load := instr(ir.OpLoadGlobal, 0)
	load.Name = "missing"
	back := instr(ir.OpBr, -1)
	main := &ir.Func{Name: "main", NumRegs: 1, Blocks: []*ir.Block{
		{ID: 0, Instrs: []*ir.Instr{cond, br}},
		{ID: 1, Instrs: []*ir.Instr{load, back}},
		{ID: 2, Instrs: []*ir.Instr{instr(ir.OpRet, -1)}},
	}}
	main.Renumber()
	prog := &ir.Program{Globals: []ir.Global{{Name: "g", Type: ast.TInt, Init: value.Int(0)}}}
	prog.AddFunc(main)
	cfg := exec.Config{Prog: prog, Cost: des.DefaultCostModel()}
	la := &pipeline.LoopAnalysis{Fn: main}
	const want = "interp: malformed IR in main b1: undeclared global missing"
	for _, kind := range []transform.Kind{transform.DOALL, transform.DSWP, transform.PSDSWP} {
		_, err := exec.Run(cfg, la, &transform.Schedule{Kind: kind}, exec.SyncMutex, 2)
		if err == nil || err.Error() != want {
			t.Errorf("%v: err = %v, want %s", kind, err, want)
		}
	}
	svc := exec.ServiceConfig{Arrivals: des.NewPoisson(1, 100), Requests: 4}
	if _, err := exec.RunService(cfg, svc, la, &transform.Schedule{Kind: transform.DOALL}, exec.SyncMutex, 2); err == nil || err.Error() != want {
		t.Errorf("service: err = %v, want %s", err, want)
	}
}
