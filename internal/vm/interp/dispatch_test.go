package interp_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// Hand-built IR for the dispatch tests: function bodies of one block.
func irConst(dst int, v int64) *ir.Instr {
	return &ir.Instr{Op: ir.OpConst, Dst: dst, A: -1, B: -1, Val: value.Int(v)}
}

func irCall(dst int, name string) *ir.Instr {
	return &ir.Instr{Op: ir.OpCall, Dst: dst, A: -1, B: -1, Name: name}
}

func irStore(global string, a int) *ir.Instr {
	return &ir.Instr{Op: ir.OpStoreGlobal, Dst: -1, A: a, B: -1, Name: global}
}

func irRet(args ...int) *ir.Instr {
	return &ir.Instr{Op: ir.OpRet, Dst: -1, A: -1, B: -1, Args: args}
}

func irFunc(name string, regs int, instrs ...*ir.Instr) *ir.Func {
	f := &ir.Func{Name: name, NumRegs: regs, Blocks: []*ir.Block{{ID: 0, Instrs: instrs}}}
	f.Renumber()
	return f
}

// irProg builds a program with one int global g (initially 0).
func irProg(funcs ...*ir.Func) *ir.Program {
	prog := &ir.Program{Globals: []ir.Global{{Name: "g", Type: ast.TInt, Init: value.Int(0)}}}
	for _, f := range funcs {
		prog.AddFunc(f)
	}
	return prog
}

// passThrough is an interceptor that only invokes the call, so a run with
// it dispatches through the interceptor's invoke path.
func passThrough(t *interp.Thread, in *ir.Instr, callee int, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
	return invoke()
}

// TestUserFunctionShadowsBuiltin: a call to a name that is both a user
// function and a builtin of the Env runs the user function, on the direct
// path, through an interceptor and by name.
func TestUserFunctionShadowsBuiltin(t *testing.T) {
	prog := irProg(
		irFunc("main", 1, irCall(0, "f"), irStore("g", 0), irRet()),
		irFunc("f", 1, irConst(0, 7), irRet(0)),
	)
	builtinRan := false
	fns := map[string]interp.BuiltinFn{
		"f": func(args []value.Value) (value.Value, int64, error) {
			builtinRan = true
			return value.Int(99), 1, nil
		},
	}
	for _, icpt := range []interp.Interceptor{nil, passThrough} {
		env := interp.NewEnv(prog, fns)
		th := interp.NewThread(env)
		th.Interceptor = icpt
		if err := th.RunMain(); err != nil {
			t.Fatal(err)
		}
		if g := env.Globals.Get("g").AsInt(); g != 7 {
			t.Errorf("interceptor %v: g = %d, want the user function's 7", icpt != nil, g)
		}
	}
	rets, err := interp.NewThread(interp.NewEnv(prog, fns)).CallByName("f", nil)
	if err != nil || len(rets) != 1 || rets[0].AsInt() != 7 {
		t.Errorf("CallByName(f) = %v, %v; want the user function's [7]", rets, err)
	}
	if builtinRan {
		t.Error("the builtin of the shadowed name ran")
	}
}

// TestUnboundCalleeFailsWhenCalled: a call to a name bound nowhere fails
// only when it executes, after the instructions before it ran, with
// "interp: undefined function NAME"; a program that never reaches such a
// call runs with no builtins at all.
func TestUnboundCalleeFailsWhenCalled(t *testing.T) {
	for _, icpt := range []interp.Interceptor{nil, passThrough} {
		prog := irProg(irFunc("main", 1, irConst(0, 1), irStore("g", 0), irCall(-1, "nope"), irRet()))
		env := interp.NewEnv(prog, nil)
		th := interp.NewThread(env)
		th.Interceptor = icpt
		err := th.RunMain()
		if err == nil || err.Error() != "interp: undefined function nope" {
			t.Errorf("interceptor %v: err = %v, want interp: undefined function nope", icpt != nil, err)
		}
		if g := env.Globals.Get("g").AsInt(); g != 1 {
			t.Errorf("interceptor %v: g = %d, want 1: the store before the call did not run", icpt != nil, g)
		}
	}

	prog := irProg(
		irFunc("main", 1, irConst(0, 2), irStore("g", 0), irRet()),
		irFunc("unused", 1, irCall(-1, "nope"), irRet()),
	)
	env := interp.NewEnv(prog, nil)
	if err := interp.NewThread(env).RunMain(); err != nil {
		t.Fatalf("a program that never calls nope failed: %v", err)
	}
	if g := env.Globals.Get("g").AsInt(); g != 2 {
		t.Errorf("g = %d, want 2", g)
	}
	_, err := interp.NewThread(env).CallByName("unused", nil)
	if err == nil || !strings.Contains(err.Error(), "undefined function nope") {
		t.Errorf("calling unused: err = %v, want undefined function nope", err)
	}
}

// TestCallByNameResolvesCalleeNumbering: CallByName reaches a builtin
// through the program's callee numbering only, so a builtin of the Env
// that no function or call site of the program names is undefined.
func TestCallByNameResolvesCalleeNumbering(t *testing.T) {
	prog := irProg(irFunc("main", 1, irCall(0, "named"), irStore("g", 0), irRet()))
	seven := func(args []value.Value) (value.Value, int64, error) { return value.Int(7), 1, nil }
	th := interp.NewThread(interp.NewEnv(prog, map[string]interp.BuiltinFn{"named": seven, "unnamed": seven}))
	if rets, err := th.CallByName("named", nil); err != nil || len(rets) != 1 || rets[0].AsInt() != 7 {
		t.Errorf("CallByName(named) = %v, %v; want [7]", rets, err)
	}
	if _, err := th.CallByName("unnamed", nil); err == nil || err.Error() != "interp: undefined function unnamed" {
		t.Errorf("CallByName(unnamed): err = %v, want interp: undefined function unnamed", err)
	}
}

// TestCompileOnceUnderConcurrentFirstUse: Envs made concurrently over a
// program that was never compiled share one compiled form.
func TestCompileOnceUnderConcurrentFirstUse(t *testing.T) {
	prog := irProg(irFunc("main", 1, irConst(0, 1), irStore("g", 0), irRet()))
	steps := make([]*interp.Steps, 8)
	var wg sync.WaitGroup
	for i := range steps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := interp.NewEnv(prog, nil).Steps("main")
			if err != nil {
				t.Error(err)
			}
			steps[i] = s
		}(i)
	}
	wg.Wait()
	for _, s := range steps[1:] {
		if s != steps[0] {
			t.Fatal("concurrent first uses compiled the program more than once")
		}
	}
}
