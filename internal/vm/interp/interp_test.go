package interp_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// compile lowers a source snippet with a sink builtin.
func compile(t testing.TB, src string) (*lower.Result, *[]int64) {
	t.Helper()
	sink := &[]int64{}
	sigs := map[string]*types.Sig{
		"emit":  {Name: "emit", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		"heavy": {Name: "heavy", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
	}
	var diags source.DiagList
	prog := parser.Parse(source.NewFile("t.mc", src), &diags)
	info := types.Check(prog, sigs, &diags)
	res := lower.Lower(info, &diags)
	if diags.HasErrors() {
		t.Fatalf("compile:\n%s", diags.String())
	}
	return res, sink
}

func builtinsFor(sink *[]int64) map[string]interp.BuiltinFn {
	return map[string]interp.BuiltinFn{
		"emit": func(args []value.Value) (value.Value, int64, error) {
			*sink = append(*sink, args[0].AsInt())
			return value.Void(), 5, nil
		},
		"heavy": func(args []value.Value) (value.Value, int64, error) {
			return value.Int(args[0].AsInt() + 1), 1000, nil
		},
	}
}

func TestEvalBinTable(t *testing.T) {
	i := value.Int
	f := value.Float
	s := value.Str
	b := value.Bool
	cases := []struct {
		op   string
		a, c value.Value
		want value.Value
	}{
		{"+", i(2), i(3), i(5)},
		{"+", f(1.5), f(2.5), f(4)},
		{"+", s("a"), s("b"), s("ab")},
		{"-", i(2), i(5), i(-3)},
		{"-", f(2), f(0.5), f(1.5)},
		{"*", i(6), i(7), i(42)},
		{"/", i(7), i(2), i(3)},
		{"/", f(1), f(4), f(0.25)},
		{"%", i(7), i(3), i(1)},
		{"&", i(6), i(3), i(2)},
		{"|", i(6), i(3), i(7)},
		{"^", i(6), i(3), i(5)},
		{"<<", i(1), i(4), i(16)},
		{">>", i(16), i(4), i(1)},
		{"==", i(3), i(3), b(true)},
		{"!=", s("x"), s("y"), b(true)},
		{"<", f(1), f(2), b(true)},
		{"<=", i(2), i(2), b(true)},
		{">", s("b"), s("a"), b(true)},
		{">=", i(1), i(2), b(false)},
	}
	for _, c := range cases {
		got, err := interp.EvalBin(c.op, c.a, c.c)
		if err != nil {
			t.Errorf("%v %s %v: %v", c.a, c.op, c.c, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.c, got, c.want)
		}
	}
}

func TestEvalBinErrors(t *testing.T) {
	bad := []struct {
		op   string
		a, b value.Value
	}{
		{"/", value.Int(1), value.Int(0)},
		{"%", value.Int(1), value.Int(0)},
		{"<<", value.Int(1), value.Int(64)},
		{">>", value.Int(1), value.Int(-1)},
		{"%", value.Float(1), value.Float(2)},
		{"&", value.Bool(true), value.Bool(false)},
		{"<", value.Bool(true), value.Bool(false)},
		{"+", value.Bool(true), value.Bool(false)},
	}
	for _, c := range bad {
		if _, err := interp.EvalBin(c.op, c.a, c.b); err == nil {
			t.Errorf("%v %s %v: expected error", c.a, c.op, c.b)
		}
	}
}

func TestEvalBinIntQuick(t *testing.T) {
	// Interpreter arithmetic must agree with Go's int64 semantics.
	f := func(a, b int64) bool {
		sum, err := interp.EvalBin("+", value.Int(a), value.Int(b))
		if err != nil || sum.AsInt() != a+b {
			return false
		}
		prod, err := interp.EvalBin("*", value.Int(a), value.Int(b))
		if err != nil || prod.AsInt() != a*b {
			return false
		}
		lt, err := interp.EvalBin("<", value.Int(a), value.Int(b))
		if err != nil || lt.AsBool() != (a < b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalUn(t *testing.T) {
	if v, _ := interp.EvalUn("-", value.Int(5)); v.AsInt() != -5 {
		t.Error("unary minus int")
	}
	if v, _ := interp.EvalUn("-", value.Float(2.5)); v.AsFloat() != -2.5 {
		t.Error("unary minus float")
	}
	if v, _ := interp.EvalUn("!", value.Bool(true)); v.AsBool() {
		t.Error("not")
	}
	if _, err := interp.EvalUn("!", value.Int(1)); err == nil {
		t.Error("! on int should error")
	}
	if _, err := interp.EvalUn("-", value.Str("x")); err == nil {
		t.Error("- on string should error")
	}
}

func TestRunAndCost(t *testing.T) {
	res, sink := compile(t, `
void main() {
	for (int i = 0; i < 3; i++) {
		emit(heavy(i));
	}
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	if len(*sink) != 3 || (*sink)[0] != 1 || (*sink)[2] != 3 {
		t.Errorf("sink = %v", *sink)
	}
	// Cost must include the builtins: 3 heavy (1000) + 3 emit (5) plus
	// instruction costs.
	if th.Cost < 3015 {
		t.Errorf("cost = %d, expected >= 3015", th.Cost)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	res, sink := compile(t, `
int inf(int n) { return inf(n + 1); }
void main() { emit(inf(0)); }`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	err := interp.NewThread(env).RunMain()
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("err = %v, want depth exceeded", err)
	}
}

func TestUndefinedFunction(t *testing.T) {
	res, _ := compile(t, `void main() { }`)
	env := interp.NewEnv(res.Prog, nil)
	th := interp.NewThread(env)
	if _, err := th.CallByName("nope", nil); err == nil {
		t.Error("expected undefined function error")
	}
}

func TestProfileAttribution(t *testing.T) {
	res, sink := compile(t, `
int g = 0;
int acc(int x) { g = g + x; return g; }
void main() {
	int s = 0;
	for (int i = 0; i < 4; i++) {
		if (i % 2 == 0) {
			s = s + acc(i);
		} else {
			s = heavy(s);
		}
	}
	emit(s);
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	mainFn := res.Prog.Funcs["main"]
	th.Profile = interp.NewProfile(mainFn)
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	if th.Profile.Total != th.Cost {
		t.Errorf("profile total %d != thread cost %d", th.Profile.Total, th.Cost)
	}
	// Every instruction of main is charged CostPerInstr per execution; a
	// call also carries its callee's whole cost: acc's six-instruction body
	// (%25: 2 × 7) and the builtins' own costs (%21 emit: 1 + 5, %31 heavy:
	// 2 × 1001). Block execution counts: b0 once, the header b1 five times,
	// b2/b3/b6 four times, the even arm b5 and the odd arm b7 twice each,
	// the exit b4 once.
	want := []int64{
		1, 1, 1, 1, 1, // b0: s = 0, i = 0, br
		5, 5, 5, 5, // b1: i < 4
		4, 4, 4, 4, 4, 4, // b2: i % 2 == 0
		4, 4, 4, 4, 4, // b3: i++
		1, 6, 1, // b4: emit(s), ret
		2, 2, 14, 2, 2, 2, // b5: s = s + acc(i)
		4,             // b6: join
		2, 2002, 2, 2, // b7: s = heavy(s)
	}
	if len(th.Profile.Cost) != len(want) {
		t.Fatalf("profile has %d instructions, want %d:\n%s", len(th.Profile.Cost), len(want), mainFn)
	}
	for id, c := range th.Profile.Cost {
		if c != want[id] {
			t.Errorf("%v: cost %d, want %d", mainFn.InstrByID(id), c, want[id])
		}
	}
}

func TestGlobalsSharedAcrossThreads(t *testing.T) {
	res, sink := compile(t, `
int g = 10;
void bump() { g = g + 1; }
void main() { bump(); emit(g); }`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	t1 := interp.NewThread(env)
	if err := t1.RunMain(); err != nil {
		t.Fatal(err)
	}
	t2 := interp.NewThread(env)
	if err := t2.RunMain(); err != nil {
		t.Fatal(err)
	}
	// Same env: the second run observes the first run's increment.
	if (*sink)[0] != 11 || (*sink)[1] != 12 {
		t.Errorf("sink = %v, want [11 12]", *sink)
	}
	snap := env.Globals.Snapshot()
	if snap["g"].AsInt() != 12 {
		t.Errorf("snapshot g = %v", snap["g"])
	}
}

func TestInterceptorWrapsCalls(t *testing.T) {
	res, sink := compile(t, `
void main() {
	for (int i = 0; i < 4; i++) { emit(i); }
}`)
	env := interp.NewEnv(res.Prog, builtinsFor(sink))
	th := interp.NewThread(env)
	intercepted := 0
	th.Interceptor = func(tt *interp.Thread, in *ir.Instr, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error) {
		if in.Name == "emit" {
			intercepted++
		}
		return invoke()
	}
	if err := th.RunMain(); err != nil {
		t.Fatal(err)
	}
	if intercepted != 4 {
		t.Errorf("interceptor saw %d emit calls, want 4", intercepted)
	}
	if len(*sink) != 4 {
		t.Errorf("sink = %v", *sink)
	}
}

// TestMalformedIR: hand-built IR that lowering never produces must fail
// with an error naming the function and block, never a panic. Each case's
// blocks form function bad, which a well-formed main calls.
func TestMalformedIR(t *testing.T) {
	ret := func() *ir.Instr { return &ir.Instr{Op: ir.OpRet, Dst: -1, A: -1, B: -1} }
	konst := func() *ir.Instr { return &ir.Instr{Op: ir.OpConst, Dst: 0, A: -1, B: -1, Val: value.Int(1)} }
	cases := []struct {
		name   string
		blocks []*ir.Block
		want   string
	}{
		{"block ID is not its index",
			[]*ir.Block{{ID: 1, Instrs: []*ir.Instr{ret()}}},
			"bad b1: block ID does not match its index 0"},
		{"missing terminator",
			[]*ir.Block{{ID: 0, Instrs: []*ir.Instr{konst()}}},
			"bad b0: block does not end in a terminator"},
		{"terminator in mid-block",
			[]*ir.Block{{ID: 0, Instrs: []*ir.Instr{ret(), konst(), ret()}}},
			"bad b0: ret before the end of the block"},
		{"undeclared global",
			[]*ir.Block{{ID: 0, Instrs: []*ir.Instr{{Op: ir.OpLoadGlobal, Dst: 0, A: -1, B: -1, Name: "nope"}, ret()}}},
			"bad b0: undeclared global nope"},
		{"unknown op",
			[]*ir.Block{{ID: 0, Instrs: []*ir.Instr{{Op: ir.Op(99), Dst: -1, A: -1, B: -1}, ret()}}},
			"bad b0: unknown op op99"},
		{"branch to a missing block",
			[]*ir.Block{{ID: 0, Instrs: []*ir.Instr{{Op: ir.OpBr, Dst: -1, A: -1, B: -1, Targets: [2]int{3}}}}},
			"bad b0: branch to missing block b3"},
		{"no blocks", nil, "bad: function has no blocks"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := &ir.Func{Name: "bad", Blocks: c.blocks, NumRegs: 1}
			bad.Renumber()
			call := &ir.Instr{Op: ir.OpCall, Dst: -1, A: -1, B: -1, Name: "bad"}
			main := &ir.Func{Name: "main", Blocks: []*ir.Block{{ID: 0, Instrs: []*ir.Instr{call, ret()}}}}
			main.Renumber()
			prog := &ir.Program{}
			prog.AddFunc(main)
			prog.AddFunc(bad)
			err := interp.NewThread(interp.NewEnv(prog, nil)).RunMain()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want it to contain %q", err, c.want)
			}
		})
	}
}
