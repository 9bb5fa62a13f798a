package pipeline_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/types"
)

func opts(src string) pipeline.Options {
	return pipeline.Options{
		File: source.NewFile("t.mc", src),
		Sigs: map[string]*types.Sig{
			"emit": {Name: "emit", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		},
		Effects: effects.Table{
			"emit": {Writes: []effects.Loc{effects.TagLoc("sink")}},
		},
	}
}

func TestCompileStagesReportErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"parse", `void main( {`, "expected"},
		{"check", `void main() { x = 1; }`, "undeclared"},
		{"wellformed", `
#pragma commset member SELF
int f(int x) {
	if (x <= 0) { return 0; }
	return f(x - 1);
}
void main() { emit(f(3)); }`, "well-defined"},
	}
	for _, c := range cases {
		_, err := pipeline.Compile(opts(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestAnalyzeLoopErrors(t *testing.T) {
	c, err := pipeline.Compile(opts(`
void main() {
	for (int i = 0; i < 4; i++) { emit(i); }
}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeLoop("nosuch", 0); err == nil {
		t.Error("expected error for unknown function")
	}
	if _, err := c.AnalyzeLoop("main", 999); err == nil {
		t.Error("expected error for unknown loop header")
	}
	loops := c.Loops("main")
	if len(loops) != 1 {
		t.Fatalf("loops = %d", len(loops))
	}
	la, err := c.AnalyzeLoop("main", loops[0].Header)
	if err != nil {
		t.Fatal(err)
	}
	if la.Units == nil || la.PDG == nil || la.Dep == nil {
		t.Error("incomplete analysis")
	}
}

func TestLoopsListsNested(t *testing.T) {
	c, err := pipeline.Compile(opts(`
void main() {
	for (int i = 0; i < 3; i++) {
		for (int j = 0; j < 3; j++) {
			emit(i * j);
		}
	}
	while (false) { emit(0); }
}`))
	if err != nil {
		t.Fatal(err)
	}
	loops := c.Loops("main")
	if len(loops) != 3 {
		t.Errorf("recorded %d loops, want 3 (outer, inner, while)", len(loops))
	}
	for _, lu := range loops {
		if _, err := c.AnalyzeLoop("main", lu.Header); err != nil {
			t.Errorf("AnalyzeLoop(b%d): %v", lu.Header, err)
		}
	}
}

// TestNestingLimit nests parentheses, unary minus, blocks and ifs one level
// past parser.MaxNesting: each is one positioned error at the token that
// opens the extra level, not a stack overflow in a later pass. A program
// with all four at the limit compiles.
func TestNestingLimit(t *testing.T) {
	const n = parser.MaxNesting
	parens := func(k int) string {
		return "int x = " + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + ";"
	}
	minus := func(k int) string { return "int y = " + strings.Repeat("- ", k) + "1;" }
	blocks := func(k int) string { return strings.Repeat("{", k) + strings.Repeat("}", k) }
	// k-1 ifs and the empty statement they guard nest k statements deep.
	ifs := func(k int) string { return strings.Repeat("if (true) ", k-1) + ";" }
	const head = "void main() {\n"
	wrap := func(body string) string { return head + body + "\n}\n" }

	for _, c := range []struct {
		name, body string
		at         int // offset in body of the token one level past the limit
	}{
		{"parentheses", parens(n + 1), len("int x = ") + n},
		{"unary minus", minus(n + 1), len("int y = ") + 2*n},
		{"blocks", blocks(n + 1), n},
		{"nested if", ifs(n + 1), len("if (true) ") * n},
	} {
		src := wrap(c.body)
		comp, err := pipeline.Compile(opts(src))
		if err == nil {
			t.Errorf("%s: compiled %d levels deep", c.name, n+1)
			continue
		}
		want := source.NewFile("t.mc", src).PosFor(len(head) + c.at)
		if d := comp.Diags.Diags; len(d) != 1 || d[0].Pos != want || !strings.Contains(d[0].Msg, "nesting deeper than") {
			t.Errorf("%s: diagnostics\n%s\nwant one nesting error at %s", c.name, &comp.Diags, want)
		}
	}

	src := wrap(parens(n) + "\n" + minus(n) + "\n" + blocks(n) + "\n" + ifs(n))
	if _, err := pipeline.Compile(opts(src)); err != nil {
		t.Errorf("program at the limit: %v", err)
	}
}

// TestLayoutBuiltOnce: concurrent first uses of a loop analysis's layout
// build it once, and the layout places every instruction: its block and
// index, its unit (Control for the condition and the post increment,
// NoUnit outside the loop), the membership sets and the exit block.
func TestLayoutBuiltOnce(t *testing.T) {
	c, err := pipeline.Compile(opts(`
void main() {
	int s = 0;
	for (int i = 0; i < 4; i++) {
		s = s + i;
		emit(s);
	}
	emit(s);
}`))
	if err != nil {
		t.Fatal(err)
	}
	la, err := c.AnalyzeLoop("main", c.Loops("main")[0].Header)
	if err != nil {
		t.Fatal(err)
	}
	layouts := make([]*pipeline.Layout, 8)
	var wg sync.WaitGroup
	for i := range layouts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			layouts[i] = la.Layout()
		}(i)
	}
	wg.Wait()
	for _, l := range layouts[1:] {
		if l != layouts[0] {
			t.Fatal("concurrent first uses built more than one layout")
		}
	}
	l := layouts[0]
	want := make([]int, la.Fn.NumInstrs())
	for i := range want {
		want[i] = pipeline.NoUnit
	}
	for u, instrs := range la.Units.Units {
		for _, in := range instrs {
			want[in.ID] = u
			if !l.Units[u][in.ID] {
				t.Errorf("%v missing from unit %d's set", in, u)
			}
		}
	}
	for _, group := range [][]*ir.Instr{la.Units.Cond, la.Units.Post} {
		for _, in := range group {
			want[in.ID] = pipeline.Control
		}
	}
	for _, in := range la.Units.Cond {
		if !l.Cond[in.ID] {
			t.Errorf("%v missing from the condition's set", in)
		}
	}
	for _, in := range la.Units.Post {
		if !l.Post[in.ID] {
			t.Errorf("%v missing from the post increment's set", in)
		}
	}
	for _, b := range la.Fn.Blocks {
		for i, in := range b.Instrs {
			if l.Pos[in.ID] != (pipeline.InstrPos{Block: b.ID, Index: i}) {
				t.Errorf("%v at %+v, want b%d index %d", in, l.Pos[in.ID], b.ID, i)
			}
			if l.UnitOf[in.ID] != want[in.ID] {
				t.Errorf("%v in unit %d, want %d", in, l.UnitOf[in.ID], want[in.ID])
			}
		}
	}
	if len(la.Loop.Exits) != 1 || l.Exit != la.Loop.Exits[0] {
		t.Errorf("exit block b%d, loop exits %v", l.Exit, la.Loop.Exits)
	}
}
