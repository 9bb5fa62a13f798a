package cfg

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/types"
)

func lowerSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	var diags source.DiagList
	prog := parser.Parse(source.NewFile("t.mc", src), &diags)
	info := types.Check(prog, nil, &diags)
	res := lower.Lower(info, &diags)
	if diags.HasErrors() {
		t.Fatalf("compile errors:\n%s", diags.String())
	}
	return res.Prog
}

func TestDominatorsStraightLine(t *testing.T) {
	prog := lowerSrc(t, `int f(int a) { int b = a + 1; return b; }`)
	f := prog.Funcs["f"]
	g := New(f)
	idom := g.Dominators()
	if idom[0] != 0 {
		t.Errorf("entry idom = %d", idom[0])
	}
}

func TestDominatorsDiamond(t *testing.T) {
	prog := lowerSrc(t, `
int f(int a) {
	int r = 0;
	if (a > 0) { r = 1; } else { r = 2; }
	return r;
}`)
	f := prog.Funcs["f"]
	g := New(f)
	idom := g.Dominators()
	dt := NewDomTree(idom)
	// Entry dominates everything reachable.
	reach := g.ReachableFromEntry()
	for b := range f.Blocks {
		if reach[b] && !dt.Dominates(0, b) {
			t.Errorf("entry does not dominate b%d", b)
		}
	}
	// The join block is dominated by the branch block (entry here), not by
	// either arm.
	var join int
	for b, preds := range g.Preds {
		if len(preds) == 2 {
			join = b
		}
	}
	for _, arm := range g.Preds[join] {
		if dt.Dominates(arm, join) && arm != 0 {
			t.Errorf("arm b%d should not dominate join b%d", arm, join)
		}
	}
}

func TestLoopsSimpleFor(t *testing.T) {
	prog := lowerSrc(t, `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s += i; }
	return s;
}`)
	f := prog.Funcs["f"]
	loops := NewFlow(f).Loops
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
	if len(l.Latches) != 1 {
		t.Errorf("latches = %v", l.Latches)
	}
	if len(l.Exits) != 1 {
		t.Errorf("exits = %v", l.Exits)
	}
	if !l.Contains(l.Header) {
		t.Error("loop must contain its header")
	}
}

func TestLoopsNested(t *testing.T) {
	prog := lowerSrc(t, `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		for (int j = 0; j < i; j++) {
			s += j;
		}
	}
	return s;
}`)
	f := prog.Funcs["f"]
	loops := NewFlow(f).Loops
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	var outer, inner *Loop
	for _, l := range loops {
		if l.Depth == 1 {
			outer = l
		} else if l.Depth == 2 {
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatalf("expected depth-1 and depth-2 loops, got %+v", loops)
	}
	if inner.Parent != outer {
		t.Errorf("inner.Parent wrong")
	}
	for _, b := range inner.Blocks {
		if !outer.Contains(b) {
			t.Errorf("inner block b%d not inside outer loop", b)
		}
	}
}

func TestLoopsWhileWithBreak(t *testing.T) {
	prog := lowerSrc(t, `
int f(int n) {
	int i = 0;
	while (true) {
		if (i >= n) { break; }
		i++;
	}
	return i;
}`)
	f := prog.Funcs["f"]
	loops := NewFlow(f).Loops
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	if len(loops[0].Exits) == 0 {
		t.Error("break should create a loop exit")
	}
}

func TestPostDominators(t *testing.T) {
	prog := lowerSrc(t, `
int f(int a) {
	int r = 0;
	if (a > 0) { r = 1; } else { r = 2; }
	return r;
}`)
	f := prog.Funcs["f"]
	g := New(f)
	ipdom := g.PostDominators()
	exit := len(f.Blocks)
	if ipdom[exit] != exit {
		t.Errorf("virtual exit ipdom = %d", ipdom[exit])
	}
	// The join block post-dominates both arms; each arm's immediate
	// post-dominator is the join.
	var join int
	for b, preds := range g.Preds {
		if len(preds) == 2 {
			join = b
		}
	}
	for _, arm := range g.Preds[join] {
		if ipdom[arm] != join {
			t.Errorf("ipdom[b%d] = %d, want join b%d", arm, ipdom[arm], join)
		}
	}
}

func TestReachability(t *testing.T) {
	// break generates an unreachable continuation block.
	prog := lowerSrc(t, `
int f(int n) {
	for (int i = 0; i < n; i++) {
		if (i > 2) { break; }
	}
	return 0;
}`)
	f := prog.Funcs["f"]
	g := New(f)
	reach := g.ReachableFromEntry()
	unreachable := 0
	for _, r := range reach {
		if !r {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Skip("lowering produced no unreachable blocks for this input")
	}
}

func TestSCCsReverseTopological(t *testing.T) {
	// 0 -> 1 <-> 2 -> 3, 4 -> 4, 5 -> 0: components {3}, {1,2}, {0},
	// {4} and {5}, each after every component it reaches.
	succs := [][]int{{1}, {2}, {1, 3}, nil, {4}, {0}}
	got := SCCs(succs)
	want := [][]int{{3}, {2, 1}, {0}, {4}, {5}}
	if len(got) != len(want) {
		t.Fatalf("SCCs = %v, want %v", got, want)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("SCCs = %v, want %v", got, want)
		}
	}
	// A long call chain runs on the explicit work stack: one component per
	// node, the last node first.
	long := make([][]int, 100000)
	for v := range len(long) - 1 {
		long[v] = []int{v + 1}
	}
	if comps := SCCs(long); len(comps) != len(long) || comps[0][0] != len(long)-1 {
		t.Fatalf("long path: %d components, first %v", len(comps), comps[0])
	}
}
