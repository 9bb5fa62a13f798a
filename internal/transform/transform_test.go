package transform_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/types"
)

func sigs() map[string]*types.Sig {
	return map[string]*types.Sig{
		"fopen_i":   {Name: "fopen_i", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
		"fread":     {Name: "fread", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
		"fclose":    {Name: "fclose", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		"print_int": {Name: "print_int", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		"ll_next":   {Name: "ll_next", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
		"heavy":     {Name: "heavy", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
	}
}

func effTable() effects.Table {
	fs := effects.TagLoc("fs")
	console := effects.TagLoc("io.console")
	graph := effects.TagLoc("graph")
	return effects.Table{
		"fopen_i":   {Reads: []effects.Loc{fs}, Writes: []effects.Loc{fs}},
		"fread":     {Reads: []effects.Loc{fs}, Writes: []effects.Loc{fs}},
		"fclose":    {Reads: []effects.Loc{fs}, Writes: []effects.Loc{fs}},
		"print_int": {Writes: []effects.Loc{console}},
		"ll_next":   {Reads: []effects.Loc{graph}},
		"heavy":     {},
	}
}

func analyze(t *testing.T, src string) *pipeline.LoopAnalysis {
	t.Helper()
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile("t.mc", src),
		Sigs:    sigs(),
		Effects: effTable(),
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	loops := c.Loops("main")
	if len(loops) == 0 {
		t.Fatal("no loop")
	}
	// Pick the outermost loop with the most instructions (the bench
	// harness uses the profiler for this; tests select structurally).
	var best *pipeline.LoopAnalysis
	for _, lu := range loops {
		la, err := c.AnalyzeLoop("main", lu.Header)
		if err != nil {
			t.Fatal(err)
		}
		if la.Loop.Depth != 1 {
			continue
		}
		if best == nil || len(la.PDG.Nodes) > len(best.PDG.Nodes) {
			best = la
		}
	}
	if best == nil {
		t.Fatal("no outermost loop")
	}
	return best
}

func kinds(scheds []*transform.Schedule) map[transform.Kind]*transform.Schedule {
	m := map[transform.Kind]*transform.Schedule{}
	for _, s := range scheds {
		if _, dup := m[s.Kind]; !dup {
			m[s.Kind] = s
		}
	}
	return m
}

// md5Full: file ops and print both fully commutative (DOALL case).
const md5Full = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < 8; i++) {
		#pragma commset member FSET(i), SELF
		{
			int fp = fopen_i(i);
			total += heavy(fread(fp));
			fclose(fp);
		}
		#pragma commset member FSET(i), SELF
		{
			print_int(total);
		}
	}
	print_int(total);
}
`

// md5Det: deterministic output — print keeps Group membership only.
const md5Det = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2
void main() {
	int total = 0;
	for (int i = 0; i < 8; i++) {
		#pragma commset member FSET(i), SELF
		{
			int fp = fopen_i(i);
			total += heavy(fread(fp));
			fclose(fp);
		}
		#pragma commset member FSET(i)
		{
			print_int(total);
		}
	}
	print_int(total);
}
`

func TestMd5FullEnablesDOALL(t *testing.T) {
	la := analyze(t, md5Full)
	ks := kinds(transform.Schedules(la, nil, 8))
	if ks[transform.DOALL] == nil {
		g := transform.BuildUnitGraph(la, nil)
		t.Fatalf("DOALL not applicable; LC=%v IntoControl=%v", g.LC, g.IntoControl)
	}
	if ks[transform.Sequential] == nil {
		t.Error("sequential schedule always expected")
	}
	d := ks[transform.DOALL]
	if len(d.SharedSlots) == 0 {
		t.Error("expected shared slot for total")
	}
}

func TestMd5DetForcesPipeline(t *testing.T) {
	la := analyze(t, md5Det)
	ks := kinds(transform.Schedules(la, nil, 8))
	if ks[transform.DOALL] != nil {
		t.Error("DOALL must not apply with deterministic print (group-only membership)")
	}
	ps := ks[transform.PSDSWP]
	if ps == nil {
		t.Fatal("PS-DSWP expected")
	}
	// The parallel stage must contain the digest unit; the print unit must
	// sit in a sequential stage.
	var sawParallel, printSequential bool
	for _, st := range ps.Stages {
		if st.Parallel && len(st.Units) > 0 {
			sawParallel = true
		}
	}
	last := ps.Stages[len(ps.Stages)-1]
	if !last.Parallel && len(last.Units) > 0 {
		printSequential = true
	}
	if !sawParallel {
		t.Errorf("no parallel stage in %v", ps)
	}
	if !printSequential {
		t.Errorf("print not in trailing sequential stage: %v", ps.Stages)
	}
}

func TestPointerChasingDisablesDOALL(t *testing.T) {
	// em3d shape: the loop traverses a linked list; the traversal feeds the
	// loop condition, so DOALL is inapplicable, but PS-DSWP can replicate
	// the heavy unit.
	la := analyze(t, `
#pragma commset member SELF
int rng(int x) { return fread(x); }
void main() {
	int node = ll_next(0);
	while (node != 0) {
		int v = heavy(rng(node));
		print_int(v);
		node = ll_next(node);
	}
}`)
	ks := kinds(transform.Schedules(la, nil, 8))
	if ks[transform.DOALL] != nil {
		t.Error("DOALL must not apply to pointer-chasing loop")
	}
	if ks[transform.DSWP] == nil && ks[transform.PSDSWP] == nil {
		t.Error("expected a pipeline schedule")
	}
}

func TestUnannotatedLoopSequentialOnly(t *testing.T) {
	// Without annotations the I/O dependences keep the loop sequential:
	// DOALL inapplicable and any pipeline keeps the body in one stage.
	la := analyze(t, `
void main() {
	for (int i = 0; i < 8; i++) {
		int fp = fopen_i(i);
		print_int(fread(fp));
		fclose(fp);
	}
}`)
	ks := kinds(transform.Schedules(la, nil, 8))
	if ks[transform.DOALL] != nil {
		t.Error("DOALL must not apply without annotations")
	}
	if ps := ks[transform.PSDSWP]; ps != nil {
		for _, st := range ps.Stages {
			if st.Parallel && len(st.Units) > 0 {
				t.Errorf("parallel stage without annotations: %v", ps.Stages)
			}
		}
	}
}

func TestEstimatesOrdering(t *testing.T) {
	la := analyze(t, md5Full)
	scheds := transform.Schedules(la, nil, 8)
	var seq, doall *transform.Schedule
	for _, s := range scheds {
		switch s.Kind {
		case transform.Sequential:
			seq = s
		case transform.DOALL:
			doall = s
		}
	}
	if seq.Estimate != 1 {
		t.Errorf("sequential estimate = %v", seq.Estimate)
	}
	if doall == nil || doall.Estimate <= 1 {
		t.Errorf("DOALL estimate should exceed 1: %+v", doall)
	}
}

func TestScheduleStrings(t *testing.T) {
	la := analyze(t, md5Det)
	for _, s := range transform.Schedules(la, nil, 8) {
		if s.String() == "" {
			t.Errorf("empty schedule string for %v", s.Kind)
		}
	}
}

func TestDSWPStagesRespectTopoOrder(t *testing.T) {
	la := analyze(t, md5Det)
	g := transform.BuildUnitGraph(la, nil)
	s := transform.ApplyDSWP(g, 8)
	if s == nil {
		t.Fatal("DSWP expected")
	}
	// Unit stage assignment must not violate intra-iteration dependences:
	// if u1 -> u2 intra, stage(u1) <= stage(u2).
	stageOf := map[int]int{}
	for si, st := range s.Stages {
		for _, u := range st.Units {
			stageOf[u] = si
		}
	}
	for from, tos := range g.Intra {
		if from == transform.ControlUnit {
			continue
		}
		for _, to := range tos {
			if to == transform.ControlUnit {
				continue
			}
			if stageOf[from] > stageOf[to] {
				t.Errorf("intra dep %d->%d crosses backwards (stages %d->%d)",
					from, to, stageOf[from], stageOf[to])
			}
		}
	}
}
