package effects

import (
	"slices"
	"testing"

	"repro/internal/ir"
)

func callInstr(name string) *ir.Instr {
	return &ir.Instr{Op: ir.OpCall, Dst: -1, Name: name}
}

// buildProg wires: leaf (builtin io) <- mid <- top, plus recursive pair
// a <-> b where b also stores a global.
func buildProg() *ir.Program {
	p := &ir.Program{}
	mk := func(name string, body ...*ir.Instr) {
		f := &ir.Func{Name: name}
		b := f.NewBlock()
		b.Instrs = append(b.Instrs, body...)
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet})
		f.Renumber()
		p.AddFunc(f)
	}
	mk("mid", callInstr("io_write"))
	mk("top",
		callInstr("mid"),
		&ir.Instr{Op: ir.OpLoadGlobal, Dst: 0, Name: "counter"},
	)
	mk("a", callInstr("b"))
	mk("b",
		callInstr("a"),
		&ir.Instr{Op: ir.OpStoreGlobal, Name: "shared", A: 0},
	)
	return p
}

func testTable() Table {
	return Table{
		"io_write": {Writes: []Loc{TagLoc("io")}},
		"io_read":  {Reads: []Loc{TagLoc("io")}},
	}
}

func TestSummarizeTransitive(t *testing.T) {
	s := Summarize(buildProg(), testTable())
	mid := s.Fns["mid"]
	if !slices.Contains(mid.Writes, TagLoc("io")) {
		t.Error("mid must write io")
	}
	top := s.Fns["top"]
	if !slices.Contains(top.Writes, TagLoc("io")) {
		t.Error("top must inherit mid's io write")
	}
	if !slices.Contains(top.Reads, GlobalLoc("counter")) {
		t.Error("top must read g:counter")
	}
}

func TestSummarizeRecursionFixpoint(t *testing.T) {
	s := Summarize(buildProg(), testTable())
	for _, fn := range []string{"a", "b"} {
		if !slices.Contains(s.Fns[fn].Writes, GlobalLoc("shared")) {
			t.Errorf("%s must write g:shared through the recursive cycle", fn)
		}
	}
}

func TestCallEffects(t *testing.T) {
	s := Summarize(buildProg(), testTable())
	r, w := s.CallEffects("top")
	if !slices.Contains(w, TagLoc("io")) || !slices.Contains(r, GlobalLoc("counter")) {
		t.Errorf("top effects r=%v w=%v", r, w)
	}
	r, w = s.CallEffects("io_read")
	if !slices.Contains(r, TagLoc("io")) || len(w) != 0 {
		t.Errorf("builtin effects r=%v w=%v", r, w)
	}
	r, w = s.CallEffects("unknown")
	if len(r) != 0 || len(w) != 0 {
		t.Error("unknown callee must have empty effects")
	}
}

func TestLocListOperations(t *testing.T) {
	a := sortUnique([]Loc{TagLoc("b"), TagLoc("a"), TagLoc("b")})
	if !slices.Equal(a, []Loc{TagLoc("a"), TagLoc("b")}) {
		t.Errorf("sortUnique = %v", a)
	}
	if u := Union(a, []Loc{TagLoc("a")}); &u[0] != &a[0] || len(u) != 2 {
		t.Errorf("a union adding nothing must return the list itself, got %v", u)
	}
	if u := Union(nil, a); &u[0] != &a[0] {
		t.Errorf("Union(nil, a) = %v", u)
	}
	if u := Union(a, nil); len(u) != 2 {
		t.Errorf("Union(a, nil) = %v", u)
	}
	u := Union(a, []Loc{TagLoc("0"), TagLoc("b"), TagLoc("c")})
	if !slices.Equal(u, []Loc{TagLoc("0"), TagLoc("a"), TagLoc("b"), TagLoc("c")}) {
		t.Errorf("Union = %v", u)
	}
	if !slices.Equal(a, []Loc{TagLoc("a"), TagLoc("b")}) {
		t.Errorf("Union modified its input: %v", a)
	}
}

func TestLocConstructors(t *testing.T) {
	if GlobalLoc("x") != Loc("g:x") {
		t.Error("GlobalLoc format")
	}
	if TagLoc("fs") != Loc("t:fs") {
		t.Error("TagLoc format")
	}
}

func TestInstRendering(t *testing.T) {
	if got := (Inst{}).String(); got != "" {
		t.Errorf("zero Inst = %q, want empty", got)
	}
	if got := ConstInst(3).String(); got != "#3" {
		t.Errorf("ConstInst(3) = %q", got)
	}
	if got := SymInst("g:cand").String(); got != "#<g:cand>" {
		t.Errorf("SymInst = %q", got)
	}
	q := QLoc{Base: TagLoc("bitmaps"), Inst: ConstInst(3)}
	if got := q.String(); got != "t:bitmaps#3" {
		t.Errorf("QLoc = %q", got)
	}
	if got := (QLoc{Base: TagLoc("bitmaps")}).String(); got != "t:bitmaps" {
		t.Errorf("unqualified QLoc = %q", got)
	}
}

func TestInstanceArgAndAllocatesFresh(t *testing.T) {
	bm := TagLoc("bitmaps")
	tbl := Table{
		"bitmap_new": {
			Reads:     []Loc{bm},
			Writes:    []Loc{bm},
			Allocates: []Loc{bm},
		},
		"bitmap_set": {
			Reads:      []Loc{bm},
			Writes:     []Loc{bm},
			KeyedBy:    map[Loc]int{bm: 1},
			InstanceBy: map[Loc]int{bm: 0},
		},
	}
	s := Summarize(buildProg(), tbl)

	if idx, ok := s.InstanceArg("bitmap_set", bm); !ok || idx != 0 {
		t.Errorf("InstanceArg(bitmap_set) = %d, %v; want 0, true", idx, ok)
	}
	if _, ok := s.InstanceArg("bitmap_set", TagLoc("io")); ok {
		t.Error("InstanceArg must miss for an uninstanced location")
	}
	if _, ok := s.InstanceArg("bitmap_new", bm); ok {
		t.Error("InstanceArg must miss for a declaration without InstanceBy")
	}
	if _, ok := s.InstanceArg("nope", bm); ok {
		t.Error("InstanceArg must miss for an unknown callee")
	}

	if !s.AllocatesFresh("bitmap_new", bm) {
		t.Error("bitmap_new must allocate a fresh bitmaps handle")
	}
	if s.AllocatesFresh("bitmap_new", TagLoc("io")) {
		t.Error("AllocatesFresh must miss for a location not in Allocates")
	}
	if s.AllocatesFresh("bitmap_set", bm) {
		t.Error("bitmap_set does not allocate")
	}

	if k, ok := s.KeyedArg("bitmap_set", bm); !ok || k != 1 {
		t.Errorf("KeyedArg(bitmap_set) = %d, %v; want 1, true", k, ok)
	}
}
