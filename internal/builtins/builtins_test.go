package builtins

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// call invokes a builtin on a world, failing the test on error.
func call(t *testing.T, w *World, name string, args ...value.Value) value.Value {
	t.Helper()
	fn := w.Fns()[name]
	if fn == nil {
		t.Fatalf("no builtin %s", name)
	}
	v, cost, err := fn(args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if cost < 0 {
		t.Fatalf("%s: negative cost %d", name, cost)
	}
	return v
}

// callErr invokes a builtin expecting an error.
func callErr(t *testing.T, w *World, name string, args ...value.Value) error {
	t.Helper()
	fn := w.Fns()[name]
	if fn == nil {
		t.Fatalf("no builtin %s", name)
	}
	_, _, err := fn(args)
	if err == nil {
		t.Fatalf("%s: expected error", name)
	}
	return err
}

func TestRegistryConsistency(t *testing.T) {
	w := NewWorld()
	sigs := w.Sigs()
	effs := w.EffectTable()
	fns := w.Fns()
	if len(sigs) != len(effs) || len(sigs) != len(fns) {
		t.Fatalf("table sizes differ: %d sigs, %d effects, %d fns", len(sigs), len(effs), len(fns))
	}
	for name, sig := range sigs {
		if sig.Name != name {
			t.Errorf("sig name mismatch for %s", name)
		}
	}
}

func TestFilesystem(t *testing.T) {
	w := NewWorld()
	w.AddFile("a.dat", 1000)
	w.AddFile("b.dat", 500)
	if w.NumFiles() != 2 {
		t.Fatal("NumFiles")
	}
	if n := call(t, w, "file_count").AsInt(); n != 2 {
		t.Fatalf("file_count = %d", n)
	}
	fd := call(t, w, "fopen_idx", value.Int(0))
	if name := call(t, w, "fname", fd).AsString(); name != "a.dat" {
		t.Errorf("fname = %q", name)
	}
	buf := call(t, w, "fread_all", fd)
	if n := call(t, w, "buf_len", buf).AsInt(); n != 1000 {
		t.Errorf("buf_len = %d", n)
	}
	// Reading again at EOF yields an empty buffer.
	buf2 := call(t, w, "fread_all", fd)
	if n := call(t, w, "buf_len", buf2).AsInt(); n != 0 {
		t.Errorf("second read length = %d", n)
	}
	digest := call(t, w, "md5_buf", buf).AsString()
	if len(digest) != 32 {
		t.Errorf("digest = %q", digest)
	}
	call(t, w, "fclose", fd)
	callErr(t, w, "fclose", fd)              // double close
	callErr(t, w, "fread_all", fd)           // read after close
	callErr(t, w, "fopen_idx", value.Int(9)) // out of range

	// Content is deterministic across worlds.
	w2 := NewWorld()
	w2.AddFile("a.dat", 1000)
	fd2 := call(t, w2, "fopen_idx", value.Int(0))
	d2 := call(t, w2, "md5_buf", call(t, w2, "fread_all", fd2)).AsString()
	if d2 != digest {
		t.Error("file contents not deterministic across worlds")
	}
}

func TestRNGDeterminism(t *testing.T) {
	w1, w2 := NewWorld(), NewWorld()
	w1.Seed(7)
	w2.Seed(7)
	for i := 0; i < 10; i++ {
		a := call(t, w1, "rng_int").AsInt()
		b := call(t, w2, "rng_int").AsInt()
		if a != b {
			t.Fatal("RNG not deterministic for equal seeds")
		}
		if a < 0 {
			t.Fatal("rng_int must be non-negative")
		}
	}
	r := call(t, w1, "rng_range", value.Int(10)).AsInt()
	if r < 0 || r >= 10 {
		t.Errorf("rng_range out of bounds: %d", r)
	}
	f := call(t, w1, "rng_float").AsFloat()
	if f < 0 || f >= 1 {
		t.Errorf("rng_float out of bounds: %f", f)
	}
	callErr(t, w1, "rng_range", value.Int(0))
}

func TestHMMSubstrate(t *testing.T) {
	w := NewWorld()
	seq := call(t, w, "seq_gen", value.Int(32))
	mat := call(t, w, "matrix_alloc", value.Int(50))
	if w.LiveMatrices() != 1 {
		t.Error("live matrix count")
	}
	score1 := call(t, w, "hmm_score", seq, mat).AsInt()
	score2 := call(t, w, "hmm_score", seq, mat).AsInt()
	if score1 != score2 {
		t.Error("hmm_score must be deterministic for same inputs")
	}
	call(t, w, "histogram_add", value.Int(score1))
	if n := call(t, w, "histogram_count").AsInt(); n != 1 {
		t.Errorf("histogram count = %d", n)
	}
	call(t, w, "matrix_free", mat)
	if w.LiveMatrices() != 0 {
		t.Error("matrix not freed")
	}
	// Deferred deallocation: reads still work, double free detected.
	if s := call(t, w, "hmm_score", seq, mat).AsInt(); s != score1 {
		t.Error("deferred deallocation must keep the data readable")
	}
	callErr(t, w, "matrix_free", mat)
	callErr(t, w, "matrix_alloc", value.Int(0))
	callErr(t, w, "seq_gen", value.Int(-1))

	// Raw file bytes are not residues: scoring them is an argument error at
	// every size, not an out-of-range read of the emission scores.
	w.AddFile("raw.dat", 64)
	raw := call(t, w, "fread_all", call(t, w, "fopen_idx", value.Int(0)))
	for _, n := range []int64{1, 4, 100} {
		callErr(t, w, "hmm_score", raw, call(t, w, "matrix_alloc", value.Int(n)))
	}
}

// TestAllocSizeBounds checks the one bound on sizes the substrate allocates
// from program input: out-of-range sizes are argument errors, not host
// panics.
func TestAllocSizeBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int64
		ok   bool
	}{
		{"seq_gen", 0, false},
		{"seq_gen", 1, true},
		{"seq_gen", maxAllocSize, true},
		{"seq_gen", maxAllocSize + 1, false},
		{"seq_gen", 1 << 50, false},
		{"matrix_alloc", 0, false},
		{"matrix_alloc", 1, true},
		{"matrix_alloc", maxAllocSize, true},
		{"matrix_alloc", maxAllocSize + 1, false},
		{"matrix_alloc", 1 << 44, false},
		{"bitmap_new", -1000, false},
		{"bitmap_new", -1, false},
		{"bitmap_new", 0, true},
		{"bitmap_new", maxAllocSize, true},
		{"bitmap_new", maxAllocSize + 1, false},
	} {
		w := NewWorld()
		_, _, err := w.Fns()[tc.name]([]value.Value{value.Int(tc.n)})
		if (err == nil) != tc.ok {
			t.Errorf("%s(%d): err = %v, want ok = %v", tc.name, tc.n, err, tc.ok)
		}
	}
}

func TestMiningSubstrate(t *testing.T) {
	w := NewWorld()
	w.AddTransactions(5, 64, 8)
	if w.NumTransactions() != 5 {
		t.Fatal("NumTransactions")
	}
	row := call(t, w, "db_read_row", value.Int(2))
	n := call(t, w, "row_len", row).AsInt()
	if n != 8 {
		t.Errorf("row_len = %d", n)
	}
	seen := map[int64]bool{}
	for j := int64(0); j < n; j++ {
		it := call(t, w, "row_item", row, value.Int(j)).AsInt()
		if it < 0 || it >= 64 {
			t.Errorf("item out of range: %d", it)
		}
		if seen[it] {
			t.Errorf("duplicate item %d in row", it)
		}
		seen[it] = true
	}
	callErr(t, w, "row_item", row, value.Int(99))
	callErr(t, w, "db_read_row", value.Int(50))

	// Bitmaps.
	bm := call(t, w, "bitmap_new", value.Int(128))
	call(t, w, "bitmap_set", bm, value.Int(5))
	call(t, w, "bitmap_set", bm, value.Int(5)) // idempotent
	call(t, w, "bitmap_set", bm, value.Int(127))
	if !call(t, w, "bitmap_get", bm, value.Int(5)).AsBool() {
		t.Error("bit 5 not set")
	}
	if call(t, w, "bitmap_get", bm, value.Int(6)).AsBool() {
		t.Error("bit 6 spuriously set")
	}
	if n := call(t, w, "bitmap_count", bm).AsInt(); n != 2 {
		t.Errorf("bitmap_count = %d", n)
	}
	callErr(t, w, "bitmap_set", bm, value.Int(128))
	callErr(t, w, "bitmap_get", value.Int(99), value.Int(0))

	// Vectors and lists.
	v := call(t, w, "vec_new")
	call(t, w, "vec_push", v, value.Int(3))
	call(t, w, "vec_push", v, value.Int(1))
	if n := call(t, w, "vec_len", v).AsInt(); n != 2 {
		t.Errorf("vec_len = %d", n)
	}
	if got := w.VectorContents(int(v.AsInt())); len(got) != 2 || got[0] != "1" {
		t.Errorf("VectorContents = %v", got)
	}

	// Itemsets: intersections.
	a := call(t, w, "iset_new")
	b := call(t, w, "iset_new")
	for _, x := range []int64{1, 2, 3, 4} {
		call(t, w, "iset_insert", a, value.Int(x))
	}
	for _, x := range []int64{3, 4, 5} {
		call(t, w, "iset_insert", b, value.Int(x))
	}
	if n := call(t, w, "iset_intersect_size", a, b).AsInt(); n != 2 {
		t.Errorf("intersect = %d, want 2", n)
	}

	// Stats.
	call(t, w, "stats_add", value.Int(10))
	call(t, w, "stats_add", value.Int(20))
	if n := call(t, w, "stats_count").AsInt(); n != 2 {
		t.Errorf("stats_count = %d", n)
	}
	if m := call(t, w, "stats_mean").AsFloat(); m != 15 {
		t.Errorf("stats_mean = %f", m)
	}
}

func TestGraphSubstrate(t *testing.T) {
	w := NewWorld()
	w.BuildNodeList(4)
	if n := call(t, w, "graph_nodes").AsInt(); n != 4 {
		t.Fatalf("graph_nodes = %d", n)
	}
	node := call(t, w, "ll_head").AsInt()
	count := 0
	for node != 0 {
		count++
		call(t, w, "node_init", value.Int(node), value.Int(10))
		call(t, w, "graph_connect", value.Int(node), value.Int((node%4)+1))
		node = call(t, w, "ll_next", value.Int(node)).AsInt()
	}
	if count != 4 {
		t.Errorf("traversed %d nodes", count)
	}
	degs := w.GraphDegrees()
	for i, d := range degs {
		if d != 1 {
			t.Errorf("node %d degree %d", i, d)
		}
	}
	callErr(t, w, "ll_next", value.Int(99))
	callErr(t, w, "graph_connect", value.Int(1), value.Int(99))
}

func TestTraceSubstrate(t *testing.T) {
	w := NewWorld()
	w.AddBitmaps(3, 16)
	if w.NumBitmaps() != 3 {
		t.Fatal("NumBitmaps")
	}
	if n := call(t, w, "bmp_count").AsInt(); n != 3 {
		t.Fatalf("bmp_count = %d", n)
	}
	bm := call(t, w, "bmp_open", value.Int(1))
	path := call(t, w, "bmp_trace", bm).AsString()
	if !strings.HasPrefix(path, "path[1:") {
		t.Errorf("trace path = %q", path)
	}
	call(t, w, "img_write", value.Str(path))
	if got := w.OutImages(); len(got) != 1 || got[0] != path {
		t.Errorf("OutImages = %v", got)
	}
	callErr(t, w, "bmp_open", value.Int(9))
}

func TestKMeansSubstrate(t *testing.T) {
	w := NewWorld()
	w.SetupKMeans(30, 3)
	if n := call(t, w, "km_points").AsInt(); n != 30 {
		t.Fatalf("km_points = %d", n)
	}
	for i := int64(0); i < 30; i++ {
		c := call(t, w, "km_nearest", value.Int(i)).AsInt()
		if c < 0 || c >= 3 {
			t.Fatalf("nearest out of range: %d", c)
		}
		call(t, w, "km_update", value.Int(i), value.Int(c))
	}
	counts := w.KMCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 30 {
		t.Errorf("counts sum = %d", total)
	}
	call(t, w, "km_swap")
	callErr(t, w, "km_nearest", value.Int(99))
	callErr(t, w, "km_update", value.Int(0), value.Int(9))
}

func TestNetSubstrate(t *testing.T) {
	w := NewWorld()
	w.SetupPackets(5)
	if n := call(t, w, "pkt_count").AsInt(); n != 5 {
		t.Fatalf("pkt_count = %d", n)
	}
	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		pkt := call(t, w, "pkt_dequeue").AsInt()
		if seen[pkt] {
			t.Errorf("packet %d dequeued twice", pkt)
		}
		seen[pkt] = true
		route := call(t, w, "url_match", value.Int(pkt)).AsInt()
		if route < 0 {
			t.Errorf("packet %d unmatched", pkt)
		}
		call(t, w, "log_pkt", value.Int(pkt), value.Int(route))
		if u := call(t, w, "pkt_field", value.Int(pkt)).AsString(); !strings.Contains(u, "/") {
			t.Errorf("pkt_field = %q", u)
		}
	}
	if len(w.LogLines()) != 5 {
		t.Errorf("log lines = %d", len(w.LogLines()))
	}
	callErr(t, w, "pkt_dequeue") // pool exhausted
}

func TestCoreBuiltins(t *testing.T) {
	w := NewWorld()
	call(t, w, "print_int", value.Int(1))
	call(t, w, "print_str", value.Str("x"))
	call(t, w, "print_float", value.Float(1.5))
	if len(w.Console) != 3 || w.Console[2] != "1.5000" {
		t.Errorf("console = %v", w.Console)
	}
	if call(t, w, "itof", value.Int(3)).AsFloat() != 3 {
		t.Error("itof")
	}
	if call(t, w, "ftoi", value.Float(3.9)).AsInt() != 3 {
		t.Error("ftoi")
	}
	if call(t, w, "iabs", value.Int(-5)).AsInt() != 5 {
		t.Error("iabs")
	}
	if call(t, w, "int_to_str", value.Int(42)).AsString() != "42" {
		t.Error("int_to_str")
	}
	// burn is stateless: same input, same output, cost equals n.
	burn := w.Fns()["burn"]
	v1, c1, _ := burn([]value.Value{value.Int(640)})
	v2, c2, _ := burn([]value.Value{value.Int(640)})
	if !v1.Equal(v2) || c1 != 640 || c2 != 640 {
		t.Errorf("burn not stateless/mispriced: %v/%d vs %v/%d", v1, c1, v2, c2)
	}
	// Pure builtins are flagged for predicate use.
	for _, name := range []string{"itof", "ftoi", "iabs", "burn"} {
		if !w.Sigs()[name].Pure {
			t.Errorf("%s should be pure", name)
		}
	}
	if w.Sigs()["rng_int"].Pure {
		t.Error("rng_int must not be pure")
	}
}

// TestRegisterRejectsDuplicate: every builtin is registered once per
// process, and registering a name again is a programming error that
// panics before touching the shared tables.
func TestRegisterRejectsDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering print_str twice did not panic")
		}
	}()
	register("print_str", nil, ast.TVoid, effects.Decl{}, nil)
}
