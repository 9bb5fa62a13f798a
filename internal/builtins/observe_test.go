package builtins

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/vm/value"
)

// observedWorld builds a world that holds something in every observable
// location: console lines, log lines and images, open descriptors and
// buffers, live and freed matrices, a histogram, bitmaps, vectors,
// itemsets, lists, eclat stats, a database cursor, em3d nodes, trace
// bitmaps, kmeans rows and packet routes.
func observedWorld(t *testing.T) *World {
	w := NewWorld()
	w.AddFile("a.txt", 100)
	w.AddFile("b.txt", 60)
	call(t, w, "print_int", value.Int(1))
	call(t, w, "fwrite_line", value.Str("log"))
	w.outImages = append(w.outImages, "img")
	fd := call(t, w, "fopen_idx", value.Int(0))
	call(t, w, "fopen_idx", value.Int(1))
	call(t, w, "fread_all", fd)
	for _, n := range []int64{3, 4, 5} {
		call(t, w, "matrix_alloc", value.Int(n))
	}
	call(t, w, "matrix_free", value.Int(2))
	w.histo[7], w.histoCount = 2, 2
	for i := 0; i < 2; i++ {
		bm := call(t, w, "bitmap_new", value.Int(130))
		call(t, w, "bitmap_set", bm, value.Int(int64(3+i)))
		v := call(t, w, "vec_new")
		call(t, w, "vec_push", v, value.Int(int64(10+i)))
		s := call(t, w, "iset_new")
		call(t, w, "iset_insert", s, value.Int(int64(20+i)))
		w.lists = append(w.lists, []int64{int64(30 + i)})
		w.traceBitmaps = append(w.traceBitmaps, traceBitmap{w: 2, h: 1, bits: []byte{byte(i), 1}})
	}
	w.statsN, w.statsSum = 3, 1.5
	w.dbCursor = 4
	w.nodes = []emNode{{next: 1, degree: 2, value: 0.5}, {next: -1, degree: 1, value: 0.25}}
	w.kmCenters = [][]float64{{1, 2}, {3, 4}}
	w.kmNew = [][]float64{{0.5, 0.5}, {1, 1}}
	w.kmCounts, w.kmAssign = []int64{1, 2}, []int64{0, 1, 1}
	w.pktNext, w.routes = 1, []string{"r0"}
	return w
}

// TestObservableDiffMatchesFullRendering applies one change of each kind
// of observable location to a clone of a snapshot world and checks
// ObservableDiff against the whole-world renderings: every key that the
// two ObservableState maps render differently (or that one world lacks)
// is in the diff's maps, every key in them carries ObservableState's
// rendering in each world that has it, the first divergence in key order
// (the one the commute oracle reports) is the same, and worlds that
// agree render nothing.
func TestObservableDiffMatchesFullRendering(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, w *World)
		keys   int // keys whose full renderings differ
	}{
		{"unchanged", func(*testing.T, *World) {}, 0},
		{"console", func(t *testing.T, w *World) { call(t, w, "print_int", value.Int(2)) }, 1},
		{"console reordered", func(t *testing.T, w *World) {
			w.Console = append([]string{"x"}, w.Console...)
		}, 1},
		{"log", func(t *testing.T, w *World) { call(t, w, "fwrite_line", value.Str("more")) }, 1},
		{"file read", func(t *testing.T, w *World) { call(t, w, "fread_all", value.Int(2)) }, 2}, // and a fresh buffer
		{"file closed", func(t *testing.T, w *World) { call(t, w, "fclose", value.Int(1)) }, 1},
		{"fresh file", func(t *testing.T, w *World) { call(t, w, "fopen_idx", value.Int(1)) }, 1},
		{"fresh buffer", func(t *testing.T, w *World) { call(t, w, "seq_gen", value.Int(8)) }, 1},
		{"matrix state count", func(t *testing.T, w *World) { w.matrices[3] = 6 }, 1},
		{"matrix freed", func(t *testing.T, w *World) { call(t, w, "matrix_free", value.Int(3)) }, 1},
		{"matrix dropped", func(t *testing.T, w *World) { delete(w.matrices, 1) }, 1},
		{"fresh matrix", func(t *testing.T, w *World) { call(t, w, "matrix_alloc", value.Int(2)) }, 1},
		{"fresh matrix freed", func(t *testing.T, w *World) {
			h := call(t, w, "matrix_alloc", value.Int(2))
			call(t, w, "matrix_free", h)
		}, 1},
		{"histogram", func(t *testing.T, w *World) { call(t, w, "histogram_add", value.Int(9)) }, 2},
		{"bitmap", func(t *testing.T, w *World) { call(t, w, "bitmap_set", value.Int(1), value.Int(100)) }, 1},
		{"fresh bitmap", func(t *testing.T, w *World) { call(t, w, "bitmap_new", value.Int(8)) }, 1},
		{"vector", func(t *testing.T, w *World) { call(t, w, "vec_push", value.Int(0), value.Int(5)) }, 1},
		{"fresh vector", func(t *testing.T, w *World) { call(t, w, "vec_push", call(t, w, "vec_new"), value.Int(1)) }, 1},
		{"itemset", func(t *testing.T, w *World) { call(t, w, "iset_insert", value.Int(1), value.Int(5)) }, 1},
		{"list", func(t *testing.T, w *World) { w.lists[0] = append(w.lists[0], 6) }, 1},
		{"fresh list", func(t *testing.T, w *World) { w.lists = append(w.lists, []int64{1}) }, 1},
		{"stats", func(t *testing.T, w *World) { w.statsSum += 1 }, 1},
		{"db cursor", func(t *testing.T, w *World) { w.dbCursor++ }, 1},
		{"em3d node", func(t *testing.T, w *World) { w.nodes[1].value = 0.75 }, 1},
		{"trace bitmap", func(t *testing.T, w *World) { w.traceBitmaps[0].bits[0] = 9 }, 1},
		{"kmeans row", func(t *testing.T, w *World) { w.kmNew[1][0] = 2 }, 1},
		{"kmeans count", func(t *testing.T, w *World) { w.kmCounts[0]++ }, 1},
		{"packet route", func(t *testing.T, w *World) { w.routes = append(w.routes, "r1") }, 1},
		{"packet cursor", func(t *testing.T, w *World) { w.pktNext++ }, 1},
		// A change below the rendering's precision is compared, and
		// rendered alike.
		{"float noise", func(t *testing.T, w *World) { w.kmCenters[0][0] += 1e-12 }, 0},
	} {
		snap := observedWorld(t)
		base := snap.Baseline()
		a, b := snap.Clone(), snap.Clone()
		// Both worlds allocate past the baseline, so every fresh family
		// holds something in each.
		for _, w := range []*World{a, b} {
			call(t, w, "matrix_alloc", value.Int(2))
			call(t, w, "bitmap_new", value.Int(64))
			call(t, w, "fopen_idx", value.Int(0))
		}
		tc.change(t, b)

		fa, fb := a.ObservableState(base), b.ObservableState(base)
		da, db := ObservableDiff(a, b, base)
		differs := 0
		for _, k := range unionKeys(fa, fb) {
			va, inA := fa[k]
			vb, inB := fb[k]
			if inA == inB && va == vb {
				continue
			}
			differs++
			if _, ok := da[k]; ok != inA {
				t.Errorf("%s: key %s: in A's diff %v, in A's world %v", tc.name, k, ok, inA)
			}
			if _, ok := db[k]; ok != inB {
				t.Errorf("%s: key %s: in B's diff %v, in B's world %v", tc.name, k, ok, inB)
			}
		}
		for _, side := range []struct {
			diff, full map[string]string
		}{{da, fa}, {db, fb}} {
			for k, v := range side.diff {
				if want, ok := side.full[k]; !ok || v != want {
					t.Errorf("%s: diff renders %s as %.40q, the whole world as %.40q (present %v)", tc.name, k, v, want, ok)
				}
			}
		}
		if got, want := firstDivergence(da, db), firstDivergence(fa, fb); got != want {
			t.Errorf("%s: first divergence %q, whole worlds' %q", tc.name, got, want)
		}
		if differs != tc.keys {
			t.Errorf("%s: %d keys differ, want %d", tc.name, differs, tc.keys)
		}
		if tc.name == "unchanged" && len(da)+len(db) != 0 {
			t.Errorf("equal worlds rendered %d keys", len(da)+len(db))
		}
	}
}

func unionKeys(a, b map[string]string) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// firstDivergence renders the first key, in sorted order, that a and b
// hold differently, as the commute oracle's diff names it.
func firstDivergence(a, b map[string]string) string {
	keys := unionKeys(a, b)
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("world %s: A;B=%q B;A=%q", k, a[k], b[k])
		}
	}
	return ""
}
