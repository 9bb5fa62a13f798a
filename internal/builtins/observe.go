package builtins

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ObservableState renders the world's observable locations for the
// commute oracle's diff, applying the same quotients the static verifier
// uses for its update models:
//
//   - append streams (console, output files, per-handle containers) are
//     compared as sorted multisets — the annotation licenses reordering
//     the stream, not changing its contents;
//   - the RNG seed (UScramble) is excluded — draws are taped separately;
//   - float accumulators (UBump) render through %.9g so IEEE
//     reassociation noise does not read as a semantic difference;
//   - handles allocated after base are quotiented by renaming: rendered
//     as a multiset of contents, while pre-existing handles keep their
//     identity as the map key.
func (w *World) ObservableState(base Baseline) map[string]string {
	out := map[string]string{}
	for _, s := range scalars {
		out[s.key] = s.render(w, base)
	}
	for fd, f := range w.openFiles {
		if fd < base.NextFD {
			out[fdKey(fd)] = renderFD(fd, f)
		}
	}
	for h, n := range w.matrices {
		if h < base.NextMat {
			out[matrixKey(h)] = renderMat(h, n)
		}
	}
	for h, freed := range w.freedMats {
		if h < base.NextMat {
			out[freedKey(h)] = renderFreed(h, freed)
		}
	}
	renderHandles(out, "geti.bitmap", base.Bitmaps, w.bitmaps, renderBitmap)
	renderHandles(out, "geti.vec", base.Vectors, w.vectors, renderInt64Multiset)
	renderHandles(out, "eclat.iset", base.Itemsets, w.itemsets, renderInt64Multiset)
	renderHandles(out, "eclat.list", base.Lists, w.lists, renderInt64Multiset)
	renderHandles(out, "trace.bmp", base.TraceBitmaps, w.traceBitmaps, renderTraceBitmap)
	return out
}

// ObservableDiff compares two worlds replayed from one snapshot, whose
// baseline is base, location by location, and renders only the locations
// on which they may differ: each map holds, for every such key of
// ObservableState(base) that exists in its world, the rendering
// ObservableState gives it. A key in neither map renders alike in both
// worlds, so two worlds that agree render nothing. A pre-existing matrix,
// say, compares by state count, since its cells are a pure function of
// handle and count; a family of fresh handles is rendered only when the
// two worlds' fresh handles differ.
func ObservableDiff(a, b *World, base Baseline) (ra, rb map[string]string) {
	ra, rb = map[string]string{}, map[string]string{}
	for _, s := range scalars {
		if !s.same(a, b, base) {
			ra[s.key], rb[s.key] = s.render(a, base), s.render(b, base)
		}
	}
	diffKeyed(ra, rb, a.openFiles, b.openFiles, base.NextFD, fdKey, sameFD, renderFD)
	diffKeyed(ra, rb, a.matrices, b.matrices, base.NextMat, matrixKey, eq[int], renderMat)
	diffKeyed(ra, rb, a.freedMats, b.freedMats, base.NextMat, freedKey, eq[bool], renderFreed)
	diffHandles(ra, rb, "geti.bitmap", base.Bitmaps, a.bitmaps, b.bitmaps, slices.Equal[[]uint64], renderBitmap)
	diffHandles(ra, rb, "geti.vec", base.Vectors, a.vectors, b.vectors, slices.Equal[[]int64], renderInt64Multiset)
	diffHandles(ra, rb, "eclat.iset", base.Itemsets, a.itemsets, b.itemsets, slices.Equal[[]int64], renderInt64Multiset)
	diffHandles(ra, rb, "eclat.list", base.Lists, a.lists, b.lists, slices.Equal[[]int64], renderInt64Multiset)
	diffHandles(ra, rb, "trace.bmp", base.TraceBitmaps, a.traceBitmaps, b.traceBitmaps, sameTraceBitmap, renderTraceBitmap)
	return ra, rb
}

// scalars are the observable locations rendered under one key each: how
// ObservableState renders the location, and whether two worlds hold it
// alike (false only where their renderings may differ).
var scalars = []struct {
	key    string
	render func(w *World, base Baseline) string
	same   func(a, b *World, base Baseline) bool
}{
	{"io.console",
		func(w *World, _ Baseline) string { return multiset(w.Console) },
		func(a, b *World, _ Baseline) bool { return slices.Equal(a.Console, b.Console) }},
	{"fs.log",
		func(w *World, _ Baseline) string { return multiset(w.logLines) },
		func(a, b *World, _ Baseline) bool { return slices.Equal(a.logLines, b.logLines) }},
	{"fs.images",
		func(w *World, _ Baseline) string { return multiset(w.outImages) },
		func(a, b *World, _ Baseline) bool { return slices.Equal(a.outImages, b.outImages) }},
	{"fs.fd.fresh",
		func(w *World, base Baseline) string { return renderFresh(w.openFiles, base.NextFD, renderFD) },
		func(a, b *World, base Baseline) bool { return sameFresh(a.openFiles, b.openFiles, base.NextFD, sameFD) }},
	{"fs.buf.fresh",
		func(w *World, base Baseline) string {
			var fresh []string
			for i := base.Bufs; i < len(w.bufs); i++ {
				fresh = append(fresh, fmt.Sprintf("len:%d", w.bufs[i].len()))
			}
			return multiset(fresh)
		},
		func(a, b *World, base Baseline) bool {
			return slices.EqualFunc(tail(a.bufs, base.Bufs), tail(b.bufs, base.Bufs), func(x, y buffer) bool { return x.len() == y.len() })
		}},
	{"hmm.mat.fresh",
		func(w *World, base Baseline) string { return renderFresh(w.matrices, base.NextMat, renderMat) },
		func(a, b *World, base Baseline) bool { return sameFresh(a.matrices, b.matrices, base.NextMat, eq[int]) }},
	{"hmm.histo",
		func(w *World, _ Baseline) string {
			histo := make([]string, 0, len(w.histo))
			for k, v := range w.histo {
				histo = append(histo, fmt.Sprintf("%d=%d", k, v))
			}
			return multiset(histo)
		},
		func(a, b *World, _ Baseline) bool { return maps.Equal(a.histo, b.histo) }},
	{"hmm.histo.count",
		func(w *World, _ Baseline) string { return fmt.Sprint(w.histoCount) },
		func(a, b *World, _ Baseline) bool { return a.histoCount == b.histoCount }},
	{"eclat.stats",
		func(w *World, _ Baseline) string { return fmt.Sprintf("n=%d sum=%.9g", w.statsN, w.statsSum) },
		func(a, b *World, _ Baseline) bool { return a.statsN == b.statsN && sameFloat(a.statsSum, b.statsSum) }},
	{"db.cursor",
		func(w *World, _ Baseline) string { return fmt.Sprint(w.dbCursor) },
		func(a, b *World, _ Baseline) bool { return a.dbCursor == b.dbCursor }},
	{"em.nodes",
		func(w *World, _ Baseline) string {
			nodes := make([]string, len(w.nodes))
			for i, n := range w.nodes {
				nodes[i] = fmt.Sprintf("%d:%d:%.9g", n.next, n.degree, n.value)
			}
			return strings.Join(nodes, ";")
		},
		func(a, b *World, _ Baseline) bool {
			return slices.EqualFunc(a.nodes, b.nodes, func(x, y emNode) bool {
				return x.next == y.next && x.degree == y.degree && sameFloat(x.value, y.value)
			})
		}},
	{"km.centers",
		func(w *World, _ Baseline) string { return renderFloatRows(w.kmCenters) },
		func(a, b *World, _ Baseline) bool { return sameFloatRows(a.kmCenters, b.kmCenters) }},
	{"km.new",
		func(w *World, _ Baseline) string { return renderFloatRows(w.kmNew) },
		func(a, b *World, _ Baseline) bool { return sameFloatRows(a.kmNew, b.kmNew) }},
	{"km.counts",
		func(w *World, _ Baseline) string { return renderInt64s(w.kmCounts) },
		func(a, b *World, _ Baseline) bool { return slices.Equal(a.kmCounts, b.kmCounts) }},
	{"km.assign",
		func(w *World, _ Baseline) string { return renderInt64s(w.kmAssign) },
		func(a, b *World, _ Baseline) bool { return slices.Equal(a.kmAssign, b.kmAssign) }},
	{"pkt.next",
		func(w *World, _ Baseline) string { return fmt.Sprint(w.pktNext) },
		func(a, b *World, _ Baseline) bool { return a.pktNext == b.pktNext }},
	{"pkt.routes",
		func(w *World, _ Baseline) string { return strings.Join(w.routes, ";") },
		func(a, b *World, _ Baseline) bool { return slices.Equal(a.routes, b.routes) }},
}

// The keyed families: open descriptors, matrices and freed matrices
// before the baseline keep their handle as their key.

func fdKey(fd int64) string            { return fmt.Sprintf("fs.fd:%d", fd) }
func renderFD(_ int64, f *file) string { return fmt.Sprintf("%s:%d", f.name, f.pos) }
func sameFD(f, g *file) bool           { return f.name == g.name && f.pos == g.pos }
func matrixKey(h int64) string         { return fmt.Sprintf("hmm.mat:%d", h) }
func freedKey(h int64) string          { return fmt.Sprintf("hmm.freed:%d", h) }
func renderFreed(int64, bool) string   { return "freed" }
func eq[T comparable](x, y T) bool     { return x == y }
func sameFloat(x, y float64) bool      { return math.Float64bits(x) == math.Float64bits(y) }
func renderBitmap(b []uint64) string   { return fmt.Sprintf("%x", b) }
func sameTraceBitmap(x, y traceBitmap) bool {
	return x.w == y.w && x.h == y.h && slices.Equal(x.bits, y.bits)
}

func renderTraceBitmap(tb traceBitmap) string {
	return fmt.Sprintf("%dx%d:%x", tb.w, tb.h, tb.bits)
}

// renderMat renders matrix h with n states. A matrix is a pure function
// of handle and state count, so its rendering is memoized by both
// (matrices recur on every replay diff).
func renderMat(h int64, n int) string {
	return renderMemo.get(matKey{h, n}, func() string { return renderMatrix(h, n) })
}

func sameFloatRows(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool { return slices.EqualFunc(x, y, sameFloat) })
}

// diffKeyed adds to ra and rb the pre-baseline entries of one map-backed
// family that differ between ma and mb or exist in one of them only.
func diffKeyed[V any](ra, rb map[string]string, ma, mb map[int64]V, base int64,
	key func(int64) string, same func(x, y V) bool, render func(int64, V) string) {
	for h, x := range ma {
		if h >= base {
			continue
		}
		y, ok := mb[h]
		if ok && same(x, y) {
			continue
		}
		ra[key(h)] = render(h, x)
		if ok {
			rb[key(h)] = render(h, y)
		}
	}
	for h, y := range mb {
		if _, ok := ma[h]; !ok && h < base {
			rb[key(h)] = render(h, y)
		}
	}
}

// renderFresh renders the entries of m at and past base as the multiset
// that quotients their handles by renaming.
func renderFresh[V any](m map[int64]V, base int64, render func(int64, V) string) string {
	var fresh []string
	for h, v := range m {
		if h >= base {
			fresh = append(fresh, render(h, v))
		}
	}
	return multiset(fresh)
}

// sameFresh reports whether ma and mb hold the same entries at and past
// base, handle for handle.
func sameFresh[V any](ma, mb map[int64]V, base int64, same func(x, y V) bool) bool {
	n := 0
	for h, x := range ma {
		if h < base {
			continue
		}
		n++
		if y, ok := mb[h]; !ok || !same(x, y) {
			return false
		}
	}
	for h := range mb {
		if h >= base {
			n--
		}
	}
	return n == 0
}

// renderHandles keys pre-baseline handles by index and folds fresh ones
// into a renaming-quotient multiset.
func renderHandles[T any](out map[string]string, prefix string, base int, s []T, render func(T) string) {
	var fresh []string
	for i, v := range s {
		if i < base {
			out[fmt.Sprintf("%s:%d", prefix, i)] = render(v)
		} else {
			fresh = append(fresh, render(v))
		}
	}
	out[prefix+".fresh"] = multiset(fresh)
}

// diffHandles adds to ra and rb the keys of one renderHandles family on
// which sa and sb may differ: each pre-baseline handle the two hold
// differently (or only one holds), and the fresh multiset unless the
// fresh handles are equal one by one.
func diffHandles[T any](ra, rb map[string]string, prefix string, base int, sa, sb []T,
	same func(x, y T) bool, render func(T) string) {
	for i := 0; i < base && (i < len(sa) || i < len(sb)); i++ {
		inA, inB := i < len(sa), i < len(sb)
		if inA && inB && same(sa[i], sb[i]) {
			continue
		}
		key := fmt.Sprintf("%s:%d", prefix, i)
		if inA {
			ra[key] = render(sa[i])
		}
		if inB {
			rb[key] = render(sb[i])
		}
	}
	if fa, fb := tail(sa, base), tail(sb, base); !slices.EqualFunc(fa, fb, same) {
		ra[prefix+".fresh"] = renderHandleMultiset(fa, render)
		rb[prefix+".fresh"] = renderHandleMultiset(fb, render)
	}
}

func renderHandleMultiset[T any](s []T, render func(T) string) string {
	fresh := make([]string, len(s))
	for i, v := range s {
		fresh[i] = render(v)
	}
	return multiset(fresh)
}

// tail returns s from index i on (empty when s is shorter).
func tail[T any](s []T, i int) []T {
	if i >= len(s) {
		return nil
	}
	return s[max(i, 0):]
}

func multiset(s []string) string {
	cp := append([]string(nil), s...)
	sort.Strings(cp)
	return strings.Join(cp, "␞") // ␞ separator: never in payloads
}

func renderInt64s(s []int64) string {
	buf := make([]byte, 0, 8*len(s))
	for i, v := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	return string(buf)
}

func renderInt64Multiset(s []int64) string {
	cp := append([]int64(nil), s...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return renderInt64s(cp)
}

// renderFloats renders through 'g'/precision 9 — byte-identical to the
// former per-element %.9g Sprintf, without fmt's interface boxing.
func renderFloats(s []float64) string {
	buf := make([]byte, 0, 12*len(s))
	for i, v := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'g', 9, 64)
	}
	return string(buf)
}

// renderMatrix renders matrix h with n states as renderFloats renders its
// cells, generating them in storage order from the rendered scores.
func renderMatrix(h int64, n int) string {
	cells := n * hmmAlphabet
	var b strings.Builder
	b.Grow(7 * cells)
	for i := 0; i < cells; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(emissionText[emission(h, i)])
	}
	return b.String()
}

func renderFloatRows(s [][]float64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = renderFloats(v)
	}
	return strings.Join(parts, ";")
}
