package builtins

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Clone deep-copies the world's mutable state into a fresh World whose
// builtin closures capture the copy. Immutable payloads (file data,
// buffer contents, kmeans points, packets, db rows, graph topology) are
// shared; everything a builtin can mutate in place is copied. The
// sanitizer uses clones as replayable pre-state snapshots.
func (w *World) Clone() *World {
	c := NewWorld()

	c.Console = append([]string(nil), w.Console...)

	c.files = append([]file(nil), w.files...)
	c.openFiles = make(map[int64]*file, len(w.openFiles))
	for fd, f := range w.openFiles {
		cp := *f
		c.openFiles[fd] = &cp
	}
	c.nextFD = w.nextFD
	c.bufs = append([][]byte(nil), w.bufs...)

	c.seed = w.seed

	// Matrix contents are never written after matrix_alloc (deallocation is
	// deferred and marks freedMats only), so clones share the backing
	// arrays instead of deep-copying them.
	c.matrices = make(map[int64][]float64, len(w.matrices))
	for h, m := range w.matrices {
		c.matrices[h] = m
	}
	c.freedMats = make(map[int64]bool, len(w.freedMats))
	for h, v := range w.freedMats {
		c.freedMats[h] = v
	}
	c.nextMat = w.nextMat
	c.liveMats = w.liveMats
	c.MaxLiveMats = w.MaxLiveMats

	c.histo = make(map[int64]int64, len(w.histo))
	for k, v := range w.histo {
		c.histo[k] = v
	}
	c.histoCount = w.histoCount

	c.bitmaps = make([][]uint64, len(w.bitmaps))
	for i, b := range w.bitmaps {
		c.bitmaps[i] = append([]uint64(nil), b...)
	}
	c.vectors = deepInt64(w.vectors)
	c.itemsets = deepInt64(w.itemsets)
	c.lists = deepInt64(w.lists)
	c.statsN = w.statsN
	c.statsSum = w.statsSum

	c.dbRows = append([][]int64(nil), w.dbRows...)
	c.dbCursor = w.dbCursor

	c.nodes = append([]emNode(nil), w.nodes...)

	c.traceBitmaps = make([]traceBitmap, len(w.traceBitmaps))
	for i, tb := range w.traceBitmaps {
		cp := tb
		cp.bits = append([]byte(nil), tb.bits...)
		c.traceBitmaps[i] = cp
	}
	c.outImages = append([]string(nil), w.outImages...)

	c.kmPoints = w.kmPoints
	c.kmCenters = deepFloat64(w.kmCenters)
	c.kmNew = deepFloat64(w.kmNew)
	c.kmCounts = append([]int64(nil), w.kmCounts...)
	c.kmAssign = append([]int64(nil), w.kmAssign...)

	c.packets = w.packets
	c.pktNext = w.pktNext
	c.routes = append([]string(nil), w.routes...)
	c.logLines = append([]string(nil), w.logLines...)

	return c
}

func deepInt64(s [][]int64) [][]int64 {
	out := make([][]int64, len(s))
	for i, v := range s {
		out[i] = append([]int64(nil), v...)
	}
	return out
}

func deepFloat64(s [][]float64) [][]float64 {
	out := make([][]float64, len(s))
	for i, v := range s {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// Baseline records the handle-space sizes of each allocator registry at
// snapshot time. Handles allocated before the baseline are stable
// identities across replay orders; handles allocated during a replay are
// fresh, so the observable-state diff quotients them by renaming.
type Baseline struct {
	NextFD       int64
	Bufs         int
	NextMat      int64
	Bitmaps      int
	Vectors      int
	Itemsets     int
	Lists        int
	TraceBitmaps int
}

// Baseline captures the allocator high-water marks of the world.
func (w *World) Baseline() Baseline {
	return Baseline{
		NextFD:       w.nextFD,
		Bufs:         len(w.bufs),
		NextMat:      w.nextMat,
		Bitmaps:      len(w.bitmaps),
		Vectors:      len(w.vectors),
		Itemsets:     len(w.itemsets),
		Lists:        len(w.lists),
		TraceBitmaps: len(w.traceBitmaps),
	}
}

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

	out["io.console"] = multiset(w.Console)
	out["fs.log"] = multiset(w.logLines)
	out["fs.images"] = multiset(w.outImages)

	var freshFDs []string
	for fd, f := range w.openFiles {
		r := fmt.Sprintf("%s:%d", f.name, f.pos)
		if fd < base.NextFD {
			out[fmt.Sprintf("fs.fd:%d", fd)] = r
		} else {
			freshFDs = append(freshFDs, r)
		}
	}
	out["fs.fd.fresh"] = multiset(freshFDs)
	var freshBufs []string
	for i := base.Bufs; i < len(w.bufs); i++ {
		freshBufs = append(freshBufs, fmt.Sprintf("len:%d", len(w.bufs[i])))
	}
	out["fs.buf.fresh"] = multiset(freshBufs)

	var freshMats []string
	for h, m := range w.matrices {
		// Matrices are immutable after creation, so their rendering is
		// memoized by backing-array identity (the arrays are shared across
		// clones and recur on every replay diff).
		r := cachedFloatRender(m, func() string { return renderFloats(m) })
		if h < base.NextMat {
			out[fmt.Sprintf("hmm.mat:%d", h)] = r
		} else {
			freshMats = append(freshMats, r)
		}
	}
	out["hmm.mat.fresh"] = multiset(freshMats)
	for h := range w.freedMats {
		if h < base.NextMat {
			out[fmt.Sprintf("hmm.freed:%d", h)] = "freed"
		}
	}

	histo := make([]string, 0, len(w.histo))
	for k, v := range w.histo {
		histo = append(histo, fmt.Sprintf("%d=%d", k, v))
	}
	out["hmm.histo"] = multiset(histo)
	out["hmm.histo.count"] = fmt.Sprint(w.histoCount)

	renderHandles(out, "geti.bitmap", base.Bitmaps, w.bitmaps, func(b []uint64) string {
		return fmt.Sprintf("%x", b)
	})
	renderHandles(out, "geti.vec", base.Vectors, w.vectors, renderInt64Multiset)
	renderHandles(out, "eclat.iset", base.Itemsets, w.itemsets, renderInt64Multiset)
	renderHandles(out, "eclat.list", base.Lists, w.lists, renderInt64Multiset)
	out["eclat.stats"] = fmt.Sprintf("n=%d sum=%.9g", w.statsN, w.statsSum)

	out["db.cursor"] = fmt.Sprint(w.dbCursor)

	nodes := make([]string, len(w.nodes))
	for i, n := range w.nodes {
		nodes[i] = fmt.Sprintf("%d:%d:%.9g", n.next, n.degree, n.value)
	}
	out["em.nodes"] = strings.Join(nodes, ";")

	renderHandles(out, "trace.bmp", base.TraceBitmaps, w.traceBitmaps, func(tb traceBitmap) string {
		return fmt.Sprintf("%dx%d:%x", tb.w, tb.h, tb.bits)
	})

	out["km.centers"] = renderFloatRows(w.kmCenters)
	out["km.new"] = renderFloatRows(w.kmNew)
	out["km.counts"] = renderInt64s(w.kmCounts)
	out["km.assign"] = renderInt64s(w.kmAssign)

	out["pkt.next"] = fmt.Sprint(w.pktNext)
	out["pkt.routes"] = strings.Join(w.routes, ";")

	return out
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

func renderFloatRows(s [][]float64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = renderFloats(v)
	}
	return strings.Join(parts, ";")
}
