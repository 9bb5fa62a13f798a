package builtins

// Clone deep-copies the world's mutable state into a fresh World, to which
// the copy's Fns bind the builtins. Immutable payloads (file data,
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
	c.bufs = append([]buffer(nil), w.bufs...)

	c.seed = w.seed

	c.matrices = make(map[int64]int, len(w.matrices))
	for h, n := range w.matrices {
		c.matrices[h] = n
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
