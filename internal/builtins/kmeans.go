package builtins

import (
	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// kmeans substrate: points and centers in a low-dimensional space. The
// main loop computes each object's nearest center (heavy, pure) and updates
// that center's running mean (the single loop-carried dependence the paper
// breaks with a SELF commutative block).

const kmDim = 16

// SetupKMeans installs n deterministic points and k initial centers.
func (w *World) SetupKMeans(n, k int) {
	h := uint64(0xc0ffee)
	w.kmPoints = make([][]float64, n)
	for i := range w.kmPoints {
		p := make([]float64, kmDim)
		for d := range p {
			h = h*6364136223846793005 + 1442695040888963407
			p[d] = float64(h%1000) / 1000
		}
		w.kmPoints[i] = p
	}
	w.kmCenters = make([][]float64, k)
	w.kmNew = make([][]float64, k)
	w.kmCounts = make([]int64, k)
	w.kmAssign = make([]int64, n)
	for c := range w.kmCenters {
		ctr := make([]float64, kmDim)
		copy(ctr, w.kmPoints[(c*n)/k])
		w.kmCenters[c] = ctr
		w.kmNew[c] = make([]float64, kmDim)
	}
}

// KMAssignments returns a copy of the current assignments.
func (w *World) KMAssignments() []int64 {
	out := make([]int64, len(w.kmAssign))
	copy(out, w.kmAssign)
	return out
}

// KMCounts returns per-center membership counts.
func (w *World) KMCounts() []int64 {
	out := make([]int64, len(w.kmCounts))
	copy(out, w.kmCounts)
	return out
}

func registerKMeans() {
	register("km_points", nil, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(len(w.kmPoints))), 10, nil
		})
	// km_nearest: distance of point i to every center — the heavy compute.
	// It reads the stable current centers only (the new centers being
	// accumulated are separate state, as in STAMP's kmeans).
	register("km_nearest", []ast.Type{ast.TInt}, ast.TInt, effects.Decl{Reads: []effects.Loc{effects.TagLoc("centers.cur")}},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			i := args[0].AsInt()
			if i < 0 || i >= int64(len(w.kmPoints)) {
				return value.Value{}, 0, errArg("km_nearest", "bad point")
			}
			p := w.kmPoints[i]
			best, bestD := 0, 1e300
			for c, ctr := range w.kmCenters {
				d := 0.0
				for x := 0; x < kmDim; x++ {
					diff := p[x] - ctr[x]
					d += diff * diff
				}
				if d < bestD {
					bestD = d
					best = c
				}
			}
			cost := int64(len(w.kmCenters)) * kmDim * 10
			return value.Int(int64(best)), cost, nil
		})
	// km_update folds point i into new center c's running mean and records
	// the assignment: the commutative update.
	register("km_update", []ast.Type{ast.TInt, ast.TInt}, ast.TVoid, rw("centers.new"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			i, c := args[0].AsInt(), args[1].AsInt()
			if i < 0 || i >= int64(len(w.kmPoints)) {
				return value.Value{}, 0, errArg("km_update", "bad point")
			}
			if c < 0 || c >= int64(len(w.kmCenters)) {
				return value.Value{}, 0, errArg("km_update", "bad center")
			}
			w.kmCounts[c]++
			ctr := w.kmNew[c]
			p := w.kmPoints[i]
			for x := 0; x < kmDim; x++ {
				ctr[x] += p[x]
			}
			w.kmAssign[i] = c
			return value.Void(), 40 + kmDim*25, nil
		})
	// km_swap installs the accumulated means as the new current centers
	// (the outer algorithm step, outside the hot loop).
	register("km_swap", nil, ast.TVoid, rw("centers.cur", "centers.new"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			for c := range w.kmNew {
				if w.kmCounts[c] == 0 {
					continue
				}
				n := float64(w.kmCounts[c])
				for x := 0; x < kmDim; x++ {
					w.kmCenters[c][x] = w.kmNew[c][x] / n
				}
			}
			return value.Void(), int64(len(w.kmNew)) * kmDim * 4, nil
		})
}
