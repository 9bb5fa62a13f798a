package builtins

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// The hmmer substrate reproduces 456.hmmer's main-loop structure: generate
// a random protein sequence, score it with a dynamic-programming pass over
// a freshly allocated matrix, update a histogram, and free the matrix. The
// matrix allocator and the histogram are shared library state; the score
// itself is pure compute that dominates the iteration.
//
// A matrix stores nothing but its state count. Its emission scores are a
// pure function of the handle: cell i (state i/20, residue i%20) of matrix
// h is emissionScore[(h*emitHandleMul + i*emitCellMul) mod 2^64 mod 1000],
// so allocation stays independent of the shared seed (it commutes with
// sequence generation), and scoring and rendering generate the cells they
// read.

const hmmAlphabet = 20

const (
	emitHandleMul = 0x9e3779b97f4a7c15
	emitCellMul   = 0xbf58476d1ce4e5b9
	// emitStateStep moves the cell hash one state (hmmAlphabet cells)
	// on, wrapped to 64 bits as the hash itself is.
	emitStateStep = (hmmAlphabet * emitCellMul) & (1<<64 - 1)
)

// emissionScore holds the 1000 distinct emission scores, -0.5 to 0.499.
var emissionScore = func() (t [1000]float64) {
	for k := range t {
		t[k] = float64(k)/1000.0 - 0.5
	}
	return t
}()

// emissionText holds each emission score as renderFloats renders it, at
// most 6 bytes ("-0.499"), so renderMatrix formats no float.
var emissionText = func() (t [1000]string) {
	for k, v := range emissionScore {
		t[k] = strconv.FormatFloat(v, 'g', 9, 64)
	}
	return t
}()

// emission returns the emissionScore index of cell i of matrix h.
func emission(h int64, i int) uint64 {
	return (uint64(h)*emitHandleMul + uint64(i)*emitCellMul) % 1000
}

func registerHMM() {
	// seq_gen draws a random sequence of the given length from the shared
	// RNG and returns its handle (stored as a buffer of residues).
	register("seq_gen", []ast.Type{ast.TInt}, ast.TInt, rw("rng.seed"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			if err := checkSize("seq_gen", n, 1); err != nil {
				return value.Value{}, 0, err
			}
			seq := make([]byte, n)
			for i := range seq {
				seq[i] = byte(w.nextSeed() % hmmAlphabet)
			}
			return value.Int(w.addBuf(buffer{data: seq})), 30 + 12*n, nil
		})

	// matrix_alloc allocates an n-state scoring matrix from the shared
	// allocator (the alloc/dealloc pair the paper lets commute on separate
	// iterations).
	register("matrix_alloc", []ast.Type{ast.TInt}, ast.TInt, rw("heap.matrix"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			if err := checkSize("matrix_alloc", n, 1); err != nil {
				return value.Value{}, 0, err
			}
			h := w.nextMat
			w.nextMat++
			w.matrices[h] = int(n)
			w.liveMats++
			if w.liveMats > w.MaxLiveMats {
				w.MaxLiveMats = w.liveMats
			}
			return value.Int(h), 150, nil
		})

	// matrix_free releases the matrix with deferred-deallocation semantics:
	// the matrix stays readable until the world is discarded (an
	// epoch/arena allocator). This stands in for the alias analysis the
	// paper relies on — a schedule may only reorder frees against uses of
	// *other* iterations' matrices, and deferred reclamation makes that
	// reordering harmless, as in the original system. Double frees are
	// still detected.
	register("matrix_free", []ast.Type{ast.TInt}, ast.TVoid, rw("heap.matrix"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			h := args[0].AsInt()
			if _, ok := w.matrices[h]; !ok {
				return value.Value{}, 0, errArg("matrix_free", "bad matrix handle")
			}
			if w.freedMats[h] {
				return value.Value{}, 0, errArg("matrix_free", "double free")
			}
			w.freedMats[h] = true
			w.liveMats--
			return value.Void(), 100, nil
		})

	// hmm_score runs a small Viterbi-style dynamic program of the sequence
	// against the matrix: the real compute of the loop. Residues must come
	// from the alphabet (seq_gen draws them; raw file bytes do not qualify).
	register("hmm_score", []ast.Type{ast.TInt, ast.TInt}, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			seq, err := w.buf(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			mat := args[1].AsInt()
			states, ok := w.matrices[mat]
			if !ok {
				return value.Value{}, 0, errArg("hmm_score", "bad matrix handle")
			}
			for _, r := range seq {
				if r >= hmmAlphabet {
					return value.Value{}, 0, errArg("hmm_score", "residue outside the alphabet")
				}
			}
			cost := int64(len(seq)) * int64(states) * 3
			// The score is a pure function of the sequence content and the
			// matrix (itself a pure function of handle and state count), so
			// it is content-addressed: identical sequences recur across
			// schedules and repeated runs, and a memo hit, hashing included,
			// is ~140x cheaper than the dynamic program at the workload's 48
			// residues x 100 states.
			score := scoreMemo.get(scoreKey{
				seqHash: hashBytes(seq), seqLen: len(seq),
				mat: mat, states: states,
			}, func() int64 { return w.viterbi(seq, mat, states) })
			return value.Int(score), cost, nil
		})

	// histogram_add performs the abstract SUM the paper marks
	// self-commutative despite its floating-point internals.
	register("histogram_add", []ast.Type{ast.TInt}, ast.TVoid, rw("histogram"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			bucket := args[0].AsInt() / 50
			w.histo[bucket]++
			w.histoCount++
			return value.Void(), 60, nil
		})
	register("histogram_count", nil, ast.TInt, rw("histogram"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(w.histoCount), 10, nil
		})
}

// LiveMatrices reports currently allocated matrices (leak checks in tests).
func (w *World) LiveMatrices() int { return w.liveMats }

// viterbi scores seq against the states-state matrix h. The two DP rows
// are the world's scratch: the simulator runs one thread at a time, and a
// builtin never yields, so no two scores share them.
func (w *World) viterbi(seq []byte, h int64, states int) int64 {
	if cap(w.hmmRows) < 2*states {
		w.hmmRows = make([]float64, 2*states)
	}
	prev, cur := w.hmmRows[:states], w.hmmRows[states:2*states]
	clear(prev)
	base := uint64(h) * emitHandleMul
	for _, r := range seq {
		viterbiRow(cur, prev, base+uint64(r)*emitCellMul)
		prev, cur = cur, prev
	}
	best := prev[0]
	for _, v := range prev[1:] {
		best = max(best, v)
	}
	return int64(best * 100)
}

// viterbiRow fills cur from prev for one residue whose state-0 cell hashes
// to x; each further state is emitStateStep on. A state keeps the better of
// its two predecessors through max, not a compare-and-branch: the branch
// mispredicts on random scores, and the two agree because no score is NaN
// or -0. With cur resliced to prev's length, the loop compiles with no
// bounds checks.
func viterbiRow(cur, prev []float64, x uint64) {
	cur = cur[:len(prev)]
	cur[0] = prev[0] + emissionScore[x%1000]
	for s := 1; s < len(prev); s++ {
		x += emitStateStep
		cur[s] = max(prev[s], prev[s-1]) + emissionScore[x%1000]
	}
}
