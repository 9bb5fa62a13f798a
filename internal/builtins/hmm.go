package builtins

import (
	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// The hmmer substrate reproduces 456.hmmer's main-loop structure: generate
// a random protein sequence, score it with a dynamic-programming pass over
// a freshly allocated matrix, update a histogram, and free the matrix. The
// matrix allocator and the histogram are shared library state; the score
// itself is pure compute that dominates the iteration.

const hmmAlphabet = 20

func (w *World) registerHMM() {
	// seq_gen draws a random sequence of the given length from the shared
	// RNG and returns its handle (stored as a buffer of residues).
	w.register("seq_gen", []ast.Type{ast.TInt}, ast.TInt, rw("rng.seed"),
		func(args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			if n <= 0 {
				return value.Value{}, 0, errArg("seq_gen", "non-positive length")
			}
			seq := make([]byte, n)
			for i := range seq {
				seq[i] = byte(w.nextSeed() % hmmAlphabet)
			}
			w.bufs = append(w.bufs, seq)
			return value.Int(int64(len(w.bufs) - 1)), 30 + 12*n, nil
		})

	// matrix_alloc allocates an n-state scoring matrix from the shared
	// allocator (the alloc/dealloc pair the paper lets commute on separate
	// iterations).
	w.register("matrix_alloc", []ast.Type{ast.TInt}, ast.TInt, rw("heap.matrix"),
		func(args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			if n <= 0 {
				return value.Value{}, 0, errArg("matrix_alloc", "non-positive size")
			}
			h := w.nextMat
			w.nextMat++
			m := cachedMatrix(h, n, func() []float64 {
				m := make([]float64, n*hmmAlphabet)
				for i := range m {
					// Deterministic emission scores independent of the shared
					// seed (so allocation commutes with sequence generation).
					x := uint64(h)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
					m[i] = float64(x%1000)/1000.0 - 0.5
				}
				return m
			})
			w.matrices[h] = m
			w.liveMats++
			if w.liveMats > w.MaxLiveMats {
				w.MaxLiveMats = w.liveMats
			}
			return value.Int(h), 150, nil
		})

	// matrix_free releases the matrix with deferred-deallocation semantics:
	// the backing store stays readable until the world is discarded (an
	// epoch/arena allocator). This stands in for the alias analysis the
	// paper relies on — a schedule may only reorder frees against uses of
	// *other* iterations' matrices, and deferred reclamation makes that
	// reordering harmless, as in the original system. Double frees are
	// still detected.
	w.register("matrix_free", []ast.Type{ast.TInt}, ast.TVoid, rw("heap.matrix"),
		func(args []value.Value) (value.Value, int64, error) {
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
	// against the matrix: the real compute of the loop.
	w.register("hmm_score", []ast.Type{ast.TInt, ast.TInt}, ast.TInt, effects.Decl{},
		func(args []value.Value) (value.Value, int64, error) {
			seq, err := w.buf(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			mat := args[1].AsInt()
			m, ok := w.matrices[mat]
			if !ok {
				return value.Value{}, 0, errArg("hmm_score", "bad matrix handle")
			}
			states := len(m) / hmmAlphabet
			cost := int64(len(seq)) * int64(states) * 3
			dp := func() int64 {
				prev := make([]float64, states)
				cur := make([]float64, states)
				for _, r := range seq {
					for s := 0; s < states; s++ {
						best := prev[s]
						if s > 0 && prev[s-1] > best {
							best = prev[s-1]
						}
						cur[s] = best + m[s*hmmAlphabet+int(r)]
					}
					prev, cur = cur, prev
				}
				best := prev[0]
				for _, v := range prev {
					if v > best {
						best = v
					}
				}
				return int64(best * 100)
			}
			// The score is a pure function of the sequence content and the
			// matrix (itself a pure function of handle and size), so it is
			// content-addressed: identical sequences recur across schedules
			// and repeated runs, and hashing is ~100x cheaper than the
			// dynamic program.
			score := cachedScore(scoreKey{
				seqHash: hashBytes(seq), seqLen: len(seq),
				mat: mat, matLen: len(m),
			}, dp)
			return value.Int(score), cost, nil
		})

	// histogram_add performs the abstract SUM the paper marks
	// self-commutative despite its floating-point internals.
	w.register("histogram_add", []ast.Type{ast.TInt}, ast.TVoid, rw("histogram"),
		func(args []value.Value) (value.Value, int64, error) {
			bucket := args[0].AsInt() / 50
			w.histo[bucket]++
			w.histoCount++
			return value.Void(), 60, nil
		})
	w.register("histogram_count", nil, ast.TInt, rw("histogram"),
		func(args []value.Value) (value.Value, int64, error) {
			return value.Int(w.histoCount), 10, nil
		})
}

// LiveMatrices reports currently allocated matrices (leak checks in tests).
func (w *World) LiveMatrices() int { return w.liveMats }
