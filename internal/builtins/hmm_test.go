package builtins

import (
	"fmt"
	"testing"

	"repro/internal/vm/value"
)

// refMatrix and refScore are the stored-matrix substrate, kept as the
// reference: refMatrix fills the n-state emission matrix of handle h, and
// refScore runs the Viterbi pass over it with a compare-and-branch per
// cell.
func refMatrix(h int64, n int) []float64 {
	m := make([]float64, n*hmmAlphabet)
	for i := range m {
		x := uint64(h)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
		m[i] = float64(x%1000)/1000.0 - 0.5
	}
	return m
}

func refScore(seq []byte, m []float64) int64 {
	states := len(m) / hmmAlphabet
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

var (
	refStates  = []int{1, 2, 7, 50, 100, 150}
	refHandles = []int64{1, 2, 3, 219, 220, 221, 4096, 1 << 31, 1<<40 + 7, 1<<63 - 1}
)

// TestHMMScoreMatchesStoredMatrix pins hmm_score to the stored-matrix
// kernel: 1,000 seeded sequences of lengths 0 to 99, each scored against
// every state count at a rotating handle.
func TestHMMScoreMatchesStoredMatrix(t *testing.T) {
	w := NewWorld()
	w.Seed(17)
	empty := value.Int(w.addBuf(buffer{}))
	for i := 0; i < 1000; i++ {
		seq := empty
		if n := i % 100; n > 0 {
			seq = call(t, w, "seq_gen", value.Int(int64(n)))
		}
		h := refHandles[i%len(refHandles)]
		for _, n := range refStates {
			w.nextMat = h
			mat := call(t, w, "matrix_alloc", value.Int(int64(n)))
			got := call(t, w, "hmm_score", seq, mat).AsInt()
			if want := refScore(w.bufs[seq.AsInt()].data, refMatrix(h, n)); got != want {
				t.Fatalf("sequence %d, matrix %d with %d states: hmm_score = %d, stored matrix scores %d",
					i, h, n, got, want)
			}
		}
	}
}

// TestMatrixRenderingMatchesStoredMatrix pins the hmm.mat entries of
// ObservableState to the rendering of the stored matrices, for handles
// before and after the baseline, live and freed, and on a clone.
func TestMatrixRenderingMatchesStoredMatrix(t *testing.T) {
	w := NewWorld()
	alloc := func(n int) int64 { return call(t, w, "matrix_alloc", value.Int(int64(n))).AsInt() }
	held := map[int64]int{}
	for _, n := range refStates {
		held[alloc(n)] = n
	}
	call(t, w, "matrix_free", value.Int(1))
	w.nextMat = 1 << 40
	held[alloc(3)] = 3
	base := w.Baseline()
	var fresh []string
	for _, n := range refStates {
		h := alloc(n)
		fresh = append(fresh, renderFloats(refMatrix(h, n)))
		if n == 7 {
			call(t, w, "matrix_free", value.Int(h))
		}
	}
	for _, v := range []*World{w, w.Clone()} {
		out := v.ObservableState(base)
		for h, n := range held {
			key := fmt.Sprintf("hmm.mat:%d", h)
			if want := renderFloats(refMatrix(h, n)); out[key] != want {
				t.Errorf("%s = %.40q..., want %.40q...", key, out[key], want)
			}
		}
		if want := multiset(fresh); out["hmm.mat.fresh"] != want {
			t.Errorf("hmm.mat.fresh = %.40q..., want %.40q...", out["hmm.mat.fresh"], want)
		}
	}
}

// TestViterbiAllocFree checks that scoring reuses the world's rows: once
// they are sized, a score allocates nothing.
func TestViterbiAllocFree(t *testing.T) {
	w := NewWorld()
	seq := w.bufs[call(t, w, "seq_gen", value.Int(48)).AsInt()].data
	w.viterbi(seq, 1, 100)
	if n := testing.AllocsPerRun(100, func() { w.viterbi(seq, 1, 100) }); n != 0 {
		t.Errorf("viterbi allocates %v times per score", n)
	}
}
