package exec

import (
	"testing"

	"repro/internal/transform"
)

// ownersOf queries every worker for every iteration in [0, n) and returns
// the owner of each iteration, failing if any iteration is owned by zero
// or more than one worker. Each worker runs the full privatized control
// loop, so ownership must be a total function that partitions the
// iteration space.
func ownersOf(t *testing.T, threads, chunk, n int64) []int64 {
	t.Helper()
	owners := make([]int64, n)
	for iter := int64(0); iter < n; iter++ {
		owner := int64(-1)
		for w := int64(0); w < threads; w++ {
			if !owns(int(w), iter, threads, chunk) {
				continue
			}
			if owner != -1 {
				t.Fatalf("chunk %d, %d threads: iter %d owned by both worker %d and %d", chunk, threads, iter, owner, w)
			}
			owner = w
		}
		if owner == -1 {
			t.Fatalf("chunk %d, %d threads: iter %d owned by no worker", chunk, threads, iter)
		}
		owners[iter] = owner
	}
	return owners
}

// TestIterSchedStaticPartition: the default tuning is the paper's static
// round-robin, iter % threads.
func TestIterSchedStaticPartition(t *testing.T) {
	chunk := int64(transform.Tuning{}.ChunkSize())
	for _, threads := range []int64{1, 2, 3, 8} {
		for iter, w := range ownersOf(t, threads, chunk, 97) {
			if want := int64(iter) % threads; w != want {
				t.Fatalf("static %d threads: iter %d owner %d, want %d", threads, iter, w, want)
			}
		}
	}
}

// TestIterSchedChunkedPartition: for every thread count and chunk size,
// each iteration is owned by the worker that gets its chunk round-robin.
func TestIterSchedChunkedPartition(t *testing.T) {
	for _, threads := range []int64{1, 2, 3, 4, 8} {
		for _, k := range []int64{1, 3, 8} {
			for iter, w := range ownersOf(t, threads, k, 100) {
				if want := (int64(iter) / k) % threads; w != want {
					t.Fatalf("chunked(%d) %d threads: iter %d owner %d, want %d", k, threads, iter, w, want)
				}
			}
		}
	}
}

// TestIterSchedChunkOneIsStatic: chunked with k=1 coincides with the
// static schedule; the paper's round-robin is the degenerate chunking.
func TestIterSchedChunkOneIsStatic(t *testing.T) {
	const threads = 4
	static := transform.Tuning{}
	chunked := transform.Tuning{Chunk: 1}
	if static.ChunkSize() != chunked.ChunkSize() {
		t.Fatalf("static chunk size %d != chunked(1) chunk size %d", static.ChunkSize(), chunked.ChunkSize())
	}
	a := ownersOf(t, threads, int64(static.ChunkSize()), 64)
	b := ownersOf(t, threads, int64(chunked.ChunkSize()), 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iter %d: static owner %d != chunked(1) owner %d", i, a[i], b[i])
		}
	}
}
