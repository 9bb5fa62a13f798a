package exec

// owns reports whether worker w executes the body of DOALL iteration iter
// when threads workers share the loop in contiguous blocks of chunk
// iterations dealt round-robin: (iter/chunk) % threads == w. Chunk 1 is
// the paper's static round-robin, iter % threads; a larger chunk
// (Tuning.Chunk) gives each worker the same share with better locality
// and, matched to the workload, less lock ping-pong. Every worker
// privately executes the loop-control machinery for all iterations (the
// privatized-induction-variable codegen), so ownership must partition the
// iteration space, and as a pure function of the worker and the iteration
// it stays the same across restarts, steals and salvage.
func owns(w int, iter, threads, chunk int64) bool {
	return (iter/chunk)%threads == int64(w)
}
