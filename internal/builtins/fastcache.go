package builtins

import "sync"

// Substrate memoization. Substrate contents are deterministic functions of
// their generation parameters (file contents of the file index,
// transaction rows of a fixed seed, matrices of the handle and state
// count), and several heavy builtins are pure functions of immutable
// inputs (md5_buf, hmm_score, burn). Worlds therefore share generated data
// and memoize those results across runs and campaign cells — virtual cost
// accounting is untouched, only redundant host work disappears. File
// contents and matrices are never stored: file bytes are generated when
// read (world.go), so md5_buf's digest is memoized by file range, and
// matrix scores are derived from the handle (hmm.go), so only their
// observable-state renderings are memoized.
//
// All cached data is immutable by construction: transaction rows are never
// written after creation (the substrate's only mutating operations replace
// whole handles or write distinct state). Caches are
// guarded by one mutex — campaign cells on host-parallel runs share them
// safely — and reset when they outgrow fastCacheCap so long campaigns
// cannot accumulate unbounded memory.

const fastCacheCap = 1 << 14

var (
	fastMu     sync.Mutex
	txnMemo    memo[txnKey, [][]int64]
	md5Memo    memo[fileRange, string]
	scoreMemo  memo[scoreKey, int64]
	burnMemo   memo[int64, int64]
	renderMemo memo[matKey, string]
)

// memo is one substrate memo, guarded by fastMu.
type memo[K comparable, V any] struct {
	m map[K]V
}

// get returns the memoized value of key, generating it on a miss. gen
// runs outside fastMu, so concurrent misses may each generate; the first
// value stored wins and every caller returns it, so callers still share
// one value (file data is keyed by identity downstream). A memo that has
// reached fastCacheCap entries starts a fresh map.
func (c *memo[K, V]) get(key K, gen func() V) V {
	fastMu.Lock()
	v, ok := c.m[key]
	fastMu.Unlock()
	if ok {
		return v
	}
	v = gen()
	fastMu.Lock()
	defer fastMu.Unlock()
	if first, ok := c.m[key]; ok {
		return first
	}
	if c.m == nil || len(c.m) >= fastCacheCap {
		c.m = map[K]V{}
	}
	c.m[key] = v
	return v
}

type matKey struct {
	h int64
	n int
}

type txnKey struct {
	rows, items, rowLen int
}

// scoreKey content-addresses an hmm_score result: the sequence by a
// content hash (sequences are RNG-draw dependent, so identical contents
// recur across schedules and repeated runs), the matrix by its handle and
// state count (its scores are a pure function of both).
type scoreKey struct {
	seqHash uint64
	seqLen  int
	mat     int64
	states  int
}

// ResetFastCaches drops every substrate memo. The host-time benchmark
// calls it before each operation so every operation starts cold.
func ResetFastCaches() {
	fastMu.Lock()
	txnMemo.m, md5Memo.m = nil, nil
	scoreMemo.m, burnMemo.m, renderMemo.m = nil, nil, nil
	fastMu.Unlock()
}

// hashBytes is FNV-1a, used to content-address RNG-drawn sequences.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
