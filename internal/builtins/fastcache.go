package builtins

import "sync"

// Substrate memoization. Substrate contents are deterministic functions of
// their generation parameters (AddFile data from the file index, matrices
// from the handle, transaction rows from a fixed seed), and several heavy
// builtins are pure functions of immutable inputs (md5_buf, hmm_score,
// burn). Worlds therefore share generated data and memoize those results
// across runs and campaign cells — virtual cost accounting is untouched,
// only redundant host work disappears.
//
// All cached data is immutable by construction: file data, matrix
// contents, and transaction rows are never written after creation (the
// substrate's only mutating operations replace whole handles or write
// distinct state). Caches are guarded by one mutex — campaign cells on
// host-parallel runs share them safely — and reset when they outgrow
// fastCacheCap so long campaigns cannot accumulate unbounded memory.

const fastCacheCap = 1 << 14

var (
	fastMu     sync.Mutex
	fileCache  map[fileKey][]byte
	matCache   map[matKey][]float64
	txnCache   map[txnKey][][]int64
	md5Cache   map[bufKey]string
	scoreCache map[scoreKey]int64
	burnCache  map[int64]int64
	fltCache   map[floatsKey]string
)

type fileKey struct {
	idx  int
	size int
}

type matKey struct {
	h int64
	n int64
}

type txnKey struct {
	rows, items, rowLen int
}

// bufKey identifies a byte buffer by backing-array identity. The pointer
// in the key keeps the buffer reachable, so an address can never be reused
// by a different live buffer while its entry is cached.
type bufKey struct {
	p *byte
	n int
}

type scoreKey struct {
	seqHash uint64
	seqLen  int
	mat     int64
	matLen  int
}

// floatsKey identifies a float slice by backing-array identity, with the
// same liveness argument as bufKey.
type floatsKey struct {
	p *float64
	n int
}

// cachedFileData returns the deterministic content of file idx with the
// given size, shared across worlds.
func cachedFileData(idx, size int, gen func() []byte) []byte {
	key := fileKey{idx, size}
	fastMu.Lock()
	defer fastMu.Unlock()
	if data, ok := fileCache[key]; ok {
		return data
	}
	if len(fileCache) >= fastCacheCap {
		fileCache = nil
	}
	if fileCache == nil {
		fileCache = map[fileKey][]byte{}
	}
	data := gen()
	fileCache[key] = data
	return data
}

// cachedMatrix returns the deterministic emission matrix for handle h with
// n states, shared read-only across worlds.
func cachedMatrix(h, n int64, gen func() []float64) []float64 {
	key := matKey{h, n}
	fastMu.Lock()
	defer fastMu.Unlock()
	if m, ok := matCache[key]; ok {
		return m
	}
	if len(matCache) >= fastCacheCap {
		matCache = nil
	}
	if matCache == nil {
		matCache = map[matKey][]float64{}
	}
	m := gen()
	matCache[key] = m
	return m
}

// cachedTransactions returns the deterministic transaction database for
// the given shape, rows shared read-only across worlds.
func cachedTransactions(rows, items, rowLen int, gen func() [][]int64) [][]int64 {
	key := txnKey{rows, items, rowLen}
	fastMu.Lock()
	defer fastMu.Unlock()
	if db, ok := txnCache[key]; ok {
		return db
	}
	if len(txnCache) >= fastCacheCap {
		txnCache = nil
	}
	if txnCache == nil {
		txnCache = map[txnKey][][]int64{}
	}
	db := gen()
	txnCache[key] = db
	return db
}

// cachedMD5 memoizes the digest of an immutable buffer by backing-array
// identity (file contents are shared across worlds, so the same arrays
// recur all campaign long).
func cachedMD5(b []byte, gen func() string) string {
	if len(b) == 0 {
		return gen()
	}
	key := bufKey{&b[0], len(b)}
	fastMu.Lock()
	if s, ok := md5Cache[key]; ok {
		fastMu.Unlock()
		return s
	}
	fastMu.Unlock()
	s := gen()
	fastMu.Lock()
	if len(md5Cache) >= fastCacheCap {
		md5Cache = nil
	}
	if md5Cache == nil {
		md5Cache = map[bufKey]string{}
	}
	md5Cache[key] = s
	fastMu.Unlock()
	return s
}

// cachedScore memoizes hmm_score results. The sequence is identified by a
// content hash (sequences are RNG-draw dependent, so identical contents
// recur across schedules and repeated runs), the matrix by its handle and
// length (matrix content is a pure function of both).
func cachedScore(key scoreKey, gen func() int64) int64 {
	fastMu.Lock()
	if v, ok := scoreCache[key]; ok {
		fastMu.Unlock()
		return v
	}
	fastMu.Unlock()
	v := gen()
	fastMu.Lock()
	if len(scoreCache) >= fastCacheCap {
		scoreCache = nil
	}
	if scoreCache == nil {
		scoreCache = map[scoreKey]int64{}
	}
	scoreCache[key] = v
	fastMu.Unlock()
	return v
}

// cachedBurn memoizes the pure burn mixer by its iteration count.
func cachedBurn(n int64, gen func() int64) int64 {
	fastMu.Lock()
	if v, ok := burnCache[n]; ok {
		fastMu.Unlock()
		return v
	}
	fastMu.Unlock()
	v := gen()
	fastMu.Lock()
	if len(burnCache) >= fastCacheCap {
		burnCache = nil
	}
	if burnCache == nil {
		burnCache = map[int64]int64{}
	}
	burnCache[n] = v
	fastMu.Unlock()
	return v
}

// cachedFloatRender memoizes the observable-state rendering of an
// immutable float slice by backing-array identity (matrix contents, which
// worlds share and the sanitizer re-renders on every replay diff). Callers
// must only pass slices that are never written after creation.
func cachedFloatRender(s []float64, gen func() string) string {
	if len(s) == 0 {
		return gen()
	}
	key := floatsKey{&s[0], len(s)}
	fastMu.Lock()
	if r, ok := fltCache[key]; ok {
		fastMu.Unlock()
		return r
	}
	fastMu.Unlock()
	r := gen()
	fastMu.Lock()
	if len(fltCache) >= fastCacheCap {
		fltCache = nil
	}
	if fltCache == nil {
		fltCache = map[floatsKey]string{}
	}
	fltCache[key] = r
	fastMu.Unlock()
	return r
}

// ResetFastCaches drops every substrate memo. The host-time benchmark
// calls it before each operation so every operation starts cold.
func ResetFastCaches() {
	fastMu.Lock()
	fileCache, matCache, txnCache, md5Cache = nil, nil, nil, nil
	scoreCache, burnCache, fltCache = nil, nil, nil
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
