// Package builtins implements the substrate the benchmark programs run on:
// the "libc and libraries" of the reproduction. Every builtin carries a
// MiniC signature (for the type checker), an effect declaration over
// abstract locations (for the dependence analyzer), a virtual cost model
// (for the discrete-event simulator), and a real implementation operating
// on deterministic in-memory state.
//
// The substrate replaces what the paper's benchmarks got from the OS and
// their libraries (DESIGN.md lists each substitution): an in-memory
// filesystem with synthetic file contents, a console, a seeded linear
// congruential RNG with a shared seed variable, an HMM sequence scorer,
// bitmap/itemset/statistics containers for the mining benchmarks, a
// bipartite-graph builder, a bitmap tracer, k-means state, and a packet
// pool with a URL match table.
package builtins

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"

	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/types"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// implFn is a builtin's implementation: it acts on the world passed in and
// returns the result value and its virtual cost.
type implFn func(w *World, args []value.Value) (value.Value, int64, error)

// The builtin tables, keyed by builtin name. Every builtin is registered
// once per process, at package init; the tables are read-only afterwards
// and shared by every World.
var (
	sigTable          = map[string]*types.Sig{}
	effectTable       = effects.Table{}
	implTable         = map[string]implFn{}
	conservativeTable effects.Table
)

func init() {
	registerCore()
	registerFS()
	registerRNG()
	registerHMM()
	registerMining()
	registerGraph()
	registerTrace()
	registerKMeans()
	registerNet()

	extern := effects.TagLoc("extern.lib")
	conservativeTable = make(effects.Table, len(effectTable))
	for n, d := range effectTable {
		conservativeTable[n] = effects.Decl{
			Reads:  append(append([]effects.Loc{}, d.Reads...), extern),
			Writes: append(append([]effects.Loc{}, d.Writes...), extern),
		}
	}
}

// World is one deterministic substrate instance. Create a fresh World per
// execution so sequential and parallel runs start from identical state.
type World struct {
	// Console output, in emission order.
	Console []string

	// Filesystem.
	files     []file
	openFiles map[int64]*file
	nextFD    int64

	// Byte buffers (file contents read into memory, generated sequences,
	// transaction rows).
	bufs []buffer

	// RNG: one shared seed, as in the paper's benchmarks.
	seed uint64

	// Matrices (hmmer scoring): the state count of each handle, whose
	// emission scores are derived from the handle (see hmm.go). freedMats
	// implements deferred deallocation (see matrix_free).
	matrices  map[int64]int
	freedMats map[int64]bool
	nextMat   int64
	liveMats  int
	// MaxLiveMats tracks the allocator high-water mark.
	MaxLiveMats int
	// hmmRows is hmm_score's two-row dynamic-programming scratch.
	hmmRows []float64

	// Histogram (hmmer).
	histo      map[int64]int64
	histoCount int64

	// Bitmaps and vectors (geti).
	bitmaps [][]uint64
	vectors [][]int64

	// Itemsets and lists (eclat).
	itemsets [][]int64
	lists    [][]int64
	statsN   int64
	statsSum float64

	// Epoch-stamped scratch for iset_intersect_size: one map reused across
	// calls, entries invalidated by bumping the epoch instead of
	// reallocating. isectSet and isectLen name the itemset stamped at the
	// current epoch (none while the epoch is 0); Clone leaves them unset.
	isectSeen  map[int64]uint32
	isectEpoch uint32
	isectSet   int64
	isectLen   int

	// Transaction database (eclat, geti).
	dbRows   [][]int64
	dbCursor int

	// em3d graph.
	nodes []emNode

	// potrace bitmaps.
	traceBitmaps []traceBitmap
	outImages    []string

	// kmeans: kmCenters is the stable read-only set of the current outer
	// iteration; kmNew accumulates the running means being built.
	kmPoints  [][]float64
	kmCenters [][]float64
	kmNew     [][]float64
	kmCounts  []int64
	kmAssign  []int64

	// url switching.
	packets  []packet
	pktNext  int
	routes   []string
	logLines []string
}

// file is one synthetic file: its contents are generated from its index
// (see fileStream) whenever they are read, so a file stores only its size.
type file struct {
	name string
	idx  int
	size int
	pos  int
}

// fileRange names the bytes [lo, hi) of the contents of file idx.
type fileRange struct{ idx, lo, hi int }

// buffer is one buffer handle. A buffer read from a file holds its file
// range (src.hi > src.lo) and no bytes: md5_buf and buf_len read the range
// itself, and any other reader generates the bytes into data once, on
// first use.
type buffer struct {
	data []byte
	src  fileRange
}

// fromFile reports whether the buffer names a (non-empty) file range.
func (b *buffer) fromFile() bool { return b.src.hi > b.src.lo }

// len returns the buffer's length in bytes.
func (b *buffer) len() int {
	if b.fromFile() {
		return b.src.hi - b.src.lo
	}
	return len(b.data)
}

type emNode struct {
	next      int64
	degree    int64
	neighbors []int64
	value     float64
}

type traceBitmap struct {
	w, h int
	bits []byte
}

type packet struct {
	url  string
	size int64
}

// NewWorld creates an empty substrate. Workload generators then populate
// files, databases, packets, etc.
func NewWorld() *World {
	return &World{
		openFiles: map[int64]*file{},
		nextFD:    1,
		seed:      0x2545F4914F6CDD1D,
		matrices:  map[int64]int{},
		freedMats: map[int64]bool{},
		nextMat:   1,
		histo:     map[int64]int64{},
	}
}

// register adds one builtin; duplicate names are programming errors.
func register(name string, params []ast.Type, result ast.Type, eff effects.Decl, fn implFn) {
	if _, dup := implTable[name]; dup {
		panic("builtins: duplicate " + name)
	}
	sigTable[name] = &types.Sig{Name: name, Params: params, Result: result}
	effectTable[name] = eff
	implTable[name] = fn
}

// registerPure adds a builtin usable inside COMMSETPREDICATE expressions.
func registerPure(name string, params []ast.Type, result ast.Type, fn implFn) {
	register(name, params, result, effects.Decl{}, fn)
	sigTable[name].Pure = true
}

// Sigs returns the signature table for the type checker. The table is
// shared by every World and must not be modified.
func (w *World) Sigs() map[string]*types.Sig { return sigTable }

// EffectTable returns the effect declarations for the dependence analyzer.
// The table is shared by every World and must not be modified.
func (w *World) EffectTable() effects.Table { return effectTable }

// ConservativeEffectTable models the paper's non-COMMSET baseline: a
// parallelizing tool that cannot see into separately compiled libraries
// must assume every library call reads and writes unknown external state
// ("a parallelizing tool cannot infer this automatically without knowing
// the client specific semantics of I/O calls", Section 2). Every builtin
// additionally reads and writes one conservative external location. The
// table is shared by every World and must not be modified.
func (w *World) ConservativeEffectTable() effects.Table { return conservativeTable }

// Fns returns the implementations for the interpreter, bound to w.
func (w *World) Fns() map[string]interp.BuiltinFn {
	out := make(map[string]interp.BuiltinFn, len(implTable))
	for n, fn := range implTable {
		out[n] = func(args []value.Value) (value.Value, int64, error) { return fn(w, args) }
	}
	return out
}

// errArg standardizes substrate argument errors.
func errArg(name, msg string) error { return fmt.Errorf("builtin %s: %s", name, msg) }

// maxAllocSize bounds every size the substrate allocates from program
// input (seq_gen lengths, matrix_alloc states, bitmap_new bits): a larger
// size is an argument error, not a makeslice panic or an exhausted host
// heap. The workloads use at most 192.
const maxAllocSize = 1 << 20

// checkSize rejects an allocation size n of builtin name outside
// [lo, maxAllocSize].
func checkSize(name string, n, lo int64) error {
	if n < lo || n > maxAllocSize {
		return errArg(name, fmt.Sprintf("size %d outside [%d, %d]", n, lo, maxAllocSize))
	}
	return nil
}

// --- core: console, conversions, synthetic compute ---

func rw(tags ...string) effects.Decl {
	var d effects.Decl
	for _, t := range tags {
		d.Reads = append(d.Reads, effects.TagLoc(t))
		d.Writes = append(d.Writes, effects.TagLoc(t))
	}
	return d
}

func wo(tags ...string) effects.Decl {
	var d effects.Decl
	for _, t := range tags {
		d.Writes = append(d.Writes, effects.TagLoc(t))
	}
	return d
}

// keyed marks argument arg as selecting the disjoint element of tag that the
// builtin touches (e.g. bitmap_set(bm, key) accesses only bit `key`).
func keyed(d effects.Decl, tag string, arg int) effects.Decl {
	if d.KeyedBy == nil {
		d.KeyedBy = map[effects.Loc]int{}
	}
	d.KeyedBy[effects.TagLoc(tag)] = arg
	return d
}

// instanced marks argument arg as selecting which handle of tag the builtin
// touches (e.g. bitmap_count(bm) reads only bitmap `bm`). Operations on
// provably distinct handles never conflict on the tag. Only per-handle
// operations qualify: a builtin that also touches the shared handle
// registry (an allocator's append) must not be instanced.
func instanced(d effects.Decl, tag string, arg int) effects.Decl {
	if d.InstanceBy == nil {
		d.InstanceBy = map[effects.Loc]int{}
	}
	d.InstanceBy[effects.TagLoc(tag)] = arg
	return d
}

// allocates marks the builtin as returning a globally fresh handle of tag
// (no earlier or concurrent call ever returned it). The builtin's own
// registry access stays uninstanced: concurrent allocations still conflict
// with each other.
func allocates(d effects.Decl, tag string) effects.Decl {
	d.Allocates = append(d.Allocates, effects.TagLoc(tag))
	return d
}

func registerCore() {
	register("print_str", []ast.Type{ast.TString}, ast.TVoid, wo("io.console"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.Console = append(w.Console, args[0].AsString())
			return value.Void(), 80, nil
		})
	register("print_int", []ast.Type{ast.TInt}, ast.TVoid, wo("io.console"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.Console = append(w.Console, fmt.Sprintf("%d", args[0].AsInt()))
			return value.Void(), 80, nil
		})
	register("print_float", []ast.Type{ast.TFloat}, ast.TVoid, wo("io.console"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.Console = append(w.Console, fmt.Sprintf("%.4f", args[0].AsFloat()))
			return value.Void(), 80, nil
		})
	registerPure("itof", []ast.Type{ast.TInt}, ast.TFloat,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Float(float64(args[0].AsInt())), 1, nil
		})
	registerPure("ftoi", []ast.Type{ast.TFloat}, ast.TInt,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(args[0].AsFloat())), 1, nil
		})
	registerPure("int_to_str", []ast.Type{ast.TInt}, ast.TString,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Str(fmt.Sprintf("%d", args[0].AsInt())), 4, nil
		})
	registerPure("iabs", []ast.Type{ast.TInt}, ast.TInt,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			v := args[0].AsInt()
			if v < 0 {
				v = -v
			}
			return value.Int(v), 1, nil
		})
	// burn performs n units of real arithmetic (a stateless deterministic
	// mixer) and charges n cost units: synthetic CPU work for calibration.
	registerPure("burn", []ast.Type{ast.TInt}, ast.TInt,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			if n < 0 {
				n = 0
			}
			r := burnMemo.get(n, func() int64 {
				h := uint64(n) ^ 0x9e3779b97f4a7c15
				for i := int64(0); i < n/64; i++ {
					h = h*6364136223846793005 + 1442695040888963407
					h ^= h >> 29
				}
				return int64(h & 0x7fffffff)
			})
			return value.Int(r), n, nil
		})
}

// --- filesystem ---

// AddFile installs a synthetic file. Content is derived deterministically
// from the file index so workloads are reproducible; it is generated when
// read, never stored with the file.
func (w *World) AddFile(name string, size int) {
	w.files = append(w.files, file{name: name, idx: len(w.files), size: size})
}

// The file content generator: word k (bytes 8k to 8k+7, little-endian) of
// file idx is the state of a linear congruential generator seeded with
// idx·fileSeedMul + fileSeedAdd after k+1 steps.
const (
	fileSeedMul = 0x9e3779b97f4a7c15
	fileSeedAdd = 0xabcdef
	fileLCGMul  = 6364136223846793005
	fileLCGInc  = 1442695040888963407
)

// fileStream reads the generated contents of one file from an offset. h
// is the word holding byte pos-1 (the seed before the first word), so the
// stream steps the generator exactly once per word it enters.
type fileStream struct {
	h   uint64
	pos int
}

// newFileStream starts a stream at byte off of file idx.
func newFileStream(idx, off int) *fileStream {
	s := &fileStream{h: uint64(idx)*fileSeedMul + fileSeedAdd, pos: off}
	words := (off + 7) / 8 // the words before off, and off's own when off is inside it
	for k := 0; k < words; k++ {
		s.h = s.h*fileLCGMul + fileLCGInc
	}
	return s
}

// read fills dst with the next len(dst) bytes.
func (s *fileStream) read(dst []byte) {
	n := 0
	for ; n < len(dst) && s.pos%8 != 0; n++ { // rest of a partly read word
		dst[n] = byte(s.h >> (8 * (s.pos % 8)))
		s.pos++
	}
	for ; n+8 <= len(dst); n += 8 {
		s.h = s.h*fileLCGMul + fileLCGInc
		binary.LittleEndian.PutUint64(dst[n:], s.h)
		s.pos += 8
	}
	for ; n < len(dst); n++ {
		if s.pos%8 == 0 {
			s.h = s.h*fileLCGMul + fileLCGInc
		}
		dst[n] = byte(s.h >> (8 * (s.pos % 8)))
		s.pos++
	}
}

// md5Chunk is the number of generated bytes md5_buf hashes at a time.
const md5Chunk = 1024

// md5Range returns the hex MD5 digest of a file range, streaming its
// generated bytes through the hash, memoized by the range.
func md5Range(r fileRange) string {
	return md5Memo.get(r, func() string {
		h := md5.New()
		var chunk [md5Chunk]byte
		s := newFileStream(r.idx, r.lo)
		for n := r.hi - r.lo; n > 0; {
			m := min(n, md5Chunk)
			s.read(chunk[:m])
			h.Write(chunk[:m])
			n -= m
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	})
}

// NumFiles reports how many files the world holds.
func (w *World) NumFiles() int { return len(w.files) }

func registerFS() {
	register("file_count", nil, ast.TInt, effects.Decl{Reads: []effects.Loc{effects.TagLoc("fs.table")}},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(len(w.files))), 20, nil
		})
	// fopen_idx opens the i-th input file (the benchmarks iterate over an
	// input file list, so indexing replaces name lookup).
	register("fopen_idx", []ast.Type{ast.TInt}, ast.TInt, rw("fs.table"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			i := args[0].AsInt()
			if i < 0 || i >= int64(len(w.files)) {
				return value.Value{}, 0, errArg("fopen_idx", fmt.Sprintf("no file %d", i))
			}
			fd := w.nextFD
			w.nextFD++
			f := w.files[i]
			w.openFiles[fd] = &file{name: f.name, idx: f.idx, size: f.size}
			return value.Int(fd), 120, nil
		})
	register("fname", []ast.Type{ast.TInt}, ast.TString, effects.Decl{Reads: []effects.Loc{effects.TagLoc("fs.table")}},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			f := w.openFiles[args[0].AsInt()]
			if f == nil {
				return value.Value{}, 0, errArg("fname", "bad fd")
			}
			return value.Str(f.name), 20, nil
		})
	// fread_all reads the remaining contents into a buffer handle.
	register("fread_all", []ast.Type{ast.TInt}, ast.TInt, rw("fs.file"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			f := w.openFiles[args[0].AsInt()]
			if f == nil {
				return value.Value{}, 0, errArg("fread_all", "bad fd")
			}
			r := fileRange{idx: f.idx, lo: f.pos, hi: f.size}
			f.pos = f.size
			return value.Int(w.addBuf(buffer{src: r})), 60 + int64(r.hi-r.lo)/64, nil
		})
	register("fclose", []ast.Type{ast.TInt}, ast.TVoid, rw("fs.table", "fs.file"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			fd := args[0].AsInt()
			if w.openFiles[fd] == nil {
				return value.Value{}, 0, errArg("fclose", "bad fd")
			}
			delete(w.openFiles, fd)
			return value.Void(), 60, nil
		})
	// fwrite_line appends to a named output file (url logging, potrace).
	register("fwrite_line", []ast.Type{ast.TString}, ast.TVoid, rw("fs.out"),
		func(w *World, args []value.Value) (value.Value, int64, error) {
			w.logLines = append(w.logLines, args[0].AsString())
			return value.Void(), 90, nil
		})
	register("buf_len", []ast.Type{ast.TInt}, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			b, err := w.handle(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			return value.Int(int64(b.len())), 2, nil
		})
	// md5_buf computes the real MD5 digest of a buffer; cost scales with
	// size like the real computation.
	register("md5_buf", []ast.Type{ast.TInt}, ast.TString, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			b, err := w.handle(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			var digest string
			if b.fromFile() {
				digest = md5Range(b.src)
			} else {
				sum := md5.Sum(b.data)
				digest = fmt.Sprintf("%x", sum[:])
			}
			return value.Str(digest), 200 + int64(b.len()), nil
		})
}

// addBuf installs a buffer and returns its handle.
func (w *World) addBuf(b buffer) int64 {
	w.bufs = append(w.bufs, b)
	return int64(len(w.bufs) - 1)
}

// handle returns buffer h without generating a file range's bytes.
func (w *World) handle(h int64) (*buffer, error) {
	if h < 0 || h >= int64(len(w.bufs)) {
		return nil, errArg("buffer", "bad handle")
	}
	return &w.bufs[h], nil
}

// buf returns the bytes of buffer h, generating a file range's bytes on
// first use.
func (w *World) buf(h int64) ([]byte, error) {
	b, err := w.handle(h)
	if err != nil {
		return nil, err
	}
	if b.fromFile() && b.data == nil {
		b.data = make([]byte, b.len())
		newFileStream(b.src.idx, b.src.lo).read(b.data)
	}
	return b.data, nil
}

// LogLines exposes output-file lines for validation.
func (w *World) LogLines() []string { return w.logLines }
