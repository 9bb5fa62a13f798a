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

// Builtin bundles one substrate function.
type Builtin struct {
	Sig     *types.Sig
	Effects effects.Decl
	Fn      interp.BuiltinFn
}

// World is one deterministic substrate instance. Create a fresh World per
// execution so sequential and parallel runs start from identical state.
type World struct {
	reg map[string]*Builtin

	// Console output, in emission order.
	Console []string

	// Filesystem.
	files     []file
	openFiles map[int64]*file
	nextFD    int64

	// Byte buffers (file contents read into memory).
	bufs [][]byte

	// RNG: one shared seed, as in the paper's benchmarks.
	seed uint64

	// Matrices (hmmer scoring). freedMats implements deferred
	// deallocation (see matrix_free).
	matrices  map[int64][]float64
	freedMats map[int64]bool
	nextMat   int64
	liveMats  int
	// MaxLiveMats tracks the allocator high-water mark.
	MaxLiveMats int

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
	// reallocating.
	isectSeen  map[int64]uint32
	isectEpoch uint32

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

type file struct {
	name string
	data []byte
	pos  int
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

// NewWorld creates an empty substrate with every builtin registered.
// Workload generators then populate files, databases, packets, etc.
func NewWorld() *World {
	w := &World{
		reg:       map[string]*Builtin{},
		openFiles: map[int64]*file{},
		nextFD:    1,
		seed:      0x2545F4914F6CDD1D,
		matrices:  map[int64][]float64{},
		freedMats: map[int64]bool{},
		nextMat:   1,
		histo:     map[int64]int64{},
	}
	w.registerCore()
	w.registerFS()
	w.registerRNG()
	w.registerHMM()
	w.registerMining()
	w.registerGraph()
	w.registerTrace()
	w.registerKMeans()
	w.registerNet()
	return w
}

// register adds one builtin; duplicate names are programming errors.
func (w *World) register(name string, params []ast.Type, result ast.Type, eff effects.Decl, fn interp.BuiltinFn) {
	if _, dup := w.reg[name]; dup {
		panic("builtins: duplicate " + name)
	}
	w.reg[name] = &Builtin{
		Sig:     &types.Sig{Name: name, Params: params, Result: result},
		Effects: eff,
		Fn:      fn,
	}
}

// registerPure adds a builtin usable inside COMMSETPREDICATE expressions.
func (w *World) registerPure(name string, params []ast.Type, result ast.Type, fn interp.BuiltinFn) {
	w.register(name, params, result, effects.Decl{}, fn)
	w.reg[name].Sig.Pure = true
}

// Sigs returns the signature table for the type checker.
func (w *World) Sigs() map[string]*types.Sig {
	out := make(map[string]*types.Sig, len(w.reg))
	for n, b := range w.reg {
		out[n] = b.Sig
	}
	return out
}

// EffectTable returns the effect declarations for the dependence analyzer.
func (w *World) EffectTable() effects.Table {
	out := make(effects.Table, len(w.reg))
	for n, b := range w.reg {
		out[n] = b.Effects
	}
	return out
}

// ConservativeEffectTable models the paper's non-COMMSET baseline: a
// parallelizing tool that cannot see into separately compiled libraries
// must assume every library call reads and writes unknown external state
// ("a parallelizing tool cannot infer this automatically without knowing
// the client specific semantics of I/O calls", Section 2). Every builtin
// additionally reads and writes one conservative external location.
func (w *World) ConservativeEffectTable() effects.Table {
	extern := effects.TagLoc("extern.lib")
	out := make(effects.Table, len(w.reg))
	for n, b := range w.reg {
		d := effects.Decl{
			Reads:  append(append([]effects.Loc{}, b.Effects.Reads...), extern),
			Writes: append(append([]effects.Loc{}, b.Effects.Writes...), extern),
		}
		out[n] = d
	}
	return out
}

// Fns returns the implementations for the interpreter.
func (w *World) Fns() map[string]interp.BuiltinFn {
	out := make(map[string]interp.BuiltinFn, len(w.reg))
	for n, b := range w.reg {
		out[n] = b.Fn
	}
	return out
}

// errArg standardizes substrate argument errors.
func errArg(name, msg string) error { return fmt.Errorf("builtin %s: %s", name, msg) }

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

func (w *World) registerCore() {
	w.register("print_str", []ast.Type{ast.TString}, ast.TVoid, wo("io.console"),
		func(args []value.Value) (value.Value, int64, error) {
			w.Console = append(w.Console, args[0].AsString())
			return value.Void(), 80, nil
		})
	w.register("print_int", []ast.Type{ast.TInt}, ast.TVoid, wo("io.console"),
		func(args []value.Value) (value.Value, int64, error) {
			w.Console = append(w.Console, fmt.Sprintf("%d", args[0].AsInt()))
			return value.Void(), 80, nil
		})
	w.register("print_float", []ast.Type{ast.TFloat}, ast.TVoid, wo("io.console"),
		func(args []value.Value) (value.Value, int64, error) {
			w.Console = append(w.Console, fmt.Sprintf("%.4f", args[0].AsFloat()))
			return value.Void(), 80, nil
		})
	w.registerPure("itof", []ast.Type{ast.TInt}, ast.TFloat,
		func(args []value.Value) (value.Value, int64, error) {
			return value.Float(float64(args[0].AsInt())), 1, nil
		})
	w.registerPure("ftoi", []ast.Type{ast.TFloat}, ast.TInt,
		func(args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(args[0].AsFloat())), 1, nil
		})
	w.registerPure("int_to_str", []ast.Type{ast.TInt}, ast.TString,
		func(args []value.Value) (value.Value, int64, error) {
			return value.Str(fmt.Sprintf("%d", args[0].AsInt())), 4, nil
		})
	w.registerPure("iabs", []ast.Type{ast.TInt}, ast.TInt,
		func(args []value.Value) (value.Value, int64, error) {
			v := args[0].AsInt()
			if v < 0 {
				v = -v
			}
			return value.Int(v), 1, nil
		})
	// burn performs n units of real arithmetic (a stateless deterministic
	// mixer) and charges n cost units: synthetic CPU work for calibration.
	w.registerPure("burn", []ast.Type{ast.TInt}, ast.TInt,
		func(args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			if n < 0 {
				n = 0
			}
			r := cachedBurn(n, func() int64 {
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
// from the file index so workloads are reproducible (and worlds can share
// one generated copy — file data is never written).
func (w *World) AddFile(name string, size int) {
	idx := len(w.files)
	data := cachedFileData(idx, size, func() []byte {
		data := make([]byte, size)
		h := uint64(idx)*0x9e3779b97f4a7c15 + 0xabcdef
		for i := 0; i < size; i += 8 {
			h = h*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(pad(data, i), h)
		}
		return data
	})
	w.files = append(w.files, file{name: name, data: data})
}

func pad(b []byte, i int) []byte {
	if i+8 <= len(b) {
		return b[i : i+8]
	}
	tmp := make([]byte, 8)
	copy(tmp, b[i:])
	return tmp
}

// NumFiles reports how many files the world holds.
func (w *World) NumFiles() int { return len(w.files) }

func (w *World) registerFS() {
	w.register("file_count", nil, ast.TInt, effects.Decl{Reads: []effects.Loc{effects.TagLoc("fs.table")}},
		func(args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(len(w.files))), 20, nil
		})
	// fopen_idx opens the i-th input file (the benchmarks iterate over an
	// input file list, so indexing replaces name lookup).
	w.register("fopen_idx", []ast.Type{ast.TInt}, ast.TInt, rw("fs.table"),
		func(args []value.Value) (value.Value, int64, error) {
			i := args[0].AsInt()
			if i < 0 || i >= int64(len(w.files)) {
				return value.Value{}, 0, errArg("fopen_idx", fmt.Sprintf("no file %d", i))
			}
			fd := w.nextFD
			w.nextFD++
			f := w.files[i]
			w.openFiles[fd] = &file{name: f.name, data: f.data}
			return value.Int(fd), 120, nil
		})
	w.register("fname", []ast.Type{ast.TInt}, ast.TString, effects.Decl{Reads: []effects.Loc{effects.TagLoc("fs.table")}},
		func(args []value.Value) (value.Value, int64, error) {
			f := w.openFiles[args[0].AsInt()]
			if f == nil {
				return value.Value{}, 0, errArg("fname", "bad fd")
			}
			return value.Str(f.name), 20, nil
		})
	// fread_all reads the remaining contents into a buffer handle.
	w.register("fread_all", []ast.Type{ast.TInt}, ast.TInt, rw("fs.file"),
		func(args []value.Value) (value.Value, int64, error) {
			f := w.openFiles[args[0].AsInt()]
			if f == nil {
				return value.Value{}, 0, errArg("fread_all", "bad fd")
			}
			buf := f.data[f.pos:]
			f.pos = len(f.data)
			w.bufs = append(w.bufs, buf)
			return value.Int(int64(len(w.bufs) - 1)), 60 + int64(len(buf))/64, nil
		})
	w.register("fclose", []ast.Type{ast.TInt}, ast.TVoid, rw("fs.table", "fs.file"),
		func(args []value.Value) (value.Value, int64, error) {
			fd := args[0].AsInt()
			if w.openFiles[fd] == nil {
				return value.Value{}, 0, errArg("fclose", "bad fd")
			}
			delete(w.openFiles, fd)
			return value.Void(), 60, nil
		})
	// fwrite_line appends to a named output file (url logging, potrace).
	w.register("fwrite_line", []ast.Type{ast.TString}, ast.TVoid, rw("fs.out"),
		func(args []value.Value) (value.Value, int64, error) {
			w.logLines = append(w.logLines, args[0].AsString())
			return value.Void(), 90, nil
		})
	w.register("buf_len", []ast.Type{ast.TInt}, ast.TInt, effects.Decl{},
		func(args []value.Value) (value.Value, int64, error) {
			b, err := w.buf(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			return value.Int(int64(len(b))), 2, nil
		})
	// md5_buf computes the real MD5 digest of a buffer; cost scales with
	// size like the real computation.
	w.register("md5_buf", []ast.Type{ast.TInt}, ast.TString, effects.Decl{},
		func(args []value.Value) (value.Value, int64, error) {
			b, err := w.buf(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			digest := cachedMD5(b, func() string {
				sum := md5.Sum(b)
				return fmt.Sprintf("%x", sum[:])
			})
			return value.Str(digest), 200 + int64(len(b)), nil
		})
}

func (w *World) buf(h int64) ([]byte, error) {
	if h < 0 || h >= int64(len(w.bufs)) {
		return nil, errArg("buffer", "bad handle")
	}
	return w.bufs[h], nil
}

// LogLines exposes output-file lines for validation.
func (w *World) LogLines() []string { return w.logLines }
