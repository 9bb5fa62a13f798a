// Package effects provides the memory-dependence abstraction of the COMMSET
// compiler.
//
// The paper's LLVM implementation uses alias analysis over real memory; the
// parallelism-inhibiting dependences it cares about are those on externally
// visible state — file systems, consoles, RNG seeds, shared containers. We
// model memory as a set of abstract locations:
//
//   - one location per MiniC global variable ("g:<name>"),
//   - one location per substrate effect tag ("t:<tag>"), declared by each
//     builtin (e.g. the filesystem, the console, an RNG seed, a histogram),
//   - local variable slots of the function under analysis, handled directly
//     by the PDG builder via slot identity.
//
// Every builtin declares the tags it reads and writes; Summarize propagates
// effects bottom-up through the call graph (with a fixpoint for recursion)
// so that any call instruction's abstract reads/writes are known.
package effects

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Loc is an abstract memory location.
type Loc string

// GlobalLoc returns the location of a MiniC global variable.
func GlobalLoc(name string) Loc { return Loc("g:" + name) }

// TagLoc returns the location of a substrate effect tag.
func TagLoc(tag string) Loc { return Loc("t:" + tag) }

// InstKind discriminates instance descriptors of a qualified location.
type InstKind int

// Instance descriptor kinds, from most to least precise.
const (
	// InstNone: the location is unqualified (whole abstract location).
	InstNone InstKind = iota
	// InstConst: the handle is a compile-time integer constant.
	InstConst
	// InstSym: the handle is a symbolic identity (an allocation site, an
	// invariant register, or a parameter), named by Sym.
	InstSym
)

// Inst is the optional instance component of a location: which handle
// (bitmap, open file, pool slot, ...) of the abstract location an access
// touches. The zero value is "no instance information".
type Inst struct {
	Kind InstKind
	C    int64  // InstConst payload
	Sym  string // InstSym payload
}

// ConstInst builds a constant-handle instance.
func ConstInst(c int64) Inst { return Inst{Kind: InstConst, C: c} }

// SymInst builds a symbolic-handle instance.
func SymInst(sym string) Inst { return Inst{Kind: InstSym, Sym: sym} }

// String renders the instance component ("#3", "#<g:bm1>", "" for none).
func (i Inst) String() string {
	switch i.Kind {
	case InstConst:
		return fmt.Sprintf("#%d", i.C)
	case InstSym:
		return "#<" + i.Sym + ">"
	}
	return ""
}

// QLoc is an instance-qualified abstract location: a base location plus an
// optional handle descriptor. "t:bitmaps#3" is bitmap 3 of the bitmap
// registry; "t:bitmaps#<g:cand>" is the bitmap held by global cand.
type QLoc struct {
	Base Loc
	Inst Inst
}

// String renders the qualified location.
func (q QLoc) String() string { return string(q.Base) + q.Inst.String() }

// Decl lists the abstract locations an operation reads and writes.
//
// KeyedBy optionally records, per location, the index of the argument that
// selects the disjoint element of that location the operation touches (e.g.
// bitmap_set(bm, key) touches only bit `key` of "t:bitmaps", so KeyedBy maps
// that location to argument 1). The analyzer uses it to recognize that a
// COMMSETPREDICATE over the keying argument genuinely constrains accesses to
// the location even without a lock.
// InstanceBy optionally records, per location, the index of the argument
// that selects which *instance* (handle) of that location the operation
// touches (e.g. bitmap_count(bm) reads only bitmap `bm` of "t:bitmaps",
// so InstanceBy maps that location to argument 0). Where KeyedBy names the
// disjoint element within one handle, InstanceBy names the handle itself:
// two operations on provably distinct handles never conflict on the
// location, even when neither is keyed.
//
// Allocates optionally lists the locations for which the operation returns
// a globally fresh instance handle (e.g. bitmap_new returns a handle no
// earlier or concurrent call has ever returned). Freshness lets the
// analyzer prove handles rooted at distinct allocation sites distinct.
type Decl struct {
	Reads  []Loc
	Writes []Loc

	KeyedBy map[Loc]int

	InstanceBy map[Loc]int
	Allocates  []Loc
}

// Table maps builtin names to their declared effects.
type Table map[string]Decl

// FnEffects summarizes one function's transitive reads and writes, each
// an ascending list without duplicates.
type FnEffects struct {
	Reads  []Loc
	Writes []Loc
}

// Summary holds effect summaries for every function in a program.
type Summary struct {
	Fns      map[string]*FnEffects
	Builtins Table

	// called tabulates the declared effects of every builtin the program
	// calls, in the form of FnEffects.
	called map[string]FnEffects
}

// Summarize computes, for each user function, the set of abstract locations
// transitively read and written: its own global accesses, its builtins'
// declared tags, and its callees' summaries. Functions are summarized
// callees first, one call-graph strongly connected component at a time,
// iterating to a fixpoint only within a component (recursion).
func Summarize(prog *ir.Program, builtins Table) *Summary {
	n := len(prog.Order)
	s := &Summary{Fns: make(map[string]*FnEffects, n), Builtins: builtins, called: map[string]FnEffects{}}
	index := make(map[string]int, n)
	for i, name := range prog.Order {
		index[name] = i
	}
	// Each function's own accesses, gathered in scratch lists and kept as
	// capacity-clamped windows of one arena, and the other user functions
	// it calls.
	fes := make([]FnEffects, n)
	callees := make([][]int, n)
	var reads, writes, arena []Loc
	keep := func(locs []Loc) []Loc {
		start := len(arena)
		arena = append(arena, sortUnique(locs)...)
		return arena[start:len(arena):len(arena)]
	}
	for i, name := range prog.Order {
		reads, writes = reads[:0], writes[:0]
		for _, b := range prog.Funcs[name].Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpLoadGlobal:
					reads = append(reads, GlobalLoc(in.Name))
				case ir.OpStoreGlobal:
					writes = append(writes, GlobalLoc(in.Name))
				case ir.OpCall:
					if j, ok := index[in.Name]; ok {
						if j != i && !slices.Contains(callees[i], j) {
							callees[i] = append(callees[i], j)
						}
					} else if decl, ok := builtins[in.Name]; ok {
						reads = append(reads, decl.Reads...)
						writes = append(writes, decl.Writes...)
						if _, done := s.called[in.Name]; !done {
							s.called[in.Name] = declEffects(decl)
						}
					}
				}
			}
		}
		fe := &fes[i]
		fe.Reads, fe.Writes = keep(reads), keep(writes)
		s.Fns[name] = fe
	}
	for _, comp := range cfg.SCCs(callees) {
		for changed := true; changed; {
			changed = false
			for _, i := range comp {
				// Summaries only grow, so an unchanged length is no change.
				fe := &fes[i]
				r, w := fe.Reads, fe.Writes
				for _, j := range callees[i] {
					r = Union(r, fes[j].Reads)
					w = Union(w, fes[j].Writes)
				}
				if len(r) != len(fe.Reads) || len(w) != len(fe.Writes) {
					fe.Reads, fe.Writes = r, w
					changed = true
				}
			}
			// Outside a cycle every callee is final after one pass.
			if len(comp) == 1 {
				break
			}
		}
	}
	return s
}

// Union returns the ascending union of two ascending location lists. When
// one list adds nothing to the other the result is that other list itself,
// so callers must not modify it.
func Union(a, b []Loc) []Loc {
	// Skip the prefix of b that a already holds.
	i, j := 0, 0
	for ; j < len(b); j++ {
		for i < len(a) && a[i] < b[j] {
			i++
		}
		if i == len(a) || a[i] != b[j] {
			break
		}
	}
	switch {
	case j == len(b):
		return a
	case len(a) == 0:
		return b
	}
	out := make([]Loc, i, len(a)+len(b)-j)
	copy(out, a[:i])
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// sortUnique sorts locs ascending and drops duplicates, in place.
func sortUnique(locs []Loc) []Loc {
	slices.Sort(locs)
	return slices.Compact(locs)
}

// KeyedArg reports which argument of builtin name keys its accesses to loc,
// if the builtin declares one. User functions never declare keys directly;
// the analyzer reasons about their bodies instead.
func (s *Summary) KeyedArg(name string, loc Loc) (int, bool) {
	decl, ok := s.Builtins[name]
	if !ok || decl.KeyedBy == nil {
		return -1, false
	}
	idx, ok := decl.KeyedBy[loc]
	return idx, ok
}

// InstanceArg reports which argument of builtin name selects the handle of
// loc it touches, if the builtin declares one. As with KeyedArg, user
// functions never declare instances directly; the analyzer summarizes
// their bodies instead.
func (s *Summary) InstanceArg(name string, loc Loc) (int, bool) {
	decl, ok := s.Builtins[name]
	if !ok || decl.InstanceBy == nil {
		return -1, false
	}
	idx, ok := decl.InstanceBy[loc]
	return idx, ok
}

// AllocatesFresh reports whether builtin name returns a globally fresh
// instance handle of loc.
func (s *Summary) AllocatesFresh(name string, loc Loc) bool {
	decl, ok := s.Builtins[name]
	if !ok {
		return false
	}
	for _, l := range decl.Allocates {
		if l == loc {
			return true
		}
	}
	return false
}

// CallEffects returns the abstract reads and writes of a call to name, as
// ascending lists: the summary for user functions, the declared effects for
// builtins, and none for unknown names. The lists are shared: callers must
// not modify them.
func (s *Summary) CallEffects(name string) (reads, writes []Loc) {
	if fe, ok := s.Fns[name]; ok {
		return fe.Reads, fe.Writes
	}
	fe, ok := s.called[name]
	if !ok {
		decl, ok := s.Builtins[name]
		if !ok {
			return nil, nil
		}
		fe = declEffects(decl)
	}
	return fe.Reads, fe.Writes
}

// declEffects tabulates a builtin declaration's effects, sharing its lists
// when they are already ascending without duplicates.
func declEffects(decl Decl) FnEffects {
	return FnEffects{Reads: ascending(decl.Reads), Writes: ascending(decl.Writes)}
}

// ascending returns locs when it is strictly ascending, else a sorted copy
// without duplicates.
func ascending(locs []Loc) []Loc {
	for i := 1; i < len(locs); i++ {
		if locs[i-1] >= locs[i] {
			return sortUnique(slices.Clone(locs))
		}
	}
	return locs
}
