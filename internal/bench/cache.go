package bench

import (
	"sync"

	"repro/internal/builtins"
	"repro/internal/transform"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// Memoization of benchmark artifacts. Compiling a workload variant (parse,
// analyze, profile run, sequential baseline run) and measuring a schedule
// cell are both pure functions of their inputs — the whole evaluation is
// deterministic by construction — yet the campaigns repeat them
// constantly: specsFor and Figure6 compile the same variants back-to-back,
// the sanitizer's plain runs duplicate Figure 6 cells, the claims pass
// re-measures the figures, and every campaign recompiles the workloads it
// sweeps. Both are memoized.
//
// Entries use a per-key sync.Once so host-parallel campaign cells that
// race to the same key compute it exactly once, without serializing
// distinct keys behind one lock.

type compileKey struct {
	wl      string
	variant string
	threads int
}

type compileEntry struct {
	once sync.Once
	cp   *Compiled
	err  error
}

var (
	compileMu    sync.Mutex
	compileCache = map[compileKey]*compileEntry{}
)

// Compile compiles, profiles, and analyzes one variant of a workload.
// variant may be a variant name, or "noannot" for the pragma-stripped
// non-COMMSET baseline of the primary source. The artifact is memoized per
// (workload, variant, threads) — compilation is deterministic and the
// result is read-only, so the campaigns share one copy.
func Compile(wl *workloads.Workload, variant string, threads int) (*Compiled, error) {
	key := compileKey{wl.Name, variant, threads}
	compileMu.Lock()
	e := compileCache[key]
	if e == nil {
		e = &compileEntry{}
		compileCache[key] = e
	}
	compileMu.Unlock()
	e.once.Do(func() { e.cp, e.err = compileUncached(wl, variant, threads) })
	return e.cp, e.err
}

type runKey struct {
	kind    transform.Kind
	mode    exec.SyncMode
	threads int
	auto    bool
}

type runEntry struct {
	once sync.Once
	m    *Measurement
	err  error
}

// run measures one configuration, memoized per (kind, mode, threads, auto).
func (cp *Compiled) run(kind transform.Kind, mode exec.SyncMode, threads int, auto bool) (*Measurement, error) {
	key := runKey{kind, mode, threads, auto}
	cp.runMu.Lock()
	if cp.runCache == nil {
		cp.runCache = map[runKey]*runEntry{}
	}
	e := cp.runCache[key]
	if e == nil {
		e = &runEntry{}
		cp.runCache[key] = e
	}
	cp.runMu.Unlock()
	e.once.Do(func() { e.m, e.err = cp.runUncached(kind, mode, threads, auto) })
	if e.err != nil {
		return nil, e.err
	}
	// Shallow copy: callers treat the measurement as read-only but may
	// hold it past later cache hits; the World pointer is shared (it is
	// never mutated after validation).
	m := *e.m
	return &m, nil
}

// resetCaches drops the bench-level compile/run memos and the substrate's
// memos, so tests that compare runs cannot leak state into each other.
func resetCaches() {
	compileMu.Lock()
	compileCache = map[compileKey]*compileEntry{}
	compileMu.Unlock()
	builtins.ResetFastCaches()
}
