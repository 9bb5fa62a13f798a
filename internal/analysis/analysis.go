// Package analysis is the pass suite behind commsetvet: a whole-program
// misannotation and race analyzer for COMMSET programs.
//
// The paper's front end (Section 4.2) only checks *well-formedness* of the
// pragmas; it trusts the programmer that annotated blocks really commute, so
// a wrong annotation silently becomes a data race in the generated DOALL or
// (PS-)DSWP code. This package closes that gap with four post-pipeline
// static check families over the compiler's own artifacts — effect
// summaries, the annotated PDG, the commset model, symbolic predicate
// evaluation, and the generated schedules:
//
//   - unsound-annotation detection: a relaxed dependence edge whose
//     conflicting abstract locations are neither serialized by a set lock
//     nor provably disjoint under the set's COMMSETPREDICATE,
//   - static race detection over schedules: cross-iteration conflicts that
//     a generated parallel schedule runs concurrently without protection,
//   - lints: dead pragmas, provably-false predicates, and subsumed
//     self-commutativity annotations,
//   - semantic commutativity verification: each member pair is symbolically
//     executed in both orders over the builtin effect models and the two
//     post-states are differenced; pairs whose difference is not provably
//     empty get a commute-unverified report with a counterexample.
//
// All checks are purely static: no profiling or execution is involved, and
// every loop of every lowered function is analyzed (a pragma may target a
// setup loop rather than the hot loop).
package analysis

import (
	"fmt"
	"strings"

	"repro/internal/effects"
	"repro/internal/pdg"
	"repro/internal/pipeline"
	"repro/internal/source"
)

// Checks selects which analyzer families run.
type Checks struct {
	Unsound bool
	Race    bool
	Lint    bool
	Commute bool
}

// DefaultChecks enables every analyzer.
func DefaultChecks() Checks {
	return Checks{Unsound: true, Race: true, Lint: true, Commute: true}
}

// Options configures an analysis run.
type Options struct {
	Checks Checks
	// Threads is the thread count used for schedule generation (the race
	// detector examines every schedule the compiler would emit). Defaults
	// to 8.
	Threads int
	// Privatize analyzes the program as executed under the runtime's
	// privatized-commutative-update tuning: every commutative member
	// update runs against a per-thread shadow copy and is published by one
	// synchronized merge per worker at loop exit, so cross-iteration
	// conflicts relaxed by a common commset are no longer concurrent and
	// the race detector stays quiet about them. Only the race check is
	// affected: conflicts no commset relaxes still race, and the
	// unsound-commutativity audit still reports claims the model cannot
	// support — privatization changes when updates are published, not
	// whether they commute.
	Privatize bool
	// Discharge carries dynamic sanitizer verdicts into the commute
	// check: a cannot-decide warning whose (set, member pair) has a
	// dynamic verdict becomes a verified-dynamic note or a hard error
	// with the concrete counterexample and replay seed.
	Discharge DischargeSet
}

// loopCtx is one analyzed loop with the function that owns it.
type loopCtx struct {
	fn string
	la *pipeline.LoopAnalysis
}

// vet carries the state shared by the check families.
type vet struct {
	c     *pipeline.Compiled
	opts  Options
	diags *source.DiagList
	loops []loopCtx

	// kf caches the whole-program key-flow/instance-flow summaries
	// (computed lazily by keyflow()).
	kf *keyFlow
	// edgeLocs caches conflictLocsAt per PDG edge.
	edgeLocs map[*pdg.Edge][]effects.Loc

	// seen deduplicates reports: symmetric PDG edges and repeated schedules
	// would otherwise report the same finding several times.
	seen map[string]bool
}

// Run analyzes a compiled program and returns the analyzer diagnostics,
// sorted deterministically. The compilation itself must have succeeded.
func Run(c *pipeline.Compiled, opts Options) (*source.DiagList, error) {
	if opts.Threads <= 0 {
		opts.Threads = 8
	}
	v := &vet{c: c, opts: opts, diags: &source.DiagList{}, seen: map[string]bool{}}
	var fns []string
	seenFn := map[string]bool{}
	for _, lu := range c.Low.Loops {
		if !seenFn[lu.Func] {
			seenFn[lu.Func] = true
			fns = append(fns, lu.Func)
		}
	}
	for _, fn := range fns {
		las, err := c.AnalyzeFuncLoops(fn)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		for _, la := range las {
			v.loops = append(v.loops, loopCtx{fn: fn, la: la})
		}
	}
	if opts.Checks.Unsound {
		v.checkUnsound()
	}
	if opts.Checks.Race {
		v.checkRace()
	}
	if opts.Checks.Lint {
		v.checkLint()
	}
	if opts.Checks.Commute {
		v.checkCommute()
	}
	v.diags.Sort()
	return v.diags, nil
}

// once reports whether the given dedup key is new, recording it.
func (v *vet) once(key string) bool {
	if v.seen[key] {
		return false
	}
	v.seen[key] = true
	return true
}

// orderedPosKey builds a position-pair dedup key that collapses the two
// directions of a symmetric dependence.
func orderedPosKey(p1, p2 source.Pos) string {
	if p2.Before(p1) {
		p1, p2 = p2, p1
	}
	return fmt.Sprintf("%s|%s", p1, p2)
}

// displayName renders a member function name for diagnostics: extracted
// region functions are shown as the annotated block they came from.
func (v *vet) displayName(fn string) string {
	if pos, ok := v.c.Low.RegionFuncs[fn]; ok {
		return fmt.Sprintf("block@%s", pos)
	}
	return fn
}

// pairDesc describes the two conflicting member instances: self pairs read
// "instances of member X", cross pairs "members X and Y".
func (v *vet) pairDesc(fn1, fn2 string) string {
	if fn1 == fn2 {
		return fmt.Sprintf("instances of member %s", v.displayName(fn1))
	}
	return fmt.Sprintf("members %s and %s", v.displayName(fn1), v.displayName(fn2))
}

// sharedLoc reports whether an abstract location names shared state (a
// MiniC global or a substrate effect tag), as opposed to a local slot or
// register cause.
func sharedLoc(loc string) bool {
	return strings.HasPrefix(loc, "g:") || strings.HasPrefix(loc, "t:")
}
