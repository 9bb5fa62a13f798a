package analysis

import (
	"fmt"

	"repro/internal/effects"
	"repro/internal/pdg"
	"repro/internal/source"
	"repro/internal/transform"
)

// checkRace walks every parallel schedule the compiler would generate and
// verifies that each cross-iteration conflict on a shared abstract location
// is either serialized by the schedule (confined to a sequential pipeline
// stage) or covered by a synchronized/key-disjoint commutativity
// relaxation. Anything else is a data race in the generated code.
//
// The concurrency model per schedule kind:
//
//   - DOALL runs whole iterations concurrently, so every loop-carried
//     conflict between body units is concurrent;
//   - DSWP/PS-DSWP overlap iterations across stages: two accesses are
//     serialized only when they share a sequential stage (one thread, in
//     iteration order); accesses in different stages, or in a replicated
//     parallel stage, run concurrently across iterations.
//
// Unrelaxed loop-carried conflicts normally collapse into one SCC — the
// dependence runs in both directions — and therefore share a sequential
// stage; finding one in a concurrent position means the partitioner
// violated a dependence, which is reported as a race too.
func (v *vet) checkRace() {
	for _, lc := range v.loops {
		la := lc.la
		g := transform.BuildUnitGraph(la, nil)
		for _, sched := range transform.GraphSchedules(g, v.opts.Threads) {
			if sched.Kind == transform.Sequential {
				continue
			}
			v.checkSchedule(lc, g, sched)
		}
	}
}

func (v *vet) checkSchedule(lc loopCtx, g *transform.UnitGraph, sched *transform.Schedule) {
	la := lc.la
	// stageOf maps a unit to its stage, -1 when no stage runs it.
	stageOf := make([]int, g.NumUnits)
	for u := range stageOf {
		stageOf[u] = -1
	}
	for si, st := range sched.Stages {
		for _, u := range st.Units {
			stageOf[u] = si
		}
	}
	for _, e := range la.PDG.Edges {
		switch e.Kind {
		case pdg.DepFlow, pdg.DepAnti, pdg.DepOutput:
		default:
			continue
		}
		if !e.LoopCarried || e.SlotID > 0 || !sharedLoc(e.Loc) {
			continue
		}
		u1, u2 := g.UnitOf[e.From], g.UnitOf[e.To]
		if u1 == transform.ControlUnit || u2 == transform.ControlUnit {
			continue // the iteration dispatcher serializes loop control
		}
		s1, s2 := stageOf[u1], stageOf[u2]
		if s1 < 0 || s2 < 0 {
			continue
		}
		concurrent := false
		if sched.Kind == transform.DOALL {
			concurrent = true
		} else if s1 != s2 {
			concurrent = true // pipeline stages overlap across iterations
		} else {
			concurrent = sched.Stages[s1].Parallel
		}
		if !concurrent {
			continue
		}
		n1, n2 := la.Dep.Of(e.From), la.Dep.Of(e.To)
		in1, in2 := la.PDG.Instrs[n1], la.PDG.Instrs[n2]
		if in1 == nil || in2 == nil {
			continue
		}
		for _, loc := range v.conflictLocsAt(la, e) {
			if v.raceProtected(lc, e, n1, n2, loc) {
				continue
			}
			if v.opts.Privatize && v.privatizable(lc, e, n1, n2) {
				// Under the privatization tuning the commutative update
				// runs on per-thread shadow state and merges once under
				// the set's sync mode — the conflict is never concurrent.
				continue
			}
			key := fmt.Sprintf("race|%s|%s", orderedPosKey(in1.Pos, in2.Pos), loc)
			if !v.once(key) {
				continue
			}
			why := ""
			if e.Comm == pdg.CommNone {
				why = " (dependence is not relaxed by any commset)"
			}
			v.diags.Errorf(v.c.File.Name, in1.Pos,
				"data race: cross-iteration conflict on %s between %s runs concurrently under the %s schedule without synchronization%s",
				loc, v.pairDesc(in1.Name, in2.Name), sched.Kind, why).
				Related(v.c.File.Name, source.Span{Start: in2.Pos}, "conflicting access here")
		}
	}
}

// raceProtected reports whether some justifying set protects the concurrent
// conflict on loc: a synchronized set's lock, a trusted thread-safe library
// claim, or a key-disjointness argument from the predicate.
func (v *vet) raceProtected(lc loopCtx, e *pdg.Edge, n1, n2 int, loc effects.Loc) bool {
	if e.Comm == pdg.CommNone {
		return false
	}
	m1s := lc.membsOf(n1)
	m2s := lc.membsOf(n2)
	for _, s := range e.CommBy {
		m1, ok1 := membIn(m1s, s)
		m2, ok2 := membIn(m2s, s)
		if ok1 && ok2 && v.covers(s, m1, m2, loc) {
			return true
		}
	}
	return false
}

// privatizable reports whether the privatization tuning serializes the
// conflict: both instances are members of a common commset that relaxes
// the edge, so their updates land in per-thread shadow state and publish
// through one synchronized merge per worker. A conflict that touches
// state no commset declares commutative (CommNone, or no common set) is
// not rescued — its merge would touch non-commutative state.
func (v *vet) privatizable(lc loopCtx, e *pdg.Edge, n1, n2 int) bool {
	if e.Comm == pdg.CommNone {
		return false
	}
	m1s := lc.membsOf(n1)
	m2s := lc.membsOf(n2)
	for _, s := range e.CommBy {
		_, ok1 := membIn(m1s, s)
		_, ok2 := membIn(m2s, s)
		if ok1 && ok2 {
			return true
		}
	}
	return false
}
