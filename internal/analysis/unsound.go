package analysis

import (
	"fmt"

	"repro/internal/effects"
	"repro/internal/pdg"
	"repro/internal/source"
	"repro/internal/types"
)

// checkUnsound audits every relaxed PDG edge: re-derive the abstract
// read/write footprints of the two member instances from the effect
// summaries, and flag relaxations where the members conflict on a location
// that no justifying set covers — no lock serializes the members, and the
// set's COMMSETPREDICATE never constrains accesses to that location. Such a
// pragma claims commutativity the model cannot support.
func (v *vet) checkUnsound() {
	for _, lc := range v.loops {
		la := lc.la
		for _, e := range la.PDG.Edges {
			if e.Comm == pdg.CommNone || len(e.CommBy) == 0 {
				continue
			}
			n1, n2 := la.Dep.Of(e.From), la.Dep.Of(e.To)
			in1, in2 := la.PDG.Instrs[n1], la.PDG.Instrs[n2]
			if in1 == nil || in2 == nil {
				continue
			}
			if slot, ok := e.LocalSlot(); ok {
				v.checkSlotRelaxation(lc, e, slot)
				continue
			}
			if !sharedLoc(e.Loc) {
				continue
			}
			m1s := v.membsOf(la, n1)
			m2s := v.membsOf(la, n2)
			for _, loc := range v.conflictLocsAt(la, e) {
				v.checkLocCoverage(e, in1.Pos, in2.Pos, in1.Name, in2.Name, m1s, m2s, loc)
			}
		}
	}
}

// checkLocCoverage verifies one conflicting location of one relaxed edge
// against every justifying set, reporting the strongest applicable
// diagnostic when none covers it.
func (v *vet) checkLocCoverage(e *pdg.Edge, p1, p2 source.Pos, fn1, fn2 string, m1s, m2s []memb, loc effects.Loc) {
	var firstPred *types.Set // a nosync predicated justifier, for naming
	var firstTrusted *types.Set
	for _, s := range e.CommBy {
		m1, ok1 := membIn(m1s, s)
		m2, ok2 := membIn(m2s, s)
		if !ok1 || !ok2 {
			continue
		}
		if v.covers(s, m1, m2, loc) {
			if s.NoSync && s.Pred == nil {
				// Covered only by trusting the thread-safe library claim;
				// keep looking for a stronger justification.
				if firstTrusted == nil {
					firstTrusted = s
				}
				continue
			}
			return
		}
		if s.NoSync && s.Pred != nil && firstPred == nil {
			firstPred = s
		}
	}
	if firstPred != nil {
		key := fmt.Sprintf("unsound|%s|%s|%s", orderedPosKey(p1, p2), firstPred.Name, loc)
		if v.once(key) {
			v.diags.Errorf(v.c.File.Name, p1,
				"unsound commutativity: %s of nosync commset %s conflict on %s, which predicate (%s) does not constrain and no lock protects",
				v.pairDesc(fn1, fn2), firstPred.Name, loc, firstPred.Pred.ExprText).
				Related(v.c.File.Name, source.Span{Start: p2}, "conflicting member instance here")
		}
		return
	}
	if firstTrusted != nil {
		key := fmt.Sprintf("trusted|%s|%s|%s", orderedPosKey(p1, p2), firstTrusted.Name, loc)
		if v.once(key) {
			v.diags.Warnf(v.c.File.Name, p1,
				"unverifiable commutativity: relaxation between %s relies on the COMMSETNOSYNC thread-safe claim of commset %s for %s",
				v.pairDesc(fn1, fn2), firstTrusted.Name, loc).
				Related(v.c.File.Name, source.Span{Start: p2}, "conflicting member instance here")
		}
	}
	// Otherwise every justifying set is synchronized and covers the
	// location by lock; nothing to report.
}

// checkSlotRelaxation audits relaxed local-slot edges: a shared
// read-modify-write accumulator promoted to shared storage is only safe
// when at least one justifying set carries a lock for the member to hold.
func (v *vet) checkSlotRelaxation(lc loopCtx, e *pdg.Edge, slot int) {
	for _, s := range e.CommBy {
		if !s.NoSync {
			return
		}
	}
	la := lc.la
	in1, in2 := la.PDG.Instrs[la.Dep.Of(e.From)], la.PDG.Instrs[la.Dep.Of(e.To)]
	if in1 == nil || in2 == nil {
		return
	}
	name := la.Fn.Locals[slot].Name
	key := fmt.Sprintf("slot|%s|%s|%d", lc.fn, orderedPosKey(in1.Pos, in2.Pos), slot)
	if v.once(key) {
		v.diags.Errorf(v.c.File.Name, in1.Pos,
			"unsound commutativity: shared accumulator %q is read-modify-written by members of nosync commset %s with no lock to make the update atomic",
			name, e.CommBy[0].Name).
			Related(v.c.File.Name, source.Span{Start: in2.Pos}, "conflicting member instance here")
	}
}
