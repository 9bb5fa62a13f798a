package sanitize

import (
	"fmt"
	"sort"
)

// Invocations returns the member invocations m recorded, in gseq order.
func Invocations(m *Monitor) []*Invocation {
	out := make([]*Invocation, 0, len(m.invs))
	for _, inv := range m.invs {
		out = append(out, inv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gseq < out[j].Gseq })
	return out
}

// referenceDiff is the whole-world comparison: each order's world
// rendered whole by ObservableState and the renderings diffed key by key.
func referenceDiff(a, b *outcome) string {
	if d := diffLocal(a, b); d != "" {
		return d
	}
	return diffMap("world", a, b, a.world.ObservableState(a.base), b.world.ObservableState(b.base))
}

// CheckReplays replays the pair of each verdict that replayed from m's
// recordings, in both orders, and checks that diffOutcome and the
// whole-world reference both give the verdict's diff. It returns the
// number of pairs replayed.
func CheckReplays(m *Monitor, verdicts []PairVerdict) (int, error) {
	n := 0
	for _, v := range verdicts {
		if v.Verdict == VerdictInconclusive {
			continue
		}
		a, b := m.invs[v.GseqA], m.invs[v.GseqB]
		tape := newDrawTape()
		o1, err := m.runOrder(a.Pre, []*Invocation{a, b}, tape)
		if err != nil {
			return n, err
		}
		tape.record = false
		o2, err := m.runOrder(a.Pre, []*Invocation{b, a}, tape)
		if err != nil {
			return n, err
		}
		n++
		if got, ref := diffOutcome(o1, o2), referenceDiff(o1, o2); got != v.Diff || ref != v.Diff {
			return n, fmt.Errorf("pair %s/%s gseq %d:%d: diff %q, whole-world reference %q, verdict %q",
				v.FnA, v.FnB, v.GseqA, v.GseqB, got, ref, v.Diff)
		}
	}
	return n, nil
}
