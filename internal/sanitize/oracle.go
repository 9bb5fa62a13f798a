package sanitize

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// Snapshot is the concrete pre-state captured at a member invocation's
// entry: the global heap, the promoted shared frame cells, and a deep
// clone of the builtin world, plus the handle-space baseline used to
// quotient fresh allocations during the diff.
type Snapshot struct {
	Heap  map[string]value.Value
	Cells map[int]value.Value
	World *builtins.World
	Base  builtins.Baseline
}

// Invocation is one recorded member call: the function, its commsets,
// the concrete arguments (with shared cells re-read at call time), and
// the slot wiring needed to thread shared cells through a replay
// (ArgSlots maps argument index → cell slot, OutSlots maps return index
// → cell slot).
type Invocation struct {
	Gseq     int64
	Fn       string
	Sets     []SetTag
	Args     []value.Value
	ArgSlots map[int]int
	OutSlots map[int]int
	Rets     []value.Value
	Err      string
	Pre      *Snapshot
}

// Verdict values for a replayed pair.
const (
	VerdictVerified     = "verified"
	VerdictViolation    = "violation"
	VerdictInconclusive = "inconclusive"
)

// PairVerdict is the oracle's result for one candidate pair: the two
// orders were replayed on the captured pre-state and their observable
// outcomes diffed.
type PairVerdict struct {
	Set     string `json:"set"`
	FnA     string `json:"fn_a"`
	FnB     string `json:"fn_b"`
	GseqA   int64  `json:"gseq_a"`
	GseqB   int64  `json:"gseq_b"`
	Cell    string `json:"cell,omitempty"`
	Verdict string `json:"verdict"`
	// Diff is the first observable divergence between A;B and B;A — the
	// concrete counterexample for a violation.
	Diff string `json:"diff,omitempty"`
	Note string `json:"note,omitempty"`
	// Replay is the deterministic repro command (the replay seed): the
	// run it names reproduces the same gseq pair and verdict.
	Replay string `json:"replay,omitempty"`
}

// Tally counts the verified and the violating verdicts among pairs.
func Tally(pairs []PairVerdict) (verified, violations int) {
	for _, p := range pairs {
		switch p.Verdict {
		case VerdictVerified:
			verified++
		case VerdictViolation:
			violations++
		}
	}
	return verified, violations
}

// drawTape implements the draw-stability contract dynamically. Builtins
// modeled ResDraw (RNG, input dequeues) return values that the semantics
// treats as stable per execution identity: swapping two members must not
// re-deal their draws. The first order records each invocation's draw
// results; the second order still executes the real builtin (so
// underlying state advances identically) but overrides the returned
// value with the recorded one, falling back to the live value if the
// replay draws more than was recorded.
type drawTape struct {
	record bool
	cur    string
	vals   map[string][]value.Value
	idx    map[string]int
}

func newDrawTape() *drawTape {
	return &drawTape{record: true, vals: map[string][]value.Value{}, idx: map[string]int{}}
}

// wrapReplay instruments the builtin table for one replay order: draw
// builtins go through the tape, and builtins whose effect declares
// Allocates have their returned handles recorded in the outcome's fresh
// map so the diff can compare them up to renaming (a member that opens a
// file must be allowed to receive fd 2 in one order and fd 3 in the
// other — mirroring the static verifier's fresh-location quotient).
func (m *Monitor) wrapReplay(fns map[string]interp.BuiltinFn, t *drawTape, out *outcome) map[string]interp.BuiltinFn {
	for name, fn := range fns {
		mdl, ok := builtins.ModelOf(name)
		draw := ok && mdl.Result == builtins.ResDraw
		alloc := (ok && mdl.Result == builtins.ResFresh) || len(m.eff[name].Allocates) > 0
		if !draw && !alloc {
			continue
		}
		orig, key := fn, name
		fns[name] = func(args []value.Value) (value.Value, int64, error) {
			v, cost, err := orig(args)
			if err != nil {
				return v, cost, err
			}
			k := t.cur + "|" + key
			if draw {
				if t.record {
					t.vals[k] = append(t.vals[k], v)
				} else if i := t.idx[k]; i < len(t.vals[k]) {
					v = t.vals[k][i]
					t.idx[k] = i + 1
				}
			}
			if alloc {
				n := out.allocN[k]
				out.allocN[k] = n + 1
				raw := renderVal(v)
				if _, dup := out.fresh[raw]; dup {
					// The same rendered value was allocated twice this
					// order: renaming is ambiguous, fall back to raw
					// comparison for it.
					out.fresh[raw] = ""
				} else {
					out.fresh[raw] = fmt.Sprintf("fresh:%s:%s#%d", t.cur, key, n)
				}
			}
			return v, cost, err
		}
	}
	return fns
}

// outcome is the state after replaying one order: the rendered returns,
// globals and shared cells, and the replayed world with the snapshot's
// baseline, which the diff compares in place. fresh maps a rendered
// handle value to its allocation identity
// ("fresh:<invocation>:<builtin>#<n>"), so two orders that hand the same
// member differently-numbered fresh handles still compare equal.
type outcome struct {
	rets   map[string][]string
	cells  map[string]string
	heap   map[string]string
	world  *builtins.World
	base   builtins.Baseline
	fresh  map[string]string
	allocN map[string]int
}

// canon returns the allocation identity of a rendered value, or "" when
// the value is not an unambiguous fresh handle in this order.
func (o *outcome) canon(s string) string {
	return o.fresh[s]
}

// eqUpToFresh compares one rendered value from each order, treating
// fresh handles with the same allocation identity as equal.
func eqUpToFresh(a, b *outcome, va, vb string) bool {
	if va == vb {
		return true
	}
	ca, cb := a.canon(va), b.canon(vb)
	return ca != "" && ca == cb
}

// replayPair replays a then b (A;B) and b then a (B;A) on clones of a's
// captured pre-state and diffs the outcomes. Any replay failure yields
// an inconclusive verdict rather than a false refutation.
func (m *Monitor) replayPair(c Candidate, a, b *Invocation, replay string) PairVerdict {
	v := PairVerdict{
		Set: c.Set, FnA: a.Fn, FnB: b.Fn,
		GseqA: a.Gseq, GseqB: b.Gseq, Cell: c.Cell, Replay: replay,
	}
	if a.Pre == nil {
		v.Verdict = VerdictInconclusive
		v.Note = "pre-state snapshot missing"
		return v
	}
	tape := newDrawTape()
	out1, err := m.runOrder(a.Pre, []*Invocation{a, b}, tape)
	if err != nil {
		v.Verdict = VerdictInconclusive
		v.Note = "order A;B failed: " + err.Error()
		return v
	}
	tape.record = false
	out2, err := m.runOrder(a.Pre, []*Invocation{b, a}, tape)
	if err != nil {
		v.Verdict = VerdictInconclusive
		v.Note = "order B;A failed: " + err.Error()
		return v
	}
	if diff := diffOutcome(out1, out2); diff != "" {
		v.Verdict = VerdictViolation
		v.Diff = diff
	} else {
		v.Verdict = VerdictVerified
	}
	return v
}

// runOrder replays the invocations in order on a fresh clone of pre,
// threading shared cells through arguments and returns, and renders the
// resulting returns, globals and shared cells; the world stays unrendered
// until the diff finds where the orders' worlds differ.
func (m *Monitor) runOrder(pre *Snapshot, order []*Invocation, tape *drawTape) (*outcome, error) {
	w := pre.World.Clone()
	out := &outcome{
		rets:   map[string][]string{},
		cells:  map[string]string{},
		heap:   map[string]string{},
		world:  w,
		base:   pre.Base,
		fresh:  map[string]string{},
		allocN: map[string]int{},
	}
	env := interp.NewEnv(m.prog, m.wrapReplay(w.Fns(), tape, out))
	for k, val := range pre.Heap {
		env.Globals.Set(k, val)
	}
	cells := make(map[int]value.Value, len(pre.Cells))
	for k, val := range pre.Cells {
		cells[k] = val
	}
	for _, inv := range order {
		tag := fmt.Sprintf("%s#%d", inv.Fn, inv.Gseq)
		tape.cur = tag
		args := append([]value.Value(nil), inv.Args...)
		for i, slot := range inv.ArgSlots {
			if cv, ok := cells[slot]; ok && i < len(args) {
				args[i] = cv
			}
		}
		th := interp.NewThread(env)
		rets, err := th.CallByName(inv.Fn, args)
		if err != nil {
			return nil, fmt.Errorf("replaying %s (gseq %d): %v", inv.Fn, inv.Gseq, err)
		}
		for ri, slot := range inv.OutSlots {
			if ri < len(rets) {
				cells[slot] = rets[ri]
			}
		}
		out.rets[tag] = renderRets(rets, inv.OutSlots)
	}
	env.Globals.Range(func(k string, val value.Value) {
		out.heap[k] = renderVal(val)
	})
	for slot, val := range cells {
		out.cells[fmt.Sprintf("cell:%d", slot)] = renderVal(val)
	}
	return out, nil
}

// renderVal renders a value for diffing. Floats go through %.9g so IEEE
// reassociation noise from reordered accumulations does not register as
// a semantic difference (mirroring the static verifier's UBump quotient).
func renderVal(v value.Value) string {
	if v.T == ast.TFloat {
		return fmt.Sprintf("float:%.9g", v.F)
	}
	return v.T.String() + ":" + v.String()
}

// renderRets renders an invocation's returns for diffing, leaving out
// the returns written back to a shared cell: those are the cell's
// intermediate values, which legitimately differ between the orders, and
// the final cell is compared instead.
func renderRets(rets []value.Value, outSlots map[int]int) []string {
	out := make([]string, 0, len(rets))
	for i, v := range rets {
		if _, cell := outSlots[i]; !cell {
			out = append(out, renderVal(v))
		}
	}
	return out
}

// diffOutcome returns the first observable divergence between the two
// orders, or "" if they agree. Per-invocation returns are compared by
// invocation identity (a member must see the same results regardless of
// its peer's position), then heap, shared cells, and world observables —
// all up to fresh-handle renaming. The two worlds are compared location
// by location, and only the locations where they may differ are rendered
// (builtins.ObservableDiff), so the first divergence is the one a diff of
// the two whole ObservableState renderings finds.
func diffOutcome(a, b *outcome) string {
	if d := diffLocal(a, b); d != "" {
		return d
	}
	wa, wb := builtins.ObservableDiff(a.world, b.world, a.base)
	return diffMap("world", a, b, wa, wb)
}

// diffLocal compares what the replay renders itself: per-invocation
// returns, then heap and shared cells.
func diffLocal(a, b *outcome) string {
	for _, k := range sortedKeys(a.rets) {
		av, bv := a.rets[k], b.rets[k]
		same := len(av) == len(bv)
		for i := 0; same && i < len(av); i++ {
			same = eqUpToFresh(a, b, av[i], bv[i])
		}
		if !same {
			return fmt.Sprintf("return of %s: A;B=[%s] B;A=[%s]",
				k, strings.Join(av, ","), strings.Join(bv, ","))
		}
	}
	if d := diffMap("global", a, b, a.heap, b.heap); d != "" {
		return d
	}
	return diffMap("shared", a, b, a.cells, b.cells)
}

func diffMap(kind string, ao, bo *outcome, a, b map[string]string) string {
	keys := sortedKeys(a)
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !eqUpToFresh(ao, bo, a[k], b[k]) {
			return fmt.Sprintf("%s %s: A;B=%s B;A=%s", kind, k, orNone(a[k]), orNone(b[k]))
		}
	}
	return ""
}

func orNone(s string) string {
	if s == "" {
		return "<absent>"
	}
	return s
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
