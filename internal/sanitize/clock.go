// Package sanitize is the dynamic commset-aware sanitizer: a
// vector-clock happens-before race detector over the deterministic DES,
// plus a concrete-state commutativity oracle that replays racing member
// pairs in both orders on a captured pre-state.
//
// The monitor is fed by instrumentation hooks in internal/vm/interp
// (global loads/stores, builtin effect accesses), internal/vm/exec
// (shared-cell traffic, member-extent enter/exit), and internal/vm/des
// (lock, queue, and spawn happens-before edges). Hooks never charge
// virtual time, so sanitized runs are bit-for-bit identical in simulated
// cost to plain runs.
package sanitize

// vclock is a dense vector clock indexed by simulated thread ID. Thread
// IDs are small dense integers, but crash/restart replacements can push
// them past the initial thread count, so a clock grows on demand and a
// component past its end reads as 0.
type vclock []int64

func newClock(tid int) vclock {
	c := make(vclock, tid+1)
	c[tid] = 1
	return c
}

func (c vclock) get(tid int) int64 {
	if tid < len(c) {
		return c[tid]
	}
	return 0
}

// tick advances the owning thread's component; called at every outgoing
// happens-before edge source (lock release, queue push, spawn). The
// owner's clock always covers its own ID (see newClock).
func (c vclock) tick(tid int) { c[tid]++ }

// join folds o into c componentwise (c := c ⊔ o), growing c to o's
// length.
func (c *vclock) join(o vclock) {
	if n := len(o) - len(*c); n > 0 {
		*c = append(*c, make(vclock, n)...)
	}
	cc := *c
	for t, v := range o {
		if v > cc[t] {
			cc[t] = v
		}
	}
}

// assign overwrites c with o in place, reusing c's storage.
func (c *vclock) assign(o vclock) { *c = append((*c)[:0], o...) }
