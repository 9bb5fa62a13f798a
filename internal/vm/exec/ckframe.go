package exec

import "repro/internal/vm/value"

// Compressed checkpoint frames.
//
// A DOALL worker's frame diverges only slowly from the frame the loop was
// entered with: most locals are loop-invariant live-ins, most registers are
// dead between passes, and the shared-source tags change only when a shared
// slot is re-read. A checkpoint therefore stores a *delta* against the
// immutable loop-entry reference frame (machine.ckRef): slots equal to the
// reference are run-length encoded away and only diverging slots are kept
// as literals. The encoded size in words prices the snapshot —
// Cost.Checkpoint + words×Cost.CheckpointWord to take one,
// Cost.Restore + words×Cost.RestoreWord to rebuild a frame from one — so
// the recovery tax that steals and crash salvage pay scales with how much
// state actually moved, not with frame width.
//
// The encoding is a single value stream (locals then regs) plus the
// shared-source tag stream, each as a list of (offset, length) runs of
// diverging slots with the literal values stored densely alongside. A run
// header counts 2 words, each literal value or tag 1 word, plus 1 word of
// framing.

// ckRun is one run of consecutive diverging slots in a stream.
type ckRun struct {
	off int // first diverging slot (offset into the combined stream)
	n   int // run length
}

// ckFrame is a delta/run-length-compressed frame snapshot taken against a
// reference frame. It is immutable once encoded; decode() materializes a
// fresh frame, so one ckFrame can seed several restores (replacement
// worker, thief, salvage shares).
type ckFrame struct {
	ref   *frame
	vruns []ckRun
	vals  []value.Value // literals for vruns, densely packed
	sruns []ckRun
	srcs  []int // literals for sruns, densely packed
	words int   // encoded size in cost words
}

// encodeFrame compresses fr as a delta against ref. The frames must have
// identical shapes (same function, same loop), which holds for every
// checkpoint of a loop: workers clone the loop-entry frame. A counting
// pass sizes the runs and literals, so each is allocated once.
func encodeFrame(fr, ref *frame) *ckFrame {
	nl := len(fr.locals)
	diff := func(i int) bool {
		if i < nl {
			return fr.locals[i] != ref.locals[i]
		}
		return fr.regs[i-nl] != ref.regs[i-nl]
	}
	srcDiff := func(i int) bool { return fr.sharedSrc[i] != ref.sharedSrc[i] }
	at := func(i int) value.Value {
		if i < nl {
			return fr.locals[i]
		}
		return fr.regs[i-nl]
	}
	total := nl + len(fr.regs)
	nvr, nv := countRuns(total, diff)
	nsr, ns := countRuns(len(fr.sharedSrc), srcDiff)
	c := &ckFrame{
		ref:   ref,
		vruns: make([]ckRun, 0, nvr),
		vals:  make([]value.Value, 0, nv),
		sruns: make([]ckRun, 0, nsr),
		srcs:  make([]int, 0, ns),
	}
	for i := 0; i < total; {
		if !diff(i) {
			i++
			continue
		}
		run := ckRun{off: i}
		for i < total && diff(i) {
			c.vals = append(c.vals, at(i))
			i++
			run.n++
		}
		c.vruns = append(c.vruns, run)
	}
	for i := 0; i < len(fr.sharedSrc); {
		if !srcDiff(i) {
			i++
			continue
		}
		run := ckRun{off: i}
		for i < len(fr.sharedSrc) && srcDiff(i) {
			c.srcs = append(c.srcs, fr.sharedSrc[i])
			i++
			run.n++
		}
		c.sruns = append(c.sruns, run)
	}
	c.words = 1 + 2*len(c.vruns) + len(c.vals) + 2*len(c.sruns) + len(c.srcs)
	return c
}

// countRuns counts the runs of consecutive slots below n that differ, and
// the differing slots.
func countRuns(n int, differs func(i int) bool) (runs, slots int) {
	prev := false
	for i := 0; i < n; i++ {
		d := differs(i)
		if d {
			slots++
			if !prev {
				runs++
			}
		}
		prev = d
	}
	return runs, slots
}

// decode materializes a fresh frame from the compressed delta.
func (c *ckFrame) decode() *frame {
	fr := snapshotFrame(c.ref)
	nl := len(fr.locals)
	vi := 0
	for _, r := range c.vruns {
		for k := 0; k < r.n; k++ {
			i := r.off + k
			if i < nl {
				fr.locals[i] = c.vals[vi]
			} else {
				fr.regs[i-nl] = c.vals[vi]
			}
			vi++
		}
	}
	si := 0
	for _, r := range c.sruns {
		for k := 0; k < r.n; k++ {
			fr.sharedSrc[r.off+k] = c.srcs[si]
			si++
		}
	}
	return fr
}

// checkpointCost prices taking a snapshot of the given encoded size.
func (m *machine) checkpointCost(c *ckFrame) int64 {
	return m.cfg.Cost.Checkpoint + int64(c.words)*m.cfg.Cost.CheckpointWord
}

// restoreCost prices rebuilding a frame from the given snapshot.
func (m *machine) restoreCost(c *ckFrame) int64 {
	return m.cfg.Cost.Restore + int64(c.words)*m.cfg.Cost.RestoreWord
}
