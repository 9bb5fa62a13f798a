package exec

import (
	"testing"

	"repro/internal/lower"
	"repro/internal/pipeline"
	"repro/internal/vm/des"
	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

func ckTestFrames() (fr, ref *frame) {
	ref = &frame{
		locals:    make([]value.Value, 8),
		regs:      make([]value.Value, 16),
		sharedSrc: make([]int, 16),
	}
	for i := range ref.locals {
		ref.locals[i] = value.Int(int64(100 + i))
	}
	for i := range ref.regs {
		ref.regs[i] = value.Int(int64(200 + i))
	}
	fr = ref.clone()
	return fr, ref
}

// TestCkFrameRoundTrip: a frame encoded against a reference must decode to
// an identical frame, whatever the divergence pattern.
func TestCkFrameRoundTrip(t *testing.T) {
	fr, ref := ckTestFrames()
	// Two runs of diverging locals, one diverging reg, two tagged sources.
	fr.locals[1] = value.Int(-1)
	fr.locals[2] = value.Int(-2)
	fr.locals[6] = value.Int(-3)
	fr.regs[4] = value.Int(-4)
	fr.sharedSrc[0] = 3
	fr.sharedSrc[9] = 5

	c := encodeFrame(fr, ref)
	got := c.decode()
	for i := range fr.locals {
		if got.locals[i] != fr.locals[i] {
			t.Errorf("local %d = %v, want %v", i, got.locals[i], fr.locals[i])
		}
	}
	for i := range fr.regs {
		if got.regs[i] != fr.regs[i] {
			t.Errorf("reg %d = %v, want %v", i, got.regs[i], fr.regs[i])
		}
		if got.sharedSrc[i] != fr.sharedSrc[i] {
			t.Errorf("sharedSrc %d = %d, want %d", i, got.sharedSrc[i], fr.sharedSrc[i])
		}
	}

	// The decoded frame must not alias the reference: restoring one thief
	// and then mutating its frame cannot corrupt later restores.
	got.locals[0] = value.Int(-99)
	got.sharedSrc[1] = 7
	if ref.locals[0] != value.Int(100) || ref.sharedSrc[1] != 0 {
		t.Error("decoded frame aliases the reference frame")
	}
	if c.decode().locals[0] != fr.locals[0] {
		t.Error("second decode poisoned by mutation of the first")
	}
}

// TestCkFrameCompression: the encoded word count must reflect the delta
// structure — the run-length accounting the checkpoint/restore costs are
// charged by — not the frame width.
func TestCkFrameCompression(t *testing.T) {
	fr, ref := ckTestFrames()

	// Identical frames compress to the framing word alone.
	if c := encodeFrame(fr, ref); c.words != 1 {
		t.Errorf("identical frame encodes to %d words, want 1", c.words)
	}

	// One diverging run of three values: framing + run header + 3 literals.
	fr.locals[2] = value.Int(-1)
	fr.locals[3] = value.Int(-2)
	fr.locals[4] = value.Int(-3)
	if c := encodeFrame(fr, ref); c.words != 1+2+3 {
		t.Errorf("3-value run encodes to %d words, want 6", c.words)
	}

	// A second, separate run pays its own header; tag runs count likewise.
	fr.regs[10] = value.Int(-4)
	fr.sharedSrc[5] = 2
	if c := encodeFrame(fr, ref); c.words != 1+(2+3)+(2+1)+(2+1) {
		t.Errorf("two value runs + one tag run encode to %d words, want 12", c.words)
	}

	// A fully diverged frame still costs more than a sparse one, so the
	// cost model orders snapshots by how much state actually moved.
	sparse := encodeFrame(fr, ref)
	for i := range fr.locals {
		fr.locals[i] = value.Int(-int64(i) - 50)
	}
	for i := range fr.regs {
		fr.regs[i] = value.Int(-int64(i) - 90)
	}
	if c := encodeFrame(fr, ref); c.words <= sparse.words {
		t.Errorf("dense delta (%d words) not larger than sparse delta (%d words)", c.words, sparse.words)
	}
}

// TestCheckpointBuffersReused: once warm, a stage checkpoint overwrites the
// previous one in place and a resilient DOALL iteration snapshots its frame
// into the stepper's reused retry buffer, so neither allocates.
func TestCheckpointBuffersReused(t *testing.T) {
	fr, _ := ckTestFrames()
	m := &machine{
		cfg: Config{Cost: des.DefaultCostModel(), Recovery: DefaultRecovery()},
		la:  &pipeline.LoopAnalysis{Units: &lower.LoopUnits{}},
	}
	th := &des.Thread{}
	st := &stepper{m: m, th: th, it: &interp.Thread{}, fr: fr}
	in := []*qReader{{buf: []any{token{iter: 1}, token{iter: 2}}}}
	out := []*qWriter{{buf: []any{token{iter: 0}}}}
	ss := &stageState{log: [][]any{{token{iter: 0}}}}
	m.takeStageCkpt(th, st, ss, in, out)
	if got := ss.ck.inBufs[0]; len(got) != 2 || got[1].(token).iter != 2 {
		t.Fatalf("checkpointed input residue = %v", got)
	}
	if len(ss.log[0]) != 0 {
		t.Fatalf("token log not reset by the checkpoint: %v", ss.log[0])
	}
	ckFr := ss.ck.fr
	fr.locals[0] = value.Int(-1)
	m.takeStageCkpt(th, st, ss, in, out)
	if ss.ck.fr != ckFr || ss.ck.fr.locals[0] != value.Int(-1) {
		t.Fatal("second checkpoint did not overwrite the first in place")
	}
	if n := testing.AllocsPerRun(100, func() { m.takeStageCkpt(th, st, ss, in, out) }); n != 0 {
		t.Errorf("takeStageCkpt: %v allocations per checkpoint, want 0", n)
	}
	if err := m.runIterBody(st, fr); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.runIterBody(st, fr) }); n != 0 {
		t.Errorf("runIterBody: %v allocations per iteration, want 0", n)
	}
}
