package transform

import "fmt"

// Tuning is the adaptive-scheduling knob set applied on top of a
// Schedule: the DOALL chunk size, the pipeline-queue batch size, and
// whether commutative updates are privatized into per-thread shadow state
// merged at loop exit. The zero value reproduces the paper's fixed
// policies (static round-robin, per-token queues, shared updates).
type Tuning struct {
	// Chunk is the DOALL iteration block size (cf. OpenMP's
	// schedule(static, k)): worker w owns iteration i when
	// (i/Chunk) % threads == w. Values ≤1 keep the paper's round-robin,
	// i % threads. Ignored by pipeline kinds.
	Chunk int
	// Batch is the pipeline-queue transfer batch size; values ≤1 keep
	// per-token Push/Pop.
	Batch int
	// Privatize executes commutative member updates against per-thread
	// shadow state and merges once per thread at loop exit under the
	// set's sync mode — legal because COMMSET declares the interleaving
	// of member calls irrelevant, so any merge order is a valid one.
	Privatize bool
	// Steal lets DOALL workers that finish their share steal un-started
	// iteration ranges from the most-behind peer (virtual-time-ordered,
	// deterministic; see exec's steal board), and lets service-mode
	// workers parked by the degradation ladder drain dispatch backlog.
	// Ignored by pipeline kinds.
	Steal bool
}

// IsZero reports whether the tuning leaves every fixed policy in place.
func (t Tuning) IsZero() bool {
	return t.Chunk <= 1 && t.Batch <= 1 && !t.Privatize && !t.Steal
}

// String renders the non-default knobs, e.g. "chunked(4)+batch(8)+priv".
func (t Tuning) String() string {
	var parts []string
	if t.Chunk > 1 {
		parts = append(parts, fmt.Sprintf("chunked(%d)", t.Chunk))
	}
	if t.Batch > 1 {
		parts = append(parts, fmt.Sprintf("batch(%d)", t.Batch))
	}
	if t.Privatize {
		parts = append(parts, "priv")
	}
	if t.Steal {
		parts = append(parts, "steal")
	}
	if len(parts) == 0 {
		return "static"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "+" + p
	}
	return out
}

// ChunkSize returns the effective DOALL chunk size (≥1).
func (t Tuning) ChunkSize() int {
	if t.Chunk < 1 {
		return 1
	}
	return t.Chunk
}

// BatchSize returns the effective queue batch size (≥1).
func (t Tuning) BatchSize() int {
	if t.Batch < 1 {
		return 1
	}
	return t.Batch
}
