//go:build go1.23

package des

import "math"

// Arrivals is a deterministic request-arrival process for open-system
// (service-mode) simulations: Next returns the virtual-time gap before the
// next request arrives. Implementations are seeded and purely functional
// over their own state, so the same seed always reproduces the same trace
// regardless of host scheduling — the property every service-mode
// determinism assertion rests on.
type Arrivals interface {
	Next() int64
	// Name labels the process for reports and diagnostics.
	Name() string
}

// arrRNG is a splitmix64 stream: the standard seeded generator used by the
// fault injector, in stateful form.
type arrRNG struct {
	x uint64
}

func (r *arrRNG) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a draw in [0, 1).
func (r *arrRNG) uniform() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// exp returns an exponentially distributed gap with the given mean (the
// interarrival distribution of a Poisson process), by inverse-CDF sampling.
// Gaps are clamped to at least 1 so virtual time always advances.
func (r *arrRNG) exp(mean float64) int64 {
	if mean <= 0 {
		return 1
	}
	g := int64(-mean * math.Log(1-r.uniform()))
	if g < 1 {
		g = 1
	}
	return g
}

// poisson is a stationary Poisson arrival process.
type poisson struct {
	rng  arrRNG
	mean float64
}

// NewPoisson builds a Poisson process with the given mean interarrival gap
// in virtual-time units.
func NewPoisson(seed uint64, meanGap float64) Arrivals {
	return &poisson{rng: arrRNG{x: seed}, mean: meanGap}
}

func (p *poisson) Name() string { return "poisson" }
func (p *poisson) Next() int64  { return p.rng.exp(p.mean) }

// mmpp is a two-state Markov-modulated Poisson process — the classic bursty
// arrival model: a quiet phase and a burst phase, each with its own Poisson
// rate, with exponentially distributed phase sojourns.
type mmpp struct {
	rng     arrRNG
	gap     [2]float64 // mean interarrival gap per phase
	sojourn [2]float64 // mean phase duration in virtual time
	phase   int
	left    int64 // virtual time remaining in the current phase
}

// NewBursty builds an MMPP(2) process around a base mean gap: the quiet
// phase arrives at half the base rate (gap ×2), the burst phase at four
// times the base rate (gap ÷4). Phases last ~meanSojourn virtual-time
// units each, exponentially distributed.
func NewBursty(seed uint64, baseGap, meanSojourn float64) Arrivals {
	m := &mmpp{
		rng:     arrRNG{x: seed},
		gap:     [2]float64{baseGap * 2, baseGap / 4},
		sojourn: [2]float64{meanSojourn, meanSojourn},
	}
	m.left = m.rng.exp(m.sojourn[0])
	return m
}

func (m *mmpp) Name() string { return "bursty" }

func (m *mmpp) Next() int64 {
	for m.left <= 0 {
		m.phase = 1 - m.phase
		m.left = m.rng.exp(m.sojourn[m.phase])
	}
	g := m.rng.exp(m.gap[m.phase])
	m.left -= g
	return g
}

// diurnal modulates a Poisson process with a piecewise rate profile spread
// over the whole trace — the virtual day: overnight lull, morning ramp,
// midday peak, evening tail.
type diurnal struct {
	rng   arrRNG
	base  float64
	shape []float64
	n, k  int
}

// diurnalShape is the default load profile, as rate multipliers over the
// base rate across the virtual day.
var diurnalShape = []float64{0.25, 0.5, 1, 2, 3, 2, 1, 0.5}

// NewDiurnal builds a diurnal-trace process over n total requests: request
// k draws its gap from a Poisson process whose rate is the base rate times
// the profile value at position k/n of the virtual day.
func NewDiurnal(seed uint64, baseGap float64, n int) Arrivals {
	if n < 1 {
		n = 1
	}
	return &diurnal{rng: arrRNG{x: seed}, base: baseGap, shape: diurnalShape, n: n}
}

func (d *diurnal) Name() string { return "diurnal" }

func (d *diurnal) Next() int64 {
	idx := d.k * len(d.shape) / d.n
	if idx >= len(d.shape) {
		idx = len(d.shape) - 1
	}
	d.k++
	return d.rng.exp(d.base / d.shape[idx])
}
