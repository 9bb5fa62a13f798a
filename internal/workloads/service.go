package workloads

import (
	"fmt"
	"math"

	"repro/internal/builtins"
)

// Service wraps a workload as an open-system service: each admitted request
// binds one loop iteration, so a service run externalizes the effects of a
// subset of the batch run's iterations. Validation therefore checks
// subset-consistency — every completed request's output must appear in the
// sequential reference, and the output count must equal the completed count
// (zero silent drops reaches the effect layer too).
type Service struct {
	Name     string
	Workload *Workload
	// Variant selects the source variant served (the fully annotated
	// "comm", which supports all three transforms for both services).
	Variant string

	// Requests sizes the full trace; SmokeRequests the CI-sized one.
	Requests      int
	SmokeRequests int

	// SLOFactor and DeadlineFactor scale the measured per-request
	// sequential cost into the latency SLO and the abandonment deadline.
	SLOFactor      float64
	DeadlineFactor float64

	// Setup populates a fresh substrate world for an n-request trace.
	Setup func(w *builtins.World, n int)

	// HeavySetup, when non-nil, populates a world whose per-request service
	// times are heavy-tailed (bounded Pareto, seeded): most requests stay
	// cheap but a deterministic few are one to two orders of magnitude
	// larger. Overload cells use it to manufacture stragglers — a worker
	// that draws a tail request falls behind by design — so the campaign
	// can measure how much of the tail the stealing layer reclaims.
	HeavySetup func(w *builtins.World, n int, seed uint64)

	// Validate checks a service run's world against the sequential
	// reference world (same trace size), given how many requests the
	// service completed.
	Validate func(seq, par *builtins.World, completed int) error
}

// Services returns the open services of the campaign.
func Services() []*Service {
	return []*Service{urlService(), md5sumService()}
}

// urlService is packet switching as an open system: requests are packets,
// the response is the logged route. pkt_dequeue hands out sequential packet
// handles, so a run completing k requests logs exactly the reference lines
// of the first k handles.
func urlService() *Service {
	return &Service{
		Name:           "url-service",
		Workload:       URL(),
		Variant:        "comm",
		Requests:       400,
		SmokeRequests:  160,
		SLOFactor:      8,
		DeadlineFactor: 24,
		Setup: func(w *builtins.World, n int) {
			w.SetupPackets(n)
		},
		Validate: func(seq, par *builtins.World, completed int) error {
			if got := len(par.LogLines()); got != completed {
				return fmt.Errorf("url-service: %d log lines, want one per completed request (%d)", got, completed)
			}
			if err := cmpSubset("url-service log", seq.LogLines(), par.LogLines()); err != nil {
				return err
			}
			// The epilogue's packet-count print runs regardless of how many
			// requests completed.
			return cmpLines("url-service console", seq.Console, par.Console, true)
		},
	}
}

// md5sumService is the digest service: requests are files, the response is
// the printed digest. Request k digests file k, so completions print a
// subset of the reference digests.
func md5sumService() *Service {
	const fileSize = 4 * 1024
	return &Service{
		Name:           "md5sum-service",
		Workload:       Md5sum(),
		Variant:        "comm",
		Requests:       256,
		SmokeRequests:  96,
		SLOFactor:      8,
		DeadlineFactor: 24,
		Setup: func(w *builtins.World, n int) {
			for i := 0; i < n; i++ {
				w.AddFile(fmt.Sprintf("req%04d.dat", i), fileSize)
			}
		},
		HeavySetup: func(w *builtins.World, n int, seed uint64) {
			for i := 0; i < n; i++ {
				w.AddFile(fmt.Sprintf("req%04d.dat", i), paretoSize(seed, i))
			}
		},
		Validate: func(seq, par *builtins.World, completed int) error {
			if got := len(par.Console); got != completed {
				return fmt.Errorf("md5sum-service: %d digests printed, want one per completed request (%d)", got, completed)
			}
			return cmpSubset("md5sum-service console", seq.Console, par.Console)
		},
	}
}

// Bounded-Pareto request sizing for the heavy-tailed service option: shape
// alpha 1.1 (infinite-variance territory, the classic web-object regime),
// bounded in [1 KiB, 64 KiB] so a single tail request costs ~64x the mode
// without starving the rest of the trace. Sizes come from the inverse CDF
//
//	x = L * (1 - U*(1-(L/H)^alpha))^(-1/alpha)
//
// with U drawn from a splitmix64 stream keyed by (seed, request index), so
// the trace is a pure function of the seed: every rerun, thread count, and
// host replays byte-identical request sizes.
const (
	paretoAlpha = 1.1
	paretoLo    = 1024
	paretoHi    = 64 * 1024
)

func paretoSize(seed uint64, i int) int {
	u := splitmix64(seed + uint64(i)*0x9e3779b97f4a7c15)
	// Map to (0,1): never exactly 0 or 1, keeping the inverse CDF finite.
	uf := (float64(u>>11) + 0.5) / (1 << 53)
	ratio := math.Pow(paretoLo/float64(paretoHi), paretoAlpha)
	x := paretoLo * math.Pow(1-uf*(1-ratio), -1/paretoAlpha)
	if x > paretoHi {
		x = paretoHi
	}
	return int(x)
}

// splitmix64 is the standard 64-bit finalizer-based generator step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cmpSubset checks that par is a multiset subset of seq.
func cmpSubset(what string, seq, par []string) error {
	counts := make(map[string]int, len(seq))
	for _, l := range seq {
		counts[l]++
	}
	for i, l := range par {
		if counts[l] == 0 {
			return fmt.Errorf("%s: line %d (%q) not in (or exceeds) the sequential reference", what, i, l)
		}
		counts[l]--
	}
	return nil
}
