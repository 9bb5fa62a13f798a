package exec

import (
	"fmt"
	"math"

	"repro/internal/vm/des"
)

// ScalerConfig configures the service-mode online recalibrator: a controller
// thread that wakes every Window virtual-time units, re-estimates the
// arrival rate and per-request service cost from the last window, and walks
// the degradation ladder. Levels:
//
//	0  normal: the worker pool tracks ceil(arrival-rate × service-cost ×
//	   scalerHeadroom) active workers (online recalibration of the one-shot
//	   auto-scheduler calibration).
//	1  shed: request classes with ShedAtLevel ≤ 1 are dropped at admission.
//	2  scale-down: the pool collapses to MinWorkers — under contention the
//	   sequential-ish pool clears the backlog faster than a thrashing one.
//	3  fallback: with AllowFallback the run aborts with a non-transient
//	   OverloadError so RunServiceResilient degrades to the Accept-verified
//	   sequential service; otherwise the ladder tops out at level 2.
//
// The controller escalates after EscalateAfter consecutive bad windows
// (SLO attainment below BadAttainment while ingress pressure is at least
// BadPressure, or admission is queue-shedding) and de-escalates after
// RecoverAfter consecutive good ones. All decisions read only virtual-time
// state, so the ladder walk is bit-for-bit deterministic per seed.
type ScalerConfig struct {
	// Window is the controller period in virtual time (default 20000).
	Window int64
	// MinWorkers floors the active pool (default 1).
	MinWorkers int
	// BadAttainment is the SLO-attainment threshold below which a window is
	// bad (default 0.5).
	BadAttainment float64
	// BadPressure is the ingress occupancy fraction at or above which a
	// window counts as pressured (default 0.75).
	BadPressure float64
	// EscalateAfter is the number of consecutive bad windows before the
	// ladder steps up (default 2); RecoverAfter the consecutive good windows
	// before it steps down (default 2).
	EscalateAfter int
	RecoverAfter  int
	// AllowFallback enables the final rung: level 3 aborts the parallel
	// attempt with a non-transient OverloadError for the sequential fallback.
	AllowFallback bool
}

// scalerHeadroom multiplies the estimated required workers.
const scalerHeadroom = 1.25

func (sc *ScalerConfig) window() int64 {
	if sc.Window > 0 {
		return sc.Window
	}
	return 20000
}

func (sc *ScalerConfig) minWorkers() int {
	if sc.MinWorkers > 0 {
		return sc.MinWorkers
	}
	return 1
}

func (sc *ScalerConfig) badAttainment() float64 {
	if sc.BadAttainment > 0 {
		return sc.BadAttainment
	}
	return 0.5
}

func (sc *ScalerConfig) badPressure() float64 {
	if sc.BadPressure > 0 {
		return sc.BadPressure
	}
	return 0.75
}

func (sc *ScalerConfig) escalateAfter() int {
	if sc.EscalateAfter > 0 {
		return sc.EscalateAfter
	}
	return 2
}

func (sc *ScalerConfig) recoverAfter() int {
	if sc.RecoverAfter > 0 {
		return sc.RecoverAfter
	}
	return 2
}

func (sc *ScalerConfig) maxLevel() int {
	if sc.AllowFallback {
		return 3
	}
	return 2
}

// ScaleEvent is one degradation-ladder or pool-resize decision, recorded in
// virtual time.
type ScaleEvent struct {
	VTime   int64  `json:"vtime"`
	Level   int    `json:"level"`
	Workers int    `json:"workers"`
	Reason  string `json:"reason"`
}

// OverloadError is the diagnosis the controller raises when the degradation
// ladder reaches its sequential-fallback rung: RunServiceResilient then runs
// the sequential service.
type OverloadError struct {
	VTime int64
	Level int
	Shed  int
}

// Error renders the diagnosis.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("service overload: degradation ladder reached level %d (sequential-fallback rung) at t=%d after %d shed requests", e.Level, e.VTime, e.Shed)
}

// svcController is the recalibration loop, run on its own simulated thread.
// It exits when the trace has drained or the run has failed.
func (m *machine) svcController(th *des.Thread) error {
	sv := m.svc
	sc := sv.cfg.Scaler
	for !sv.draining && !m.failed() {
		th.Sleep(sc.window())
		sv.windowTick(m, th.VTime)
	}
	return nil
}

// windowTick closes one controller window: re-estimate load and service
// cost, walk the ladder, and retarget the worker pool.
func (sv *svcState) windowTick(m *machine, now int64) {
	sc := sv.cfg.Scaler
	arr, comp, slo := sv.wArrivals, sv.wCompleted, sv.wWithinSLO
	shedQ := sv.wShedQueue
	costSum, costN := sv.wSvcCost, sv.wSvcCostN
	sv.wArrivals, sv.wCompleted, sv.wWithinSLO, sv.wShedQueue = 0, 0, 0, 0
	sv.wSvcCost, sv.wSvcCostN = 0, 0

	// Online recalibration of the per-request service-cost estimate from
	// this window's observations.
	if costN > 0 {
		sv.estCost = costSum / int64(costN)
	}

	pressure := 0.0
	if c := sv.ingress.Cap; c > 0 {
		pressure = float64(sv.ingress.Len()) / float64(c)
	}
	if shedQ > 0 {
		pressure = 1 // admission already bounced arrivals off a full ingress
	}
	attain := 1.0
	switch {
	case comp > 0:
		attain = float64(slo) / float64(comp)
	case arr > 0 && pressure >= sc.badPressure():
		attain = 0 // load arrived, nothing finished, queue saturated
	}

	bad := attain < sc.badAttainment() && pressure >= sc.badPressure()
	if bad {
		sv.badRun++
		sv.goodRun = 0
	} else {
		sv.goodRun++
		sv.badRun = 0
	}
	switch {
	case bad && sv.badRun >= sc.escalateAfter() && sv.level < sc.maxLevel():
		sv.level++
		sv.badRun = 0
		if sv.level > sv.maxLevel {
			sv.maxLevel = sv.level
		}
		sv.note(now, fmt.Sprintf("escalate: attainment %.2f, ingress pressure %.2f", attain, pressure))
		if sv.level >= 3 {
			m.fail("svc-ctl", &OverloadError{VTime: now, Level: sv.level, Shed: sv.shedBucket + sv.shedQueue})
			return
		}
	case !bad && sv.goodRun >= sc.recoverAfter() && sv.level > 0:
		sv.level--
		sv.goodRun = 0
		sv.note(now, fmt.Sprintf("recover: attainment %.2f, ingress pressure %.2f", attain, pressure))
	}

	if !sv.pool {
		return // pipeline stages are structural; only the ladder applies
	}
	target := sv.target
	if sv.level >= 2 {
		// Contention collapse: a minimal pool drains the backlog without
		// paying cross-worker synchronization.
		target = sc.minWorkers()
	} else {
		est := sv.estCost
		if est <= 0 {
			est = 1
		}
		need := sc.minWorkers()
		if arr > 0 {
			lambda := float64(arr) / float64(sc.window()) // requests per vt unit
			need = int(math.Ceil(lambda * float64(est) * scalerHeadroom))
		}
		if need < sc.minWorkers() {
			need = sc.minWorkers()
		}
		if need > sv.threads {
			need = sv.threads
		}
		target = need
	}
	if target != sv.target {
		sv.target = target
		sv.note(now, fmt.Sprintf("retarget: λ̂=%d/window, ĉ=%d", arr, sv.estCost))
	}
}

// note appends a scale event at the current ladder state.
func (sv *svcState) note(now int64, reason string) {
	sv.scaleEvents = append(sv.scaleEvents, ScaleEvent{
		VTime: now, Level: sv.level, Workers: sv.target, Reason: reason,
	})
}
