package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/vm/des"
)

// rtSnap is a snapshot of the Go runtime counters the benchmark reports.
type rtSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	gcCycles        uint64
	schedCounts     []uint64
	schedBuckets    []float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() rtSnap {
	metrics.Read(rtSamples)
	h := rtSamples[4].Value.Float64Histogram()
	return rtSnap{
		allocBytes:   rtSamples[0].Value.Uint64(),
		gcCPU:        rtSamples[1].Value.Float64(),
		totalCPU:     rtSamples[2].Value.Float64(),
		gcCycles:     rtSamples[3].Value.Uint64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: append([]float64(nil), h.Buckets...),
	}
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}

// heapGoal is the heap size the collector lets the program reach before it
// must finish the next cycle: the pacer's ceiling on the heap. Sampled
// heap-object bytes would also vary with when a sample lands relative to
// a collection.
func heapGoal() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// schedQuantile is the q-quantile, in seconds, of the goroutine scheduling
// latencies observed between two snapshots (the upper edge of the bucket
// holding it; 0 when nothing was scheduled).
func schedQuantile(a, b rtSnap, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.schedCounts))
	for i := range counts {
		counts[i] = b.schedCounts[i] - a.schedCounts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if hi := b.schedBuckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.schedBuckets[i]
		}
	}
	return 0
}

// desKernel drives a fixed lock-and-queue mix through the simulator on its
// own: half the threads produce (Acquire, Release, Push per round), half
// consume (Pop, Acquire, Release per round), all contending for one mutex
// and one bounded queue. It returns the number of scheduler requests,
// which is fixed by construction.
func desKernel(threads, rounds int) (int64, error) {
	sim := des.New(des.DefaultCostModel())
	lock := sim.NewLock("kernel", des.Mutex)
	q := sim.NewQueue("kernel", 4)
	for i := 0; i < threads; i++ {
		producer := i%2 == 0
		sim.Spawn(fmt.Sprintf("k%d", i), 0, func(th *des.Thread) error {
			for r := 0; r < rounds; r++ {
				if !producer {
					th.Pop(q)
				}
				th.Acquire(lock)
				th.Charge(40)
				th.Release(lock)
				if producer {
					th.Push(q, r)
				}
			}
			return nil
		})
	}
	if _, err := sim.Run(); err != nil {
		return 0, fmt.Errorf("des kernel: %w", err)
	}
	return int64(threads * rounds * 3), nil
}

// desNsPerEvent is the median host time per scheduler request over reps
// runs of the kernel.
func desNsPerEvent(reps int) (float64, error) {
	const threads, rounds = 8, 250
	per := make([]float64, reps)
	for i := range per {
		start := time.Now()
		events, err := desKernel(threads, rounds)
		if err != nil {
			return 0, err
		}
		per[i] = float64(time.Since(start)) / float64(events)
	}
	sort.Float64s(per)
	return per[len(per)/2], nil
}
