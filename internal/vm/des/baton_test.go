package des

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// kernel builds the lock-and-queue mix of the host-time benchmark's DES
// kernel: half the threads produce (Acquire, Release, Push per round),
// half consume (Pop, Acquire, Release per round), all contending for one
// mutex and one 4-slot queue.
func kernel(threads, rounds int) *Scheduler {
	s := New(DefaultCostModel())
	lock := s.NewLock("kernel", Mutex)
	q := s.NewQueue("kernel", 4)
	for i := 0; i < threads; i++ {
		producer := i%2 == 0
		s.Spawn(fmt.Sprintf("k%d", i), 0, func(th *Thread) error {
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
	return s
}

// TestBatonHandoffs pins how many grants switch coroutines. A lone thread
// never contends, so every grant continues inline and the only handoff is
// the one that starts it; the kernel hands off only when the grant goes to
// another thread.
func TestBatonHandoffs(t *testing.T) {
	s := New(DefaultCostModel())
	l := s.NewLock("l", Mutex)
	s.Spawn("solo", 0, func(th *Thread) error {
		for i := 0; i < 1000; i++ {
			th.Acquire(l)
			th.Charge(10)
			th.Release(l)
			th.Sleep(5)
		}
		return nil
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// start + 1000 × (acquire, release, sleep, wake) + done
	if s.events != 4002 || s.handoffs != 1 {
		t.Errorf("solo: %d events, %d handoffs; want 4002 events, 1 handoff", s.events, s.handoffs)
	}

	s = kernel(8, 250)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 6,000 requests, 8 starts, 8 done events and 2,003 wakes of blocked
	// threads; only a grant to another thread switches coroutines.
	if s.events != 8019 || s.handoffs != 2012 {
		t.Errorf("kernel: %d events, %d handoffs; want 8019 events, 2012 handoffs", s.events, s.handoffs)
	}
}

// TestNoLeakedGoroutines: whatever ends a run, Run returns only after
// every thread coroutine has exited, including threads left parked on a
// lock or queue, ready behind a watchdog trip, or stopped by an error.
// The count is checked as soon as Run returns, since stopping a coroutine
// returns only once it has exited; it is checked for a rise only, since a
// goroutine of an earlier test may exit meanwhile.
func TestNoLeakedGoroutines(t *testing.T) {
	stuck := func(s *Scheduler) {
		q := s.NewQueue("never", 1)
		l := s.NewLock("held", Mutex)
		s.Spawn("holder", 0, func(th *Thread) error {
			th.Acquire(l)
			th.Pop(q) // nobody pushes
			return nil
		})
		s.Spawn("waiter", 0, func(th *Thread) error {
			th.Sleep(10)
			th.Acquire(l) // held by the blocked holder
			return nil
		})
	}
	cases := []struct {
		name string
		kind string // StallError kind, or "" for a plain error
		set  func(*Scheduler)
	}{
		{"deadlock", "deadlock", stuck},
		{"watchdog-vtime", "watchdog", func(s *Scheduler) {
			stuck(s)
			s.Watchdog.MaxVTime = 5000
			s.Spawn("sleeper", 0, func(th *Thread) error {
				for {
					th.Sleep(100)
				}
			})
		}},
		{"watchdog-events", "watchdog", func(s *Scheduler) {
			stuck(s)
			s.Watchdog.MaxEvents = 200
			s.Spawn("livelock", 0, func(th *Thread) error {
				for {
					th.Sleep(0)
				}
			})
		}},
		{"thread-error", "", func(s *Scheduler) {
			stuck(s)
			s.Spawn("failer", 0, func(th *Thread) error {
				th.Sleep(50)
				return errors.New("boom")
			})
		}},
		{"unheld-release", "", func(s *Scheduler) {
			stuck(s)
			other := s.NewLock("other", Spin)
			s.Spawn("releaser", 0, func(th *Thread) error {
				th.Sleep(50)
				th.Release(other)
				return nil
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New(DefaultCostModel())
			c.set(s)
			_, err := s.Run()
			var se *StallError
			switch {
			case err == nil:
				t.Fatal("run succeeded; want it to stall")
			case c.kind == "" && errors.As(err, &se):
				t.Fatalf("err = %v, want a thread error", err)
			case c.kind != "" && (!errors.As(err, &se) || se.Kind != c.kind):
				t.Fatalf("err = %v, want a %s StallError", err, c.kind)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutine(s) leaked", after-before)
			}
		})
	}
}

// TestPanickingBodyStopsParkedThreads: a panic in a thread body
// propagates out of Run as a ThreadPanic carrying the body's value, and
// Run still stops the threads left parked, so none of their coroutines
// outlives the run.
func TestPanickingBodyStopsParkedThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(DefaultCostModel())
	l := s.NewLock("held", Mutex)
	s.Spawn("holder", 0, func(th *Thread) error {
		th.Acquire(l)
		th.Sleep(1000)
		return nil
	})
	s.Spawn("waiter", 0, func(th *Thread) error {
		th.Sleep(10)
		th.Acquire(l) // parks: the holder sleeps with the lock
		return nil
	})
	s.Spawn("panicker", 0, func(th *Thread) error {
		th.Sleep(50)
		panic("boom")
	})
	tp := runPanicking(t, s)
	if tp == nil || tp.Value != "boom" || tp.Thread != "panicker" {
		t.Errorf("Run panicked with %+v, want boom from panicker", tp)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutine(s) leaked", after-before)
	}
}

// runPanicking runs s and returns the ThreadPanic Run panics with (nil,
// with an error reported, when Run returns or panics with anything else).
func runPanicking(t *testing.T, s *Scheduler) (tp *ThreadPanic) {
	t.Helper()
	defer func() {
		p := recover()
		var ok bool
		if tp, ok = p.(*ThreadPanic); !ok {
			t.Errorf("Run panicked with %v, want a *ThreadPanic", p)
		}
	}()
	s.Run()
	t.Error("Run returned; want it to panic")
	return nil
}

// writeNilMap is a thread body's callee that panics with a runtime error.
func writeNilMap(m map[string]int) { m["x"] = 1 }

// TestThreadPanicKeepsStack: the ThreadPanic of a body that hits a
// runtime error carries the error and a stack that names the function
// that panicked, which the coroutine switch alone would drop.
func TestThreadPanicKeepsStack(t *testing.T) {
	s := New(DefaultCostModel())
	s.Spawn("writer", 0, func(th *Thread) error {
		th.Sleep(10)
		writeNilMap(nil)
		return nil
	})
	tp := runPanicking(t, s)
	if tp == nil {
		return
	}
	if _, ok := tp.Value.(runtime.Error); !ok {
		t.Errorf("Value = %v, want the runtime error", tp.Value)
	}
	if !strings.Contains(string(tp.Stack), "writeNilMap") {
		t.Errorf("stack does not name writeNilMap:\n%s", tp.Stack)
	}
	if msg := tp.Error(); !strings.Contains(msg, "thread writer panicked") || !strings.Contains(msg, "writeNilMap") {
		t.Errorf("Error() = %q, want the thread and the panicking frame", msg)
	}
}

// BenchmarkScheduler runs the kernel alone and reports host time and
// coroutine handoffs per scheduler event.
func BenchmarkScheduler(b *testing.B) {
	for _, threads := range []int{8, 32} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var events, handoffs int64
			for i := 0; i < b.N; i++ {
				s := kernel(threads, 250)
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
				events += s.events
				handoffs += s.handoffs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(handoffs)/float64(events), "handoffs/event")
		})
	}
}
