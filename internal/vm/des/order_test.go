package des

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/event_order.txt")

const (
	orderPath  = "testdata/event_order.txt"
	orderSeeds = 500
)

// opKind is one step of a generated thread script.
type opKind int

const (
	opCharge opKind = iota
	opLocks         // acquire a rank-ordered subset of the locks, run inner, release
	opPush
	opPushN
	opPop
	opPopN
	opDrain // pop exactly n tokens in batches of up to m
	opSleep
	opSpawn
	opFail       // return an error here
	opBadRelease // release a lock the thread does not hold
)

// op is one generated step. n is the cost, sleep, token count, batch size
// or pushed value; m is a drain's batch size; locks lists lock indices in
// rank order; inner is the body of an opLocks critical section; child is a
// spawned thread's script.
type op struct {
	kind  opKind
	n, m  int64
	q     int
	locks []int
	inner []op
	child []op
}

// orderProgram is one generated simulation: the initial threads' scripts
// and the watchdog it runs under.
type orderProgram struct {
	threads  [][]op
	qcap     [2]int
	watchdog Watchdog
}

// orderGen draws thread scripts. A balanced program is a three-stage
// pipeline: stage 0 pushes q0, stage 1 drains q0 and pushes q1, stage 2
// drains q1, every queue's pushes match its drains, and no queue operation
// runs under a lock, so it ends cleanly unless a thread fails or the
// watchdog trips. A chaotic program pushes and pops either queue from any
// thread, also inside critical sections, and usually deadlocks.
type orderGen struct {
	r     *rand.Rand
	chaos bool
}

// genOrderProgram draws a program from the seed: 2–11 threads, two mutexes
// and a spin lock (always taken in rank order, so locks alone never
// deadlock), two small queues, sleeps, mid-run spawns, occasional thread
// errors and occasional tight watchdog budgets.
func genOrderProgram(seed int64) orderProgram {
	r := rand.New(rand.NewSource(seed))
	g := orderGen{r: r, chaos: r.Intn(3) == 0}
	p := orderProgram{qcap: [2]int{1 + r.Intn(3), 1 + r.Intn(3)}}
	var stages []int
	for i, n := 0, 2+r.Intn(8); i < n; i++ {
		st := r.Intn(3)
		stages = append(stages, st)
		p.threads = append(p.threads, g.script(0, st))
	}
	if !g.chaos {
		for q := 0; q < 2; q++ {
			g.balance(&p, stages, q)
		}
	}
	switch r.Intn(8) {
	case 0:
		p.watchdog.MaxEvents = int64(10 + r.Intn(80))
	case 1:
		p.watchdog.MaxVTime = int64(200 + r.Intn(3000))
	}
	return p
}

// balance evens out queue q's pushed tokens and drained tokens by adding a
// final push or drain to a thread of the right stage, or a new thread.
func (g orderGen) balance(p *orderProgram, stages []int, q int) {
	var supply, demand int64
	for _, s := range p.threads {
		for _, o := range s {
			switch {
			case o.kind == opPush && o.q == q:
				supply++
			case o.kind == opPushN && o.q == q:
				supply += o.n
			case o.kind == opDrain && o.q == q:
				demand += o.n
			}
		}
	}
	fix, stage := op{kind: opDrain, q: q, n: supply - demand, m: 1 + g.r.Int63n(3)}, q+1
	if demand > supply {
		fix, stage = op{kind: opPushN, q: q, n: demand - supply}, q
		if fix.n == 1 {
			fix = op{kind: opPush, q: q, n: g.r.Int63n(1000)}
		}
	} else if demand == supply {
		return
	}
	for i, st := range stages {
		if st == stage {
			p.threads[i] = append(p.threads[i], fix)
			return
		}
	}
	p.threads = append(p.threads, []op{{kind: opSleep, n: g.r.Int63n(100)}, fix})
}

// script draws one thread's steps; stage is the thread's pipeline stage in
// a balanced program, or -1 for a spawned thread there (no queue steps).
func (g orderGen) script(depth, stage int) []op {
	var s []op
	for i, n := 0, 2+g.r.Intn(10); i < n; i++ {
		s = append(s, g.op(depth, stage, true))
	}
	if g.r.Intn(40) == 0 {
		s = append(s, op{kind: opFail})
	}
	return s
}

func (g orderGen) op(depth, stage int, top bool) op {
	r := g.r
	k := r.Intn(20)
	if !g.chaos && !top && k >= 8 && k < 16 {
		k = 0 // no queue steps under a lock in a balanced program
	}
	switch {
	case k < 4:
		return op{kind: opCharge, n: int64(r.Intn(300))}
	case k < 8 && top:
		o := op{kind: opLocks}
		for l := 0; l < 3; l++ {
			if r.Intn(2) == 0 {
				o.locks = append(o.locks, l)
			}
		}
		if len(o.locks) == 0 {
			o.locks = []int{r.Intn(3)}
		}
		o.inner = []op{{kind: opCharge, n: int64(1 + r.Intn(100))}}
		if r.Intn(4) == 0 {
			o.inner = append(o.inner, g.op(depth, stage, false))
		}
		return o
	case k < 12 && g.chaos:
		return g.chaosQueueOp(k)
	case k < 12 && (stage == 0 || stage == 1):
		if k < 10 {
			return op{kind: opPush, q: stage, n: int64(r.Intn(1000))}
		}
		return op{kind: opPushN, q: stage, n: int64(2 + r.Intn(4))}
	case k < 16 && g.chaos:
		return g.chaosQueueOp(k)
	case k < 16 && (stage == 1 || stage == 2):
		return op{kind: opDrain, q: stage - 1, n: int64(1 + r.Intn(5)), m: int64(1 + r.Intn(3))}
	case k < 18:
		return op{kind: opSleep, n: int64(r.Intn(200))}
	case k < 19 && top && depth < 2:
		childStage := stage
		if !g.chaos {
			childStage = -1
		}
		return op{kind: opSpawn, child: g.script(depth+1, childStage)}
	case k == 19 && top && r.Intn(30) == 0:
		return op{kind: opBadRelease, n: int64(r.Intn(3))}
	}
	return op{kind: opCharge, n: int64(r.Intn(50))}
}

// chaosQueueOp draws an unmatched queue step on either queue.
func (g orderGen) chaosQueueOp(k int) op {
	q := g.r.Intn(2)
	switch {
	case k < 10:
		return op{kind: opPush, q: q, n: int64(g.r.Intn(1000))}
	case k < 12:
		return op{kind: opPushN, q: q, n: int64(2 + g.r.Intn(4))}
	case k < 14:
		return op{kind: opPop, q: q}
	}
	return op{kind: opPopN, q: q, n: int64(2 + g.r.Intn(3))}
}

// orderLog records every Probe call and every grant a thread observes, in
// the order they happen.
type orderLog struct{ lines []string }

func (g *orderLog) add(format string, args ...any) {
	g.lines = append(g.lines, fmt.Sprintf(format, args...))
}

func (g *orderLog) ThreadSpawned(parent, child int) { g.add("probe spawn %d -> %d", parent, child) }
func (g *orderLog) LockAcquired(thread int, lock string) {
	g.add("probe acquired %d %s", thread, lock)
}
func (g *orderLog) LockReleased(thread int, lock string) {
	g.add("probe released %d %s", thread, lock)
}
func (g *orderLog) QueuePushed(thread int, queue string, seqs []int64) {
	g.add("probe pushed %d %s %v", thread, queue, seqs)
}
func (g *orderLog) QueuePopped(thread int, queue string, seqs []int64) {
	g.add("probe popped %d %s %v", thread, queue, seqs)
}

// runOrderProgram runs one generated program and returns its outcome
// (clean, deadlock, watchdog or error) and the full event log.
func runOrderProgram(p orderProgram) (string, []string) {
	g := &orderLog{}
	s := New(DefaultCostModel())
	s.Probe = g
	s.Watchdog = p.watchdog
	locks := []*Lock{s.NewLock("m0", Mutex), s.NewLock("m1", Mutex), s.NewLock("spin", Spin)}
	queues := []*Queue{s.NewQueue("q0", p.qcap[0]), s.NewQueue("q1", p.qcap[1])}

	var body func(script []op) func(*Thread) error
	var exec func(th *Thread, o op) error
	exec = func(th *Thread, o op) error {
		switch o.kind {
		case opCharge:
			th.Charge(o.n)
		case opLocks:
			for _, l := range o.locks {
				th.Acquire(locks[l])
				g.add("t%d acquire %s @%d", th.ID, locks[l].Name, th.VTime)
			}
			for _, in := range o.inner {
				if err := exec(th, in); err != nil {
					return err
				}
			}
			for i := len(o.locks) - 1; i >= 0; i-- {
				th.Release(locks[o.locks[i]])
				g.add("t%d release %s @%d", th.ID, locks[o.locks[i]].Name, th.VTime)
			}
		case opPush:
			th.Push(queues[o.q], o.n)
			g.add("t%d push q%d %d @%d", th.ID, o.q, o.n, th.VTime)
		case opPushN:
			vs := make([]any, o.n)
			for i := range vs {
				vs[i] = int64(th.ID*100 + i)
			}
			th.PushN(queues[o.q], vs)
			g.add("t%d pushN q%d %v @%d", th.ID, o.q, vs, th.VTime)
		case opPop:
			v := th.Pop(queues[o.q])
			g.add("t%d pop q%d %v @%d", th.ID, o.q, v, th.VTime)
		case opPopN:
			vs := th.PopN(queues[o.q], int(o.n))
			g.add("t%d popN q%d %v @%d", th.ID, o.q, vs, th.VTime)
		case opDrain:
			for left := o.n; left > 0; {
				vs := th.PopN(queues[o.q], int(min(o.m, left)))
				left -= int64(len(vs))
				g.add("t%d drain q%d %v @%d", th.ID, o.q, vs, th.VTime)
			}
		case opSleep:
			th.Sleep(o.n)
			g.add("t%d sleep %d @%d", th.ID, o.n, th.VTime)
		case opSpawn:
			c := s.Spawn(fmt.Sprintf("c%d", th.ID), th.VTime, body(o.child))
			g.add("t%d spawn t%d @%d", th.ID, c.ID, th.VTime)
		case opFail:
			return fmt.Errorf("thread %d failed @%d", th.ID, th.VTime)
		case opBadRelease:
			th.Release(locks[o.n])
			g.add("t%d bad release %s @%d", th.ID, locks[o.n].Name, th.VTime)
		}
		return nil
	}
	body = func(script []op) func(*Thread) error {
		return func(th *Thread) error {
			g.add("t%d start @%d", th.ID, th.VTime)
			for _, o := range script {
				if err := exec(th, o); err != nil {
					return err
				}
			}
			g.add("t%d end @%d", th.ID, th.VTime)
			return nil
		}
	}
	for i, script := range p.threads {
		s.Spawn(fmt.Sprintf("w%d", i), int64(i*7), body(script))
	}
	makespan, err := s.Run()
	outcome := "clean"
	var se *StallError
	switch {
	case errors.As(err, &se):
		outcome = se.Kind
	case err != nil:
		outcome = "error"
	}
	g.add("run makespan=%d err=%v", makespan, err)
	return outcome, g.lines
}

// eventOrderTable renders one row per seed: the outcome, the number of
// logged events, and a digest of the whole log.
func eventOrderTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %-4s %-8s %6s %s\n", "seed", "outcome", "events", "digest")
	for seed := int64(0); seed < orderSeeds; seed++ {
		outcome, lines := runOrderProgram(genOrderProgram(seed))
		h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		fmt.Fprintf(&b, "%-6d %-8s %6d %s\n", seed, outcome, len(lines), hex.EncodeToString(h[:8]))
	}
	return b.String()
}

// TestEventOrderDigests pins, per seed, the exact order of every Probe
// call and every grant (thread, operation, virtual time) of a generated
// lock-and-queue program, plus its makespan and error. Any change to
// event order, grant order or virtual time changes a digest. Refresh with
// -update only for an intended change to the scheduler's semantics.
func TestEventOrderDigests(t *testing.T) {
	got := eventOrderTable()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orderPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(orderPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", g, w)
			}
		}
	}
	t.Errorf("%d row(s) differ from %s", bad, orderPath)
}
