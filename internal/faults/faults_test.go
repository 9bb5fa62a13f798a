package faults

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// table builds a tiny builtin table with call recording.
func table(calls *[]string) map[string]interp.BuiltinFn {
	mk := func(name string) interp.BuiltinFn {
		return func(args []value.Value) (value.Value, int64, error) {
			*calls = append(*calls, name)
			return value.Int(int64(len(*calls))), 10, nil
		}
	}
	return map[string]interp.BuiltinFn{"alpha": mk("alpha"), "beta": mk("beta")}
}

func TestTransientWindowClears(t *testing.T) {
	var calls []string
	inj := NewInjector(Plan{Seed: 1, Specs: []Spec{
		{Kind: Transient, Builtin: "alpha", After: 2, Count: 2},
	}})
	fns := inj.Wrap(table(&calls))
	for i := 1; i <= 5; i++ {
		_, _, err := fns["alpha"](nil)
		wantFail := i == 2 || i == 3
		if (err != nil) != wantFail {
			t.Errorf("call %d: err = %v, want fail=%v", i, err, wantFail)
		}
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) || !fe.IsTransient() {
				t.Errorf("call %d: not a transient fault error: %v", i, err)
			}
		}
	}
	// Failed calls must not run the base builtin.
	if len(calls) != 3 {
		t.Errorf("base builtin ran %d times, want 3", len(calls))
	}
	if inj.Injected() != 2 || len(inj.Trace()) != 2 {
		t.Errorf("injected = %d trace = %v", inj.Injected(), inj.Trace())
	}
}

func TestPermanentNeverClears(t *testing.T) {
	var calls []string
	inj := NewInjector(Plan{Seed: 1, Specs: []Spec{
		{Kind: Permanent, Builtin: "*", After: 3},
	}})
	fns := inj.Wrap(table(&calls))
	seq := []string{"alpha", "beta", "alpha", "beta", "alpha"}
	for i, name := range seq {
		_, _, err := fns[name](nil)
		wantFail := i+1 >= 3 // global call index
		if (err != nil) != wantFail {
			t.Errorf("global call %d (%s): err = %v, want fail=%v", i+1, name, err, wantFail)
		}
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) || fe.IsTransient() {
				t.Errorf("call %d: want permanent fault, got %v", i+1, err)
			}
		}
	}
}

func TestProbabilisticPermanentLatches(t *testing.T) {
	inj := NewInjector(Plan{Seed: 7, Specs: []Spec{
		{Kind: Permanent, Builtin: "*", Prob: 0.2},
	}})
	var calls []string
	fns := inj.Wrap(table(&calls))
	failedAt := -1
	for i := 1; i <= 200; i++ {
		if _, _, err := fns["alpha"](nil); err != nil {
			failedAt = i
			break
		}
	}
	if failedAt < 0 {
		t.Fatal("prob=0.2 permanent fault never fired in 200 calls")
	}
	// Once latched, every later call fails.
	for i := 0; i < 10; i++ {
		if _, _, err := fns["beta"](nil); err == nil {
			t.Fatal("permanent fault cleared after latching")
		}
	}
}

func TestLatencyAddsCostWithoutError(t *testing.T) {
	var calls []string
	inj := NewInjector(Plan{Seed: 1, Specs: []Spec{
		{Kind: Latency, Builtin: "alpha", After: 1, Count: 1, Delay: 500},
	}})
	fns := inj.Wrap(table(&calls))
	_, cost, err := fns["alpha"](nil)
	if err != nil || cost != 510 {
		t.Errorf("spiked call: cost = %d err = %v, want 510 nil", cost, err)
	}
	_, cost, err = fns["alpha"](nil)
	if err != nil || cost != 10 {
		t.Errorf("clean call: cost = %d err = %v, want 10 nil", cost, err)
	}
}

func TestQueueDelayAndAborts(t *testing.T) {
	inj := NewInjector(Plan{Seed: 3, Specs: []Spec{
		{Kind: QueueStall, Queue: "q0", After: 2, Count: 1, Delay: 700},
		{Kind: TMStorm, After: 1, Count: 2, Aborts: 3},
	}})
	if d := inj.QueueDelay("q0.0"); d != 0 {
		t.Errorf("push 1 delay = %d, want 0", d)
	}
	if d := inj.QueueDelay("q0.0"); d != 700 {
		t.Errorf("push 2 delay = %d, want 700", d)
	}
	if d := inj.QueueDelay("join"); d != 0 {
		t.Errorf("non-matching queue delayed: %d", d)
	}
	if n := inj.ExtraAborts(); n != 3 {
		t.Errorf("commit 1 aborts = %d, want 3", n)
	}
	if n := inj.ExtraAborts(); n != 3 {
		t.Errorf("commit 2 aborts = %d, want 3", n)
	}
	if n := inj.ExtraAborts(); n != 0 {
		t.Errorf("commit 3 aborts = %d, want 0", n)
	}
}

// TestDeterministicReplay is the package's core property: two injectors of
// the same plan make identical decisions over identical event sequences.
func TestDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 42, Specs: []Spec{
		{Kind: Transient, Builtin: "*", Prob: 0.15},
		{Kind: Latency, Builtin: "beta", Prob: 0.3, Delay: 111},
		{Kind: QueueStall, Prob: 0.25, Delay: 222},
		{Kind: TMStorm, Prob: 0.5, Aborts: 2},
	}}
	run := func() (errs []bool, costs []int64, delays []int64, aborts []int) {
		var calls []string
		inj := NewInjector(plan)
		fns := inj.Wrap(table(&calls))
		for i := 0; i < 100; i++ {
			name := "alpha"
			if i%3 == 0 {
				name = "beta"
			}
			_, c, err := fns[name](nil)
			errs = append(errs, err != nil)
			costs = append(costs, c)
		}
		for i := 0; i < 50; i++ {
			delays = append(delays, inj.QueueDelay("q1.0"))
			aborts = append(aborts, inj.ExtraAborts())
		}
		return
	}
	e1, c1, d1, a1 := run()
	e2, c2, d2, a2 := run()
	for i := range e1 {
		if e1[i] != e2[i] || c1[i] != c2[i] {
			t.Fatalf("call %d diverged: (%v,%d) vs (%v,%d)", i, e1[i], c1[i], e2[i], c2[i])
		}
	}
	for i := range d1 {
		if d1[i] != d2[i] || a1[i] != a2[i] {
			t.Fatalf("event %d diverged", i)
		}
	}
	any := false
	for _, e := range e1 {
		any = any || e
	}
	if !any {
		t.Error("prob=0.15 transient spec never fired in 100 calls")
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	pattern := func(seed uint64) string {
		inj := NewInjector(Plan{Seed: seed, Specs: []Spec{
			{Kind: Transient, Builtin: "*", Prob: 0.3},
		}})
		var calls []string
		fns := inj.Wrap(table(&calls))
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if _, _, err := fns["alpha"](nil); err != nil {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	if pattern(1) == pattern(2) {
		t.Error("different seeds produced identical fault patterns")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Name: "storm", Seed: 9, Specs: []Spec{
		{Kind: Transient, Builtin: "*", After: 4, Count: 2},
		{Kind: QueueStall, Queue: "q0", Prob: 0.5, Delay: 10},
	}}
	s := p.String()
	for _, want := range []string{"storm", "seed=9", "transient", "after=4", "queue-stall", "prob=0.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}

// TestCrashNowDeterministicWindow: a Crash spec fires exactly on its tick
// window for its target thread, leaving other threads untouched, and ticks
// advance per call.
func TestCrashNowDeterministicWindow(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1, Specs: []Spec{
		{Kind: Crash, Thread: "doall.1", After: 3, Count: 2},
	}})
	for tick := 1; tick <= 6; tick++ {
		die, perm := inj.CrashNow("doall.1")
		want := tick == 3 || tick == 4
		if die != want || perm {
			t.Errorf("tick %d: die=%v perm=%v, want die=%v perm=false", tick, die, perm, want)
		}
	}
	if die, _ := inj.CrashNow("doall.0"); die {
		t.Error("crash fired on untargeted thread")
	}
	if inj.CrashTick("doall.1") != 6 || inj.CrashTick("doall.0") != 1 {
		t.Errorf("tick counters = %d/%d, want 6/1", inj.CrashTick("doall.1"), inj.CrashTick("doall.0"))
	}
	if inj.Injected() != 2 {
		t.Errorf("injected = %d, want 2", inj.Injected())
	}
}

// TestCrashNowPermanentAndProb: permanence propagates from the spec, and
// probabilistic crashes are reproducible across injector instantiations.
func TestCrashNowPermanentAndProb(t *testing.T) {
	inj := NewInjector(Plan{Seed: 2, Specs: []Spec{
		{Kind: Crash, Thread: "stage1.0", After: 2, Permanent: true},
	}})
	if die, perm := inj.CrashNow("stage1.0"); die || perm {
		t.Error("tick 1 fired early")
	}
	if die, perm := inj.CrashNow("stage1.0"); !die || !perm {
		t.Error("tick 2 not a permanent crash")
	}

	pattern := func() string {
		inj := NewInjector(Plan{Seed: 5, Specs: []Spec{
			{Kind: Crash, Thread: "doall.2", Prob: 0.2},
		}})
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if die, _ := inj.CrashNow("doall.2"); die {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := pattern(), pattern()
	if a != b {
		t.Errorf("probabilistic crashes not reproducible:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "x") {
		t.Error("prob=0.2 crash never fired in 64 ticks")
	}
}

// TestValidateRejections exercises every Plan.Validate error path.
func TestValidateRejections(t *testing.T) {
	roster := []string{"doall.0", "doall.1", "stage1.0"}
	cases := []struct {
		name string
		plan Plan
		want string // substring of the expected error; "" = valid
	}{
		{"valid-crash", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.1", After: 3},
		}}, ""},
		{"valid-no-roster", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "ghost.9", After: 1},
		}}, ""}, // roster nil in this case: membership unchecked
		{"prob-out-of-range", Plan{Name: "p", Specs: []Spec{
			{Kind: Transient, Builtin: "alpha", Prob: 1.5},
		}}, "outside [0,1]"},
		{"negative-delay", Plan{Name: "p", Specs: []Spec{
			{Kind: Latency, Builtin: "alpha", After: 1, Delay: -5},
		}}, "negative Delay"},
		{"negative-aborts", Plan{Name: "p", Specs: []Spec{
			{Kind: TMStorm, After: 1, Aborts: -1},
		}}, "negative Aborts"},
		{"thread-on-non-crash", Plan{Name: "p", Specs: []Spec{
			{Kind: Transient, Builtin: "alpha", After: 1, Thread: "doall.1"},
		}}, "applies only to crash"},
		{"permanent-on-non-crash", Plan{Name: "p", Specs: []Spec{
			{Kind: Latency, Builtin: "alpha", After: 1, Permanent: true},
		}}, "applies only to crash"},
		{"crash-without-thread", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, After: 1},
		}}, "must name a target thread"},
		{"crash-never-fires", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.1"},
		}}, "can never fire"},
		{"permanent-crash-repeats", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.1", After: 1, Count: 3, Permanent: true},
		}}, "cannot repeat"},
		{"nonexistent-thread", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.7", After: 1},
		}}, "nonexistent thread"},
		{"conflicting-perm-overlap", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.1", After: 3, Count: 4},
			{Kind: Crash, Thread: "doall.1", After: 5, Permanent: true},
		}}, "conflicting crash and permanent-crash"},
		{"conflicting-prob-overlaps-everything", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "stage1.0", Prob: 0.1},
			{Kind: Crash, Thread: "stage1.0", After: 9, Permanent: true},
		}}, "conflicting crash and permanent-crash"},
		{"disjoint-windows-ok", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.1", After: 2, Count: 2},
			{Kind: Crash, Thread: "doall.1", After: 9, Permanent: true},
		}}, ""},
		{"different-threads-ok", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.0", After: 3},
			{Kind: Crash, Thread: "doall.1", After: 3, Permanent: true},
		}}, ""},
	}
	for _, tc := range cases {
		r := roster
		if tc.name == "valid-no-roster" {
			r = nil
		}
		err := tc.plan.Validate(r)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestHasCrashAndDescribe: HasCrash keys the checkpoint layer on/off, and
// crash specs render their target in plan listings.
func TestHasCrashAndDescribe(t *testing.T) {
	none := Plan{Specs: []Spec{{Kind: Transient, Builtin: "alpha", After: 1}}}
	if none.HasCrash() {
		t.Error("HasCrash true without crash specs")
	}
	p := Plan{Name: "reboot", Seed: 4, Specs: []Spec{
		{Kind: Crash, Thread: "stage1.0", After: 5, Permanent: true},
	}}
	if !p.HasCrash() {
		t.Error("HasCrash false with a crash spec")
	}
	s := p.String()
	for _, want := range []string{"crash", "thread=stage1.0", "permanent", "after=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}

// TestValidateService: the service-mode roster check. Crash specs must pin
// always-on roles — a crash aimed at a scalable worker might never fire
// because the degradation ladder can scale its target away for the whole
// service window.
func TestValidateService(t *testing.T) {
	roster := ServiceRoster{
		Always:   []string{"svc.0", "svc.1"},
		Scalable: []string{"svc.2", "svc.3"},
	}
	ok := Plan{Name: "pinned", Seed: 1, Specs: []Spec{
		{Kind: Crash, Thread: "svc.1", After: 4},
	}}
	if err := ok.ValidateService(roster); err != nil {
		t.Errorf("crash on always-on target rejected: %v", err)
	}
	bad := Plan{Name: "drifting", Seed: 1, Specs: []Spec{
		{Kind: Crash, Thread: "svc.3", After: 4, Permanent: true},
	}}
	err := bad.ValidateService(roster)
	if err == nil || !strings.Contains(err.Error(), "scale away") {
		t.Errorf("crash on scalable-only target: err = %v, want scale-away rejection", err)
	}
	// Non-crash specs are untouched by the roster rule, and unknown crash
	// threads still fail the structural check over the full dynamic roster.
	lat := Plan{Name: "latency", Seed: 1, Specs: []Spec{
		{Kind: Latency, Builtin: "*", After: 1, Count: 1, Delay: 100},
	}}
	if err := lat.ValidateService(roster); err != nil {
		t.Errorf("non-crash spec rejected: %v", err)
	}
	ghost := Plan{Name: "ghost", Seed: 1, Specs: []Spec{
		{Kind: Crash, Thread: "svc.9", After: 4},
	}}
	if err := ghost.ValidateService(roster); err == nil {
		t.Error("crash on a thread outside the dynamic roster accepted")
	}
}

// TestSlowNowDeterministicWindow: a Straggler spec must open exactly its
// [After, After+Count) tick window on the target role, return the factor
// inside it and 1.0 outside, leave other roles untouched, and replay
// bit-identically — the property the steal layer's determinism rests on.
func TestSlowNowDeterministicWindow(t *testing.T) {
	plan := Plan{Name: "slow", Seed: 5, Specs: []Spec{
		{Kind: Straggler, Thread: "doall.1", After: 3, Count: 2, Factor: 4},
	}}
	run := func() []float64 {
		inj := NewInjector(plan)
		var out []float64
		for i := 0; i < 6; i++ {
			out = append(out, inj.SlowNow("doall.1"))
			if f := inj.SlowNow("doall.2"); f != 1 {
				t.Fatalf("untargeted role slowed at tick %d: %g", i+1, f)
			}
		}
		if got := inj.SlowTick("doall.1"); got != 6 {
			t.Fatalf("SlowTick = %d, want 6", got)
		}
		return out
	}
	want := []float64{1, 1, 4, 4, 1, 1}
	a := run()
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("tick %d: factor %g, want %g (window [3,5))", i+1, a[i], want[i])
		}
	}
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("replay diverged at tick %d: %g vs %g", i+1, a[i], b[i])
		}
	}

	// Overlapping specs: the largest firing factor wins.
	worst := Plan{Name: "worst", Seed: 5, Specs: []Spec{
		{Kind: Straggler, Thread: "doall.1", After: 1, Count: 4, Factor: 2},
		{Kind: Straggler, Thread: "doall.1", After: 2, Count: 1, Factor: 8},
	}}
	inj := NewInjector(worst)
	got := []float64{inj.SlowNow("doall.1"), inj.SlowNow("doall.1"), inj.SlowNow("doall.1")}
	if got[0] != 2 || got[1] != 8 || got[2] != 2 {
		t.Errorf("overlapping factors = %v, want [2 8 2]", got)
	}
}

// TestValidateStragglerRejections: the straggler-specific Validate rules —
// factor, firing window, target thread, and kind-exclusive fields.
func TestValidateStragglerRejections(t *testing.T) {
	roster := []string{"doall.0", "doall.1"}
	cases := []struct {
		name string
		plan Plan
		want string // substring of the expected error; "" = valid
	}{
		{"valid-straggler", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, Thread: "doall.1", After: 1, Count: 8, Factor: 4},
		}}, ""},
		{"valid-probabilistic", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, Thread: "doall.0", Prob: 0.25, Factor: 2},
		}}, ""},
		{"no-thread", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, After: 1, Factor: 4},
		}}, "must name a target thread"},
		{"factor-one", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, Thread: "doall.1", After: 1, Factor: 1},
		}}, "Factor > 1"},
		{"factor-missing", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, Thread: "doall.1", After: 1},
		}}, "Factor > 1"},
		{"never-fires", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, Thread: "doall.1", Factor: 4},
		}}, "can never fire"},
		{"factor-on-crash", Plan{Name: "p", Specs: []Spec{
			{Kind: Crash, Thread: "doall.1", After: 1, Factor: 4},
		}}, "applies only to straggler"},
		{"factor-on-latency", Plan{Name: "p", Specs: []Spec{
			{Kind: Latency, Builtin: "alpha", After: 1, Factor: 2},
		}}, "applies only to straggler"},
		{"permanent-straggler", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, Thread: "doall.1", After: 1, Factor: 4, Permanent: true},
		}}, "applies only to crash"},
		{"ghost-thread", Plan{Name: "p", Specs: []Spec{
			{Kind: Straggler, Thread: "doall.7", After: 1, Factor: 4},
		}}, "nonexistent thread"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(roster)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestDynamicRoleSalvage: salvage runners are spawned at join time, so no
// static roster lists them; Validate must accept them by shape — and only
// by that shape.
func TestDynamicRoleSalvage(t *testing.T) {
	roster := []string{"doall.0", "doall.1"}
	ok := Plan{Name: "p", Specs: []Spec{
		{Kind: Crash, Thread: "salvage.1.0", After: 2},
		{Kind: Straggler, Thread: "salvage.3.2", After: 1, Factor: 4},
	}}
	if err := ok.Validate(roster); err != nil {
		t.Errorf("salvage roles rejected: %v", err)
	}
	for _, bad := range []string{"salvage.1", "salvage.x.0", "salvage.1.", "salvage..2", "scavenge.1.0"} {
		p := Plan{Name: "p", Specs: []Spec{{Kind: Crash, Thread: bad, After: 2}}}
		if err := p.Validate(roster); err == nil {
			t.Errorf("malformed dynamic role %q accepted", bad)
		}
	}
}

// TestValidateServiceStraggler: the roster rule covers stragglers too — a
// scalable worker can be parked for the whole service window, consuming no
// slow ticks, so a straggler aimed at one might deterministically never
// fire.
func TestValidateServiceStraggler(t *testing.T) {
	roster := ServiceRoster{
		Always:   []string{"svc.0", "svc.1"},
		Scalable: []string{"svc.2"},
	}
	ok := Plan{Name: "pinned", Specs: []Spec{
		{Kind: Straggler, Thread: "svc.1", After: 1, Factor: 4},
	}}
	if err := ok.ValidateService(roster); err != nil {
		t.Errorf("straggler on always-on target rejected: %v", err)
	}
	bad := Plan{Name: "drifting", Specs: []Spec{
		{Kind: Straggler, Thread: "svc.2", After: 1, Factor: 4},
	}}
	err := bad.ValidateService(roster)
	if err == nil || !strings.Contains(err.Error(), "scale away") {
		t.Errorf("straggler on scalable-only target: err = %v, want scale-away rejection", err)
	}
}

func TestWrapSharesCallCounters(t *testing.T) {
	// The per-builtin call counters belong to the injector: a builtin
	// called through two wrapped tables counts one call stream.
	var calls []string
	inj := NewInjector(Plan{Seed: 1, Specs: []Spec{
		{Kind: Transient, Builtin: "alpha", After: 3},
	}})
	a, b := inj.Wrap(table(&calls)), inj.Wrap(table(&calls))
	for i, fns := range []map[string]interp.BuiltinFn{a, b, a, b} {
		_, _, err := fns["alpha"](nil)
		if wantFail := i+1 == 3; (err != nil) != wantFail {
			t.Errorf("call %d: err = %v, want fail=%v", i+1, err, wantFail)
		}
	}
}

func TestInjectorHooksAllocateNothing(t *testing.T) {
	// Once a builtin, role and queue have been seen, a call, tick or push
	// that fires nothing allocates nothing.
	far := 1 << 30
	inj := NewInjector(Plan{Seed: 7, Specs: []Spec{
		{Kind: Transient, Builtin: "alpha", Prob: 1e-12},
		{Kind: Latency, Builtin: "*", After: far, Delay: 5},
		{Kind: QueueStall, Queue: "q", Prob: 1e-12, Delay: 5},
		{Kind: Crash, Thread: "doall.1", After: far},
		{Kind: Straggler, Thread: "doall.1", Prob: 1e-12, Factor: 2},
	}})
	noop := map[string]interp.BuiltinFn{"alpha": func([]value.Value) (value.Value, int64, error) {
		return value.Value{}, 1, nil
	}}
	fns := inj.Wrap(noop)
	warm := func() {
		fns["alpha"](nil)
		inj.QueueDelay("q0.1")
		inj.CrashNow("doall.1")
		inj.SlowNow("doall.1")
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Errorf("%v allocations per call, tick and push, want 0", n)
	}
	if inj.Injected() != 0 {
		t.Errorf("injected %d faults, want none", inj.Injected())
	}
}
