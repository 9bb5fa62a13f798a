package builtins

import (
	"sync"
	"testing"
)

// TestMemoFirstValueWinsAndCapResets: a value generated for a key that
// another caller stored meanwhile is dropped in favour of the stored one,
// concurrent callers of one key all get one value, a hit never
// regenerates, and a memo that reaches fastCacheCap entries starts a
// fresh map.
func TestMemoFirstValueWinsAndCapResets(t *testing.T) {
	var c memo[int, string]
	got := c.get(1, func() string {
		// gen runs outside fastMu, so another caller can store first.
		if v := c.get(1, func() string { return "first" }); v != "first" {
			t.Fatalf("inner get = %q, want first", v)
		}
		return "second"
	})
	if got != "first" {
		t.Fatalf("get = %q, want the first stored value", got)
	}
	if v := c.get(1, func() string { t.Fatal("a hit regenerated"); return "" }); v != "first" {
		t.Fatalf("hit = %q, want first", v)
	}

	var shared memo[int, *int]
	vals := make([]*int, 8)
	var wg sync.WaitGroup
	for g := range vals {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g] = shared.get(0, func() *int { return &g })
		}(g)
	}
	wg.Wait()
	for g, v := range vals {
		if v != vals[0] {
			t.Fatalf("caller %d got value %d, caller 0 got %d: concurrent callers must share one value", g, *v, *vals[0])
		}
	}

	for k := 2; len(c.m) < fastCacheCap; k++ {
		c.get(k, func() string { return "filler" })
	}
	c.get(-1, func() string { return "fresh" })
	if len(c.m) != 1 || c.m[-1] != "fresh" {
		t.Fatalf("after reaching the cap the memo holds %d entries, want only the new one", len(c.m))
	}
}
