package builtins

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vm/value"
)

// refTransactions is the earlier transaction generator, kept as the
// reference: each row deduplicated through a map and sorted with
// sort.Slice.
func refTransactions(rows, items, rowLen int) [][]int64 {
	db := make([][]int64, 0, rows)
	h := uint64(0xfeedface)
	for r := 0; r < rows; r++ {
		row := make([]int64, 0, rowLen)
		seen := map[int64]bool{}
		for len(row) < rowLen {
			h = h*6364136223846793005 + 1442695040888963407
			it := int64((h >> 17) % uint64(items))
			if !seen[it] {
				seen[it] = true
				row = append(row, it)
			}
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		db = append(db, row)
	}
	return db
}

// TestTransactionsMatchReference pins AddTransactions to the reference
// generator on eclat's and geti's database shapes and on rows that hold
// every item.
func TestTransactionsMatchReference(t *testing.T) {
	for _, shape := range [][3]int{{180, 260, 12}, {160, 192, 24}, {6, 9, 9}} {
		ResetFastCaches()
		w := NewWorld()
		w.AddTransactions(shape[0], shape[1], shape[2])
		if want := refTransactions(shape[0], shape[1], shape[2]); !reflect.DeepEqual(w.dbRows, want) {
			t.Errorf("AddTransactions%v differs from the reference generator", shape)
		}
	}
}

// refIntersect is iset_intersect_size as it was when every call stamped
// its first operand afresh: the count of b's elements present in a.
func refIntersect(a, b []int64) int64 {
	in := map[int64]bool{}
	for _, x := range a {
		in[x] = true
	}
	n := int64(0)
	for _, x := range b {
		if in[x] {
			n++
		}
	}
	return n
}

// TestIntersectMatchesPerCallStamping drives iset_new, iset_insert and
// iset_intersect_size in a random sequence, continued on a clone halfway,
// against a model of the itemsets: every intersection's result and cost
// equal those of stamping its first operand on every call, including an
// operand that grows between calls, duplicate items, empty sets and
// a == b.
func TestIntersectMatchesPerCallStamping(t *testing.T) {
	w := NewWorld()
	var model [][]int64
	check := func(step string, a, b int) {
		t.Helper()
		got, cost, err := w.Fns()["iset_intersect_size"]([]value.Value{value.Int(int64(a)), value.Int(int64(b))})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want := refIntersect(model[a], model[b])
		wantCost := 40 + 45*int64(len(model[a])+len(model[b]))
		if got.AsInt() != want || cost != wantCost {
			t.Fatalf("%s: intersect(%d, %d) = %d at cost %d, want %d at cost %d", step, a, b, got.AsInt(), cost, want, wantCost)
		}
	}
	newSet := func() {
		call(t, w, "iset_new")
		model = append(model, nil)
	}
	insert := func(s int, x int64) {
		call(t, w, "iset_insert", value.Int(int64(s)), value.Int(x))
		model[s] = append(model[s], x)
	}

	newSet()
	newSet()
	check("both empty", 0, 1)
	insert(0, 3)
	insert(1, 3)
	check("first grew", 0, 1)
	insert(0, 3) // a duplicate
	insert(0, 5)
	check("first grew again", 0, 1)
	check("same first operand", 0, 1)
	check("a == b", 0, 0)
	check("swapped", 1, 0)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if i == 1000 {
			w = w.Clone()
			check("first call after Clone", 0, 1)
		}
		switch r := rng.Intn(10); {
		case r == 0 && len(model) < 12:
			newSet()
		case r < 4:
			insert(rng.Intn(len(model)), int64(rng.Intn(24)))
		default:
			a := 0 // mostly the same first operand, as eclat's base
			if rng.Intn(3) == 0 {
				a = rng.Intn(len(model))
			}
			check("random", a, rng.Intn(len(model)))
		}
	}
}
