package builtins

import (
	"testing"

	"repro/internal/vm/value"
)

// BenchmarkHMMIteration times one iteration of the 456.hmmer loop body on
// one world: seq_gen(48), matrix_alloc(100), hmm_score, histogram_add and
// matrix_free, the calls and sizes of the hmmer workload. Every drawn
// sequence is new, so each hmm_score runs the dynamic program. Argument
// slices are reused across calls, as the interpreter's call arena does.
func BenchmarkHMMIteration(b *testing.B) {
	fns := NewWorld().Fns()
	seqGen, alloc := fns["seq_gen"], fns["matrix_alloc"]
	score, histo, free := fns["hmm_score"], fns["histogram_add"], fns["matrix_free"]
	one, two := make([]value.Value, 1), make([]value.Value, 2)
	must := func(v value.Value, _ int64, err error) value.Value {
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = value.Int(48)
		seq := must(seqGen(one))
		one[0] = value.Int(100)
		mat := must(alloc(one))
		two[0], two[1] = seq, mat
		one[0] = must(score(two))
		must(histo(one))
		one[0] = mat
		must(free(one))
	}
}
