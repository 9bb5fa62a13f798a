package interp_test

import (
	"testing"

	"repro/internal/vm/interp"
	"repro/internal/vm/value"
)

// benchSrc exercises the shapes the compiled code targets: global
// read-modify-writes, local arithmetic, and user-function and builtin
// calls inside a loop.
const benchSrc = `
int g = 0;
int acc(int x) { g = g + x; return g; }
void main() {
	int s = 0;
	for (int i = 0; i < 200; i++) {
		s = s + acc(i);
		s = heavy(s) % 1000;
		g = g + s;
	}
	emit(s);
}`

// BenchmarkRunCompiled times whole-program execution: pre-compiled
// per-function code, slot-indexed globals, segment-summed costs. Each
// iteration gets a fresh environment; the compiled code cache persists
// across iterations, as it does across campaign cells.
func BenchmarkRunCompiled(b *testing.B) {
	res, sink := compile(b, benchSrc)
	fns := builtinsFor(sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := interp.NewEnv(res.Prog, fns)
		if err := interp.NewThread(env).RunMain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapByName measures the name-keyed global access pair (one
// load plus one store through the heap's name map).
func BenchmarkHeapByName(b *testing.B) {
	res, _ := compile(b, benchSrc)
	h := interp.NewEnv(res.Prog, nil).Globals
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := h.Get("g")
		h.Set("g", value.Int(v.AsInt()+1))
	}
}
