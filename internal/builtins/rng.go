package builtins

import (
	"repro/internal/ast"
	"repro/internal/vm/value"
)

// The RNG library mirrors the shared-seed random number generator of
// 456.hmmer and em3d: every routine reads and updates one global seed
// variable, so unannotated calls serialize the loop. The paper breaks this
// dependence by asserting self- and group-commutativity of the routines
// ("any permutation of a random number sequence still preserves the
// properties of the distribution").

// nextSeed advances the shared seed (SplitMix64 step).
func (w *World) nextSeed() uint64 {
	w.seed += 0x9e3779b97f4a7c15
	z := w.seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed reseeds the world RNG (used by workload setup).
func (w *World) Seed(s uint64) { w.seed = s }

func registerRNG() {
	seedEff := rw("rng.seed")
	register("rng_int", nil, ast.TInt, seedEff,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(w.nextSeed() & 0x7fffffffffffffff)), 40, nil
		})
	register("rng_range", []ast.Type{ast.TInt}, ast.TInt, seedEff,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			n := args[0].AsInt()
			if n <= 0 {
				return value.Value{}, 0, errArg("rng_range", "non-positive bound")
			}
			return value.Int(int64(w.nextSeed() % uint64(n))), 40, nil
		})
	register("rng_float", nil, ast.TFloat, seedEff,
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Float(float64(w.nextSeed()>>11) / (1 << 53)), 40, nil
		})
}
