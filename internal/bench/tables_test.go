package bench

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/effects"
	"repro/internal/sanitize"
	"repro/internal/transform"
	"repro/internal/types"
	"repro/internal/workloads"
)

// TestBuiltinTablesReadOnly pins the builtin signature and effect tables as
// read-only. Every World returns the same tables, so a consumer that
// modified one would corrupt every later compile in the process. The test
// compiles (profile and sequential run included), vets and sanitizes every
// workload variant and corpus entry, compiles and vets each workload's
// noannot baseline (the conservative table's consumer), and then compares
// the tables with deep copies taken first.
func TestBuiltinTablesReadOnly(t *testing.T) {
	w := builtins.NewWorld()
	sigs, eff, cons := w.Sigs(), w.EffectTable(), w.ConservativeEffectTable()
	wantSigs, wantEff, wantCons := copySigs(sigs), copyEffects(eff), copyEffects(cons)

	vet := func(name string, c *Compiled, privatize bool) {
		t.Helper()
		if _, err := analysis.Run(c.C, analysis.Options{Checks: analysis.DefaultChecks(), Privatize: privatize}); err != nil {
			t.Fatalf("vet %s: %v", name, err)
		}
	}
	for _, wl := range workloads.All() {
		cp, err := Compile(wl, "noannot", 4)
		if err != nil {
			t.Fatal(err)
		}
		vet(wl.Name+"[noannot]", cp, false)
		for _, v := range wl.Variants {
			cp, err := Compile(wl, v.Name, 4)
			if err != nil {
				t.Fatal(err)
			}
			vet(wl.Name+"["+v.Name+"]", cp, false)
			if _, err := SanitizeRun(cp, transform.Sequential, 0, 1); err != nil {
				t.Fatal(err)
			}
			for _, kind := range parallelKinds {
				if cp.Schedule(kind) != nil {
					if _, err := SanitizeRun(cp, kind, wl.Syncs()[0], 4); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, e := range analysis.Corpus() {
		c, err := compileVetSource(e.Name+".mc", e.Source)
		if err != nil {
			t.Fatal(err)
		}
		vet(e.Name, &Compiled{C: c}, e.Privatize)
		if _, err := VerifyAllSource(e.Name+".mc", e.Source, func(sanitize.Candidate) string { return "" }); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(sigs, wantSigs) {
		t.Error("the builtin signature table was modified")
	}
	if !reflect.DeepEqual(eff, wantEff) {
		t.Error("the builtin effect table was modified")
	}
	if !reflect.DeepEqual(cons, wantCons) {
		t.Error("the conservative builtin effect table was modified")
	}
}

func copySigs(in map[string]*types.Sig) map[string]*types.Sig {
	out := make(map[string]*types.Sig, len(in))
	for n, s := range in {
		cp := *s
		cp.Params = slices.Clone(s.Params)
		out[n] = &cp
	}
	return out
}

func copyEffects(in effects.Table) effects.Table {
	out := make(effects.Table, len(in))
	for n, d := range in {
		out[n] = effects.Decl{
			Reads:      slices.Clone(d.Reads),
			Writes:     slices.Clone(d.Writes),
			KeyedBy:    maps.Clone(d.KeyedBy),
			InstanceBy: maps.Clone(d.InstanceBy),
			Allocates:  slices.Clone(d.Allocates),
		}
	}
	return out
}
