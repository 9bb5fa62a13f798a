package analysis

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// BenchmarkCompileAndVet times the toolchain path over every workload
// variant and corpus entry, the programs commsetvet and the precision
// campaign see. One iteration of compile runs pipeline.Compile on all of
// them, fetching the builtin tables as every caller does; one iteration of
// a check family's sub-benchmark runs analysis.Run with that family alone
// on all of them, compiled beforehand (Run builds each loop's PDG itself).
func BenchmarkCompileAndVet(b *testing.B) {
	type program struct {
		name, src string
		privatize bool
	}
	var pgs []program
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			pgs = append(pgs, program{name: wl.Name + "[" + v.Name + "]", src: v.Source})
		}
	}
	for _, e := range Corpus() {
		pgs = append(pgs, program{name: e.Name + ".mc", src: e.Source, privatize: e.Privatize})
	}
	compileAll := func(b *testing.B) []*pipeline.Compiled {
		cs := make([]*pipeline.Compiled, len(pgs))
		for i, pg := range pgs {
			c, err := compileSourceErr(pg.name, pg.src)
			if err != nil {
				b.Fatal(err)
			}
			cs[i] = c
		}
		return cs
	}

	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileAll(b)
		}
	})
	cs := compileAll(b)
	for _, fam := range []struct {
		name   string
		checks Checks
	}{
		{"unsound", Checks{Unsound: true}},
		{"race", Checks{Race: true}},
		{"lint", Checks{Lint: true}},
		{"commute", Checks{Commute: true}},
	} {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, c := range cs {
					if _, err := Run(c, Options{Checks: fam.checks, Privatize: pgs[j].privatize}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
