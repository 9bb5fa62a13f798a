package pipeline_test

import (
	"testing"

	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/workloads"
)

// BenchmarkAnalyzeLoops times the mid end alone over every workload
// variant, compiled beforehand: one iteration runs AnalyzeFuncLoops on
// main (the CFG, pdg.Build and the dependence annotation of each loop)
// and transform.Schedules on each analyzed loop, for every program.
func BenchmarkAnalyzeLoops(b *testing.B) {
	w := builtins.NewWorld()
	var cs []*pipeline.Compiled
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			c, err := pipeline.Compile(pipeline.Options{
				File:    source.NewFile(wl.Name+"["+v.Name+"]", v.Source),
				Sigs:    w.Sigs(),
				Effects: w.EffectTable(),
			})
			if err != nil {
				b.Fatal(err)
			}
			cs = append(cs, c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			las, err := c.AnalyzeFuncLoops("main")
			if err != nil {
				b.Fatal(err)
			}
			for _, la := range las {
				if len(transform.Schedules(la, nil, 8)) == 0 {
					b.Fatalf("%s: no schedule", c.File.Name)
				}
			}
		}
	}
}
