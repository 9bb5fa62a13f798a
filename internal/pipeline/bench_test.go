package pipeline_test

import (
	"testing"

	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
)

// BenchmarkAnalyzeLoops times the mid end alone over every loop the
// toolchain builds: every workload variant and precision corpus entry is
// compiled beforehand, and one iteration runs AnalyzeFuncLoops on every
// function with loops (the control-flow context, pdg.Build and the
// dependence annotation of each loop) and transform.Schedules on each
// analyzed loop, for every program.
func BenchmarkAnalyzeLoops(b *testing.B) {
	w := builtins.NewWorld()
	type program struct {
		c   *pipeline.Compiled
		fns []string
	}
	var progs []program
	loops := 0
	for _, pg := range midendPrograms() {
		c, err := pipeline.Compile(pipeline.Options{File: source.NewFile(pg.name, pg.src), Sigs: w.Sigs(), Effects: w.EffectTable()})
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, program{c: c, fns: loopFuncs(c)})
		for _, fn := range loopFuncs(c) {
			loops += len(c.Loops(fn))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pg := range progs {
			for _, fn := range pg.fns {
				las, err := pg.c.AnalyzeFuncLoops(fn)
				if err != nil {
					b.Fatal(err)
				}
				for _, la := range las {
					if len(transform.Schedules(la, nil, 8)) == 0 {
						b.Fatalf("%s: no schedule", pg.c.File.Name)
					}
				}
			}
		}
	}
	b.ReportMetric(float64(loops), "loops")
}
