package main

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/callgraph"
	"repro/internal/commset"
	"repro/internal/effects"
	"repro/internal/lexer"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pdg"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/types"
	"repro/internal/workloads"
)

// program is one toolchain input: a workload variant, which must draw no
// warning, or a precision-corpus entry, which must meet its expectations.
type program struct {
	name   string
	src    string
	corpus *analysis.CorpusEntry
	// refInstrs and refDiags are the IR size and diagnostic count of the
	// reference pipeline.Compile + analysis.Run pass made in set-up.
	refInstrs, refDiags int
}

// analysisFamilies are the analyzer check families, each run on its own in
// the traced op.
var analysisFamilies = []struct {
	layer  string
	checks analysis.Checks
}{
	{"analysis.unsound", analysis.Checks{Unsound: true}},
	{"analysis.race", analysis.Checks{Race: true}},
	{"analysis.lint", analysis.Checks{Lint: true}},
	{"analysis.commute", analysis.Checks{Commute: true}},
}

const analysisThreads = 8

func (pg *program) options(checks analysis.Checks) analysis.Options {
	return analysis.Options{Checks: checks, Threads: analysisThreads, Privatize: pg.corpus != nil && pg.corpus.Privatize}
}

// toolchain: every workload variant and corpus entry through the front
// end, mid end and every analyzer, with nothing executed.
func toolchain(seed int64) (*suite, error) {
	var pgs []*program
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			pgs = append(pgs, &program{name: fmt.Sprintf("%s[%s]", wl.Name, v.Name), src: v.Source})
		}
	}
	for _, e := range analysis.Corpus() {
		e := e
		pgs = append(pgs, &program{name: e.Name + ".mc", src: e.Source, corpus: &e})
	}
	s := &suite{}
	for _, pg := range pgs {
		c, diags, err := pg.compileAndVet(off)
		if err != nil {
			return nil, err
		}
		pg.refInstrs, pg.refDiags = irInstrs(c), len(c.Diags.Diags)+len(diags.Diags)
		if err := pg.verdict(off, c, diags); err != nil {
			return nil, err
		}
		pg := pg
		s.ops = append(s.ops, &op{key: "toolchain/" + pg.name, run: func(tr *tracer) (int64, error) {
			var c *pipeline.Compiled
			var diags *source.DiagList
			var err error
			if tr.on {
				c, diags, err = pg.staged(tr)
			} else {
				c, diags, err = pg.compileAndVet(tr)
			}
			if err != nil {
				return 0, err
			}
			return 0, pg.verdict(tr, c, diags)
		}})
	}
	return s, nil
}

// compileAndVet is the untraced op: pipeline.Compile, then analysis.Run
// with every check family at once.
func (pg *program) compileAndVet(tr *tracer) (*pipeline.Compiled, *source.DiagList, error) {
	sp := tr.begin("workloads.setup")
	w := builtins.NewWorld()
	sigs, eff := w.Sigs(), w.EffectTable()
	tr.end(sp)
	c, err := pipeline.Compile(pipeline.Options{File: source.NewFile(pg.name, pg.src), Sigs: sigs, Effects: eff})
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", pg.name, err)
	}
	diags, err := analysis.Run(c, pg.options(analysis.DefaultChecks()))
	if err != nil {
		return nil, nil, fmt.Errorf("analyze %s: %w", pg.name, err)
	}
	return c, diags, nil
}

// staged is the traced op: pipeline.Compile's stages called one by one in
// its order, then the loop analyses and schedules the analyzers build on,
// then each check family on its own. The lexer runs once more on its own
// (the parser lexes internally), so lexer time is also inside parser time.
func (pg *program) staged(tr *tracer) (*pipeline.Compiled, *source.DiagList, error) {
	sp := tr.begin("workloads.setup")
	w := builtins.NewWorld()
	sigs, eff := w.Sigs(), w.EffectTable()
	tr.end(sp)

	file := source.NewFile(pg.name, pg.src)
	c := &pipeline.Compiled{File: file}
	fail := func(stage string) error {
		return fmt.Errorf("%s %s: %w", stage, pg.name, c.Diags.Err())
	}

	sp = tr.begin("lexer")
	var lexDiags source.DiagList
	toks := lexer.ScanAll(file, &lexDiags)
	tr.end(sp)
	tr.count("lexer.tokens", int64(len(toks)))

	sp = tr.begin("parser")
	prog := parser.Parse(file, &c.Diags)
	tr.end(sp)
	if c.Diags.Err() != nil {
		return nil, nil, fail("parse")
	}
	sp = tr.begin("types")
	c.Info = types.Check(prog, sigs, &c.Diags)
	tr.end(sp)
	if c.Diags.Err() != nil {
		return nil, nil, fail("typecheck")
	}
	sp = tr.begin("lower")
	c.Low = lower.Lower(c.Info, &c.Diags)
	tr.end(sp)
	if c.Diags.Err() != nil {
		return nil, nil, fail("lower")
	}
	tr.count("lower.ir_instrs", int64(irInstrs(c)))
	sp = tr.begin("commset")
	c.CG = callgraph.Build(c.Low.Prog)
	c.Model = commset.BuildModel(c.Info, c.Low)
	c.Model.CheckWellFormed(c.CG, &c.Diags, file.Name)
	tr.end(sp)
	if c.Diags.Err() != nil {
		return nil, nil, fail("commset")
	}
	sp = tr.begin("effects")
	c.Summary = effects.Summarize(c.Low.Prog, eff)
	tr.end(sp)

	var las []*pipeline.LoopAnalysis
	seen := map[string]bool{}
	sp = tr.begin("pdg")
	for _, lu := range c.Low.Loops {
		if seen[lu.Func] {
			continue
		}
		seen[lu.Func] = true
		fl, err := c.AnalyzeFuncLoops(lu.Func)
		if err != nil {
			tr.end(sp)
			return nil, nil, fmt.Errorf("analyze %s: %w", pg.name, err)
		}
		las = append(las, fl...)
	}
	tr.end(sp)
	for _, la := range las {
		tr.count("pdg.edges", int64(len(la.PDG.Edges)))
		for _, e := range la.PDG.Edges {
			if e.Comm != pdg.CommNone {
				tr.count("pdg.relaxed_edges", 1)
			}
		}
	}
	sp = tr.begin("transform")
	for _, la := range las {
		tr.count("transform.schedules", int64(len(transform.Schedules(la, nil, analysisThreads))))
	}
	tr.end(sp)

	all := &source.DiagList{}
	for _, fam := range analysisFamilies {
		sp = tr.begin(fam.layer)
		diags, err := analysis.Run(c, pg.options(fam.checks))
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("analyze %s: %w", pg.name, err)
		}
		all.Diags = append(all.Diags, diags.Diags...)
	}
	all.Sort()
	tr.count("analysis.diags", int64(len(all.Diags)))
	return c, all, nil
}

// verdict checks an op's analyzer output: corpus entries must meet their
// expectations, workload variants must draw no warning, and both must
// reproduce set-up's IR size and diagnostic count.
func (pg *program) verdict(tr *tracer, c *pipeline.Compiled, diags *source.DiagList) error {
	sp := tr.begin("workloads.validate")
	defer tr.end(sp)
	if pg.corpus != nil {
		if bad := pg.corpus.CheckCorpus(diags); len(bad) > 0 {
			return fmt.Errorf("%s", strings.Join(bad, "; "))
		}
	} else {
		for i := range diags.Diags {
			if d := &diags.Diags[i]; d.Sev >= source.SevWarning {
				return fmt.Errorf("%s drew %s", pg.name, d.Error())
			}
		}
	}
	if n := irInstrs(c); n != pg.refInstrs {
		return fmt.Errorf("%s: %d IR instructions, set-up had %d", pg.name, n, pg.refInstrs)
	}
	if n := len(c.Diags.Diags) + len(diags.Diags); n != pg.refDiags {
		return fmt.Errorf("%s: %d diagnostics, set-up had %d", pg.name, n, pg.refDiags)
	}
	return nil
}

// irInstrs is the lowered program's instruction count.
func irInstrs(c *pipeline.Compiled) int {
	n := 0
	for _, f := range c.Low.Prog.Funcs {
		n += f.NumInstrs()
	}
	return n
}
