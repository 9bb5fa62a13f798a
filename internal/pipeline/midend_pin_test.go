package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/midend_pins.txt")

const midendPinsPath = "testdata/midend_pins.txt"

// midendProgram is one mid-end input: a workload variant or a precision
// corpus entry, compiled against the builtin world.
type midendProgram struct {
	name      string
	src       string
	privatize bool
}

func midendPrograms() []midendProgram {
	var out []midendProgram
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			out = append(out, midendProgram{name: wl.Name + "[" + v.Name + "]", src: v.Source})
		}
	}
	for _, e := range analysis.Corpus() {
		out = append(out, midendProgram{name: e.Name + ".mc", src: e.Source, privatize: e.Privatize})
	}
	return out
}

// loopFuncs lists the functions with recorded loops, in first-appearance
// order of the lowerer's loop records (the order analysis.Run uses).
func loopFuncs(c *pipeline.Compiled) []string {
	var fns []string
	seen := map[string]bool{}
	for _, lu := range c.Low.Loops {
		if !seen[lu.Func] {
			seen[lu.Func] = true
			fns = append(fns, lu.Func)
		}
	}
	return fns
}

// renderMidEnd renders everything the mid end derives for one program:
// per loop of every function, the PDG edges in insertion order with every
// field, the PDG dump, the dependence analyzer's representative map and
// member calls, the unit graph, and each schedule with its estimate; then
// the analyzer's diagnostics.
func renderMidEnd(t *testing.T, pg midendProgram) string {
	t.Helper()
	w := builtins.NewWorld()
	c, err := pipeline.Compile(pipeline.Options{File: source.NewFile(pg.name, pg.src), Sigs: w.Sigs(), Effects: w.EffectTable()})
	if err != nil {
		t.Fatalf("%s: %v", pg.name, err)
	}
	var b strings.Builder
	for _, fn := range loopFuncs(c) {
		las, err := c.AnalyzeFuncLoops(fn)
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		for _, la := range las {
			fmt.Fprintf(&b, "loop %s b%d\n", fn, la.Loop.Header)
			for _, e := range la.PDG.Edges {
				var by []string
				for _, s := range e.CommBy {
					by = append(by, s.Name)
				}
				fmt.Fprintf(&b, "edge %d %d %s %v %q %s %v %d %v\n",
					e.From, e.To, e.Kind, e.LoopCarried, e.Loc, e.Comm, e.IVSlot, e.SlotID, by)
			}
			b.WriteString(la.PDG.String())
			for id, rep := range la.Dep.Rep {
				if rep != id {
					fmt.Fprintf(&b, "rep %d -> %d\n", id, rep)
				}
			}
			fmt.Fprintf(&b, "members %v\n", la.Dep.MemberCalls)
			renderUnitGraph(&b, la, transform.BuildUnitGraph(la, nil))
			for _, s := range transform.Schedules(la, nil, 8) {
				fmt.Fprintf(&b, "schedule %s estimate %v shared %v notes %q\n", s, s.Estimate, s.SharedSlots, s.Notes)
				for _, st := range s.Stages {
					fmt.Fprintf(&b, "  stage %v parallel %v weight %d\n", st.Units, st.Parallel, st.Weight)
				}
			}
		}
	}
	diags, err := analysis.Run(c, analysis.Options{Checks: analysis.DefaultChecks(), Threads: 8, Privatize: pg.privatize})
	if err != nil {
		t.Fatalf("%s: %v", pg.name, err)
	}
	b.WriteString(diags.String())
	return b.String()
}

// renderUnitGraph renders a unit graph as sorted lists: the unit of every
// loop instruction, each unit's dependence targets, the units feeding the
// loop control, the weights and the shared slots.
func renderUnitGraph(b *strings.Builder, la *pipeline.LoopAnalysis, g *transform.UnitGraph) {
	fmt.Fprintf(b, "units %d\n", g.NumUnits)
	for _, id := range la.PDG.Nodes {
		fmt.Fprintf(b, " %d:%d", id, g.UnitOf[id])
	}
	b.WriteString("\n")
	deps := func(name string, lists [][]int) {
		for u, tos := range lists {
			if len(tos) > 0 {
				fmt.Fprintf(b, "%s %d -> %v\n", name, u, tos)
			}
		}
	}
	deps("intra", g.Intra)
	deps("lc", g.LC)
	var into []int
	for u, in := range g.IntoControl {
		if in {
			into = append(into, u)
		}
	}
	fmt.Fprintf(b, "into-control %v weights %v control %d shared %v\n", into, g.Weights, g.ControlWeight, g.SharedSlots)
}

// TestMidEndPinned pins, by sha256 prefix per program, everything the mid
// end derives for every workload variant and corpus entry (see
// renderMidEnd). A change to the PDG builder, the dependence analyzer, the
// unit graph, the partitioner or the analyzers that moves any of it fails
// here; refresh the pins with -update only for an intended change.
func TestMidEndPinned(t *testing.T) {
	var lines []string
	got := map[string]string{}
	for _, pg := range midendPrograms() {
		h := sha256.Sum256([]byte(renderMidEnd(t, pg)))
		got[pg.name] = hex.EncodeToString(h[:8])
		lines = append(lines, fmt.Sprintf("%-32s %s", pg.name, got[pg.name]))
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(midendPinsPath), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(midendPinsPath))
	if errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing mid-end pins (run go test ./internal/pipeline -run %s -update): %v", t.Name(), err)
	} else if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			pinned[f[0]] = f[1]
		}
	}
	if len(pinned) != len(got) {
		t.Errorf("%s pins %d programs, the suite has %d", midendPinsPath, len(pinned), len(got))
	}
	for _, pg := range midendPrograms() {
		if want := pinned[pg.name]; want != got[pg.name] {
			t.Errorf("mid end of %s moved: pinned %q, got %s", pg.name, want, got[pg.name])
		}
	}
}
