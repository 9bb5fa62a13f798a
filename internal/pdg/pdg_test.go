package pdg_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/effects"
	"repro/internal/ir"
	"repro/internal/pdg"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/types"
	"repro/internal/workloads"
)

func analyze(t *testing.T, src string) *pipeline.LoopAnalysis {
	t.Helper()
	sigs := map[string]*types.Sig{
		"emit":  {Name: "emit", Params: []ast.Type{ast.TInt}, Result: ast.TVoid},
		"pull":  {Name: "pull", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
		"cheap": {Name: "cheap", Params: []ast.Type{ast.TInt}, Result: ast.TInt},
	}
	effs := effects.Table{
		"emit":  {Writes: []effects.Loc{effects.TagLoc("sink")}},
		"pull":  {Reads: []effects.Loc{effects.TagLoc("src")}, Writes: []effects.Loc{effects.TagLoc("src")}},
		"cheap": {},
	}
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile("t.mc", src),
		Sigs:    sigs,
		Effects: effs,
	})
	if err != nil {
		t.Fatal(err)
	}
	loops := c.Loops("main")
	if len(loops) == 0 {
		t.Fatal("no loop")
	}
	la, err := c.AnalyzeLoop("main", loops[0].Header)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

func TestIVDetection(t *testing.T) {
	la := analyze(t, `
void main() {
	int bodyCounter = 0;
	for (int i = 0; i < 10; i++) {
		cheap(i);
		bodyCounter++;
	}
	emit(bodyCounter);
}`)
	// Exactly one IV slot (i); bodyCounter updates in the body and must
	// not be treated as privatizable.
	ivNames := []string{}
	for slot, iv := range la.PDG.IVSlots {
		if iv {
			ivNames = append(ivNames, la.Fn.Locals[slot].Name)
		}
	}
	if len(ivNames) != 1 || ivNames[0] != "i" {
		t.Errorf("IV slots = %v, want [i]", ivNames)
	}
}

func TestUpwardExposedChain(t *testing.T) {
	la := analyze(t, `
void main() {
	int x = 1;
	for (int i = 0; i < 10; i++) {
		x = pull(x);
	}
	emit(x);
}`)
	// x = pull(x) is a genuine loop-carried chain: a loop-carried flow
	// edge on slot x must exist and not be IV-privatized.
	found := false
	for _, e := range la.PDG.Edges {
		if slot, ok := e.LocalSlot(); ok && la.Fn.Locals[slot].Name == "x" &&
			e.Kind == pdg.DepFlow && e.LoopCarried {
			found = true
			if e.IVSlot {
				t.Error("x wrongly marked as induction variable")
			}
		}
	}
	if !found {
		t.Error("missing loop-carried flow on x")
	}
}

func TestIterationLocalTemporaryNotLoopCarried(t *testing.T) {
	la := analyze(t, `
void main() {
	for (int i = 0; i < 10; i++) {
		int tmp = cheap(i);
		emit(tmp);
	}
}`)
	for _, e := range la.PDG.Edges {
		if slot, ok := e.LocalSlot(); ok && la.Fn.Locals[slot].Name == "tmp" &&
			e.Kind == pdg.DepFlow && e.LoopCarried {
			t.Errorf("iteration-local tmp has loop-carried flow: %+v", e)
		}
	}
}

func TestInnerLoopIVNotExposed(t *testing.T) {
	// The fixpoint must-define analysis must not mark the inner loop's own
	// counter as upward-exposed for the outer loop.
	la := analyze(t, `
void main() {
	for (int i = 0; i < 4; i++) {
		for (int j = 0; j < 4; j++) {
			cheap(i + j);
		}
	}
}`)
	for _, e := range la.PDG.Edges {
		if slot, ok := e.LocalSlot(); ok && la.Fn.Locals[slot].Name == "j" &&
			e.Kind == pdg.DepFlow && e.LoopCarried && !e.IVSlot {
			t.Errorf("inner-loop j exposed across outer iterations: %+v", e)
		}
	}
}

func TestSharedTagEdgesConservative(t *testing.T) {
	la := analyze(t, `
void main() {
	for (int i = 0; i < 4; i++) {
		emit(pull(i));
	}
}`)
	// pull (rw src) must have a loop-carried self edge; emit (w sink) too.
	var pullID, emitID int = -1, -1
	for _, id := range la.PDG.Nodes {
		in := la.PDG.Instrs[id]
		if in.Op == ir.OpCall && in.Name == "pull" {
			pullID = id
		}
		if in.Op == ir.OpCall && in.Name == "emit" {
			emitID = id
		}
	}
	selfLC := func(id int) bool {
		for _, e := range la.PDG.Edges {
			if e.From == id && e.To == id && e.LoopCarried && e.Kind != pdg.DepControl {
				return true
			}
		}
		return false
	}
	if !selfLC(pullID) {
		t.Error("pull missing loop-carried self dependence")
	}
	if !selfLC(emitID) {
		t.Error("emit missing loop-carried self dependence")
	}
}

func TestControlDependences(t *testing.T) {
	la := analyze(t, `
void main() {
	for (int i = 0; i < 4; i++) {
		if (i % 2 == 0) {
			emit(i);
		}
	}
}`)
	// The emit call must be control dependent on the if's branch.
	var emitID int = -1
	for _, id := range la.PDG.Nodes {
		if in := la.PDG.Instrs[id]; in.Op == ir.OpCall && in.Name == "emit" {
			emitID = id
		}
	}
	found := false
	for _, e := range la.PDG.Edges {
		if e.To == emitID && e.Kind == pdg.DepControl && !e.LoopCarried {
			from := la.PDG.Instrs[e.From]
			if from.Op == ir.OpCondBr {
				found = true
			}
		}
	}
	if !found {
		t.Error("emit not control-dependent on the if branch")
	}
}

func TestRMWSlots(t *testing.T) {
	la := analyze(t, `
void main() {
	int acc = 0;
	int out = 0;
	for (int i = 0; i < 4; i++) {
		#pragma commset member SELF
		{
			acc += i;
			out = i * 2;
		}
	}
	emit(acc + out);
}`)
	var regionCall *ir.Instr
	for _, id := range la.PDG.Nodes {
		if in := la.PDG.Instrs[id]; in.Op == ir.OpCall && strings.Contains(in.Name, "$r") {
			regionCall = in
		}
	}
	if regionCall == nil {
		t.Fatal("region call not found")
	}
	rmw := la.PDG.RMWSlots(regionCall)
	if len(rmw) != 1 || la.Fn.Locals[rmw[0]].Name != "acc" {
		names := []string{}
		for _, s := range rmw {
			names = append(names, la.Fn.Locals[s].Name)
		}
		t.Errorf("RMW slots = %v, want [acc] (out is write-only)", names)
	}
}

func TestPDGStringDump(t *testing.T) {
	la := analyze(t, `
void main() {
	for (int i = 0; i < 4; i++) { emit(i); }
}`)
	s := la.PDG.String()
	for _, frag := range []string{"PDG main", "condbr", "call emit", "->"} {
		if !strings.Contains(s, frag) {
			t.Errorf("dump missing %q", frag)
		}
	}
}

// TestPDGDumpDeterministic builds every loop PDG of main of every workload
// variant 20 times in one process and requires one dump per loop: the
// edge order must not depend on map iteration.
func TestPDGDumpDeterministic(t *testing.T) {
	tables := builtins.NewWorld()
	for _, wl := range workloads.All() {
		for _, v := range wl.Variants {
			dumps := map[string]map[string]bool{}
			for i := 0; i < 20; i++ {
				c, err := pipeline.Compile(pipeline.Options{
					File:    source.NewFile(wl.Name+"["+v.Name+"]", v.Source),
					Sigs:    tables.Sigs(),
					Effects: tables.EffectTable(),
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, lu := range c.Loops("main") {
					la, err := c.AnalyzeLoop("main", lu.Header)
					if err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("b%d", lu.Header)
					if dumps[key] == nil {
						dumps[key] = map[string]bool{}
					}
					dumps[key][la.PDG.String()] = true
				}
			}
			for loop, ds := range dumps {
				if len(ds) != 1 {
					t.Errorf("%s[%s] loop %s: %d distinct PDG dumps over 20 builds", wl.Name, v.Name, loop, len(ds))
				}
			}
		}
	}
}
