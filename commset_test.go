package commset_test

import (
	"fmt"
	"strings"
	"testing"

	commset "repro"
	"repro/internal/builtins"
)

// quickSrc is a minimal annotated program over the standard substrate.
const quickSrc = `
#pragma commset decl FSET
#pragma commset predicate FSET (i1)(i2) : i1 != i2

void main() {
	int n = file_count();
	for (int i = 0; i < n; i++) {
		int fp = 0;
		int buf = 0;
		#pragma commset member FSET(i), SELF
		{
			fp = fopen_idx(i);
			buf = fread_all(fp);
		}
		string digest = md5_buf(buf);
		#pragma commset member FSET(i), SELF
		{
			print_str(digest);
			fclose(fp);
		}
	}
}
`

func setupFiles(w *builtins.World) {
	for i := 0; i < 16; i++ {
		w.AddFile("f", 8192)
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	prog, err := commset.Compile(quickSrc, setupFiles)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !prog.HasHotLoop() {
		t.Fatal("hot loop not found")
	}

	seq, err := prog.RunSequential()
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if len(seq.Console()) != 16 {
		t.Fatalf("sequential printed %d lines, want 16", len(seq.Console()))
	}

	doall := prog.ScheduleOf(commset.DOALL, 8)
	if doall == nil {
		t.Fatalf("DOALL not applicable; schedules: %v", prog.Schedules(8))
	}
	par, err := prog.Run(doall, commset.SyncSpin, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sp := seq.Speedup(par); sp < 3 {
		t.Errorf("speedup %.2f, want >= 3", sp)
	}

	// Digests are order-independent values; compare as multisets.
	a := append([]string(nil), seq.Console()...)
	b := append([]string(nil), par.Console()...)
	sortStrings(a)
	sortStrings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("console multiset differs at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestPublicAPIDumps(t *testing.T) {
	prog, err := commset.Compile(quickSrc, setupFiles)
	if err != nil {
		t.Fatal(err)
	}
	pdg := prog.PDGDump()
	if !strings.Contains(pdg, "uco") {
		t.Errorf("PDG dump missing uco annotations:\n%s", pdg)
	}
	ir := prog.IRDump()
	if !strings.Contains(ir, "region main$r1") {
		t.Errorf("IR dump missing extracted region")
	}
}

func TestPublicAPICompileError(t *testing.T) {
	_, err := commset.Compile(`void main() { undeclared(); }`, nil)
	if err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Errorf("err = %v, want undefined function", err)
	}
}

func TestPublicAPINoLoop(t *testing.T) {
	prog, err := commset.Compile(`void main() { print_int(42); }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prog.HasHotLoop() {
		t.Error("no loop expected")
	}
	scheds := prog.Schedules(4)
	if len(scheds) != 1 || scheds[0].Kind != commset.Sequential {
		t.Errorf("schedules = %v", scheds)
	}
	res, err := prog.Run(scheds[0], commset.SyncSpin, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Console(); len(got) != 1 || got[0] != "42" {
		t.Errorf("console = %v", got)
	}
}

// ExampleCompile compiles an annotated program, lists the schedules its
// annotations enable, and runs DOALL on eight simulated threads.
func ExampleCompile() {
	prog, err := commset.Compile(quickSrc, setupFiles)
	if err != nil {
		fmt.Println(err)
		return
	}
	seq, err := prog.RunSequential()
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, s := range prog.Schedules(8) {
		fmt.Println(s)
	}
	par, err := prog.Run(prog.ScheduleOf(commset.DOALL, 8), commset.SyncSpin, 8)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("sequential %d, DOALL %d, speedup %.2fx, %d digests\n",
		seq.VirtualTime, par.VirtualTime, seq.Speedup(par), len(par.Console()))
	// Output:
	// Sequential
	// DOALL
	// DSWP [S, S, S, S, S, S]
	// PS-DSWP [S, DOALL]
	// sequential 142078, DOALL 24266, speedup 5.86x, 16 digests
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
