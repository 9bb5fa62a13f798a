// Command commsetvet is the COMMSET misannotation and race analyzer: it
// compiles a MiniC program (a file, or a named benchmark workload) and runs
// the static check suite from internal/analysis over the result:
//
//	commsetvet -workload md5sum                 vet a benchmark's comm variant
//	commsetvet program.mc                       vet a source file
//	commsetvet -checks=race -json program.mc    one family, machine-readable
//	commsetvet -checks=help                     list the check families
//	commsetvet -werror -workload geti           warnings fail the build
//	commsetvet -sanitize-out rep.json prog.mc   record dynamic commute verdicts
//	commsetvet -discharge rep.json prog.mc      discharge cannot-decides with them
//
// Exit status: 0 when the program is clean, 1 when the analyzers report an
// error (or, with -werror, a warning), 2 on usage or compile failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/sanitize"
	"repro/internal/source"
	"repro/internal/transform"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commsetvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "vet a named benchmark workload instead of a file")
		variant  = fs.String("variant", "comm", "workload variant (comm, det, pipe, noannot)")
		checks   = fs.String("checks", "unsound,race,lint,commute", "comma-separated check families to run")
		threads  = fs.Int("threads", 8, "thread count for schedule generation in the race detector")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as JSON")
		werror   = fs.Bool("werror", false, "treat analyzer warnings as errors")
		baseline = fs.String("baseline", "", "suppress findings recorded in this JSON baseline (from -json); fail only on new ones")
		priv     = fs.Bool("privatize", false, "analyze under the runtime's privatized-commutative-update tuning (suppresses races a common commset relaxes; the unsound audit still runs)")
		disch    = fs.String("discharge", "", "merge dynamic sanitizer verdicts from this JSON report (commsetrun/commsetbench/-sanitize-out output): cannot-decide commute warnings become verified-dynamic notes or hard errors")
		sanOut   = fs.String("sanitize-out", "", "run the program sequentially under the dynamic commute oracle and write the pair verdicts to this JSON file (usable with -discharge)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: commsetvet [flags] (-workload NAME | program.mc)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if trimmed := strings.TrimSpace(*checks); trimmed == "" || trimmed == "help" {
		printChecks(stdout)
		return 0
	}
	cks, err := parseChecks(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "commsetvet:", err)
		return 2
	}

	name, src, err := resolveSource(fs, *workload, *variant)
	if err != nil {
		fmt.Fprintln(stderr, "commsetvet:", err)
		if name == "" {
			fs.Usage()
		}
		return 2
	}

	if *sanOut != "" {
		if err := writeSanitizeOut(*sanOut, *workload, *variant, name, src, *threads); err != nil {
			fmt.Fprintln(stderr, "commsetvet:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote dynamic commute verdicts to %s\n", *sanOut)
	}

	var discharge analysis.DischargeSet
	if *disch != "" {
		discharge, err = loadDischarge(*disch)
		if err != nil {
			fmt.Fprintln(stderr, "commsetvet:", err)
			return 2
		}
	}

	world := builtins.NewWorld()
	c, err := pipeline.Compile(pipeline.Options{
		File:    source.NewFile(name, src),
		Sigs:    world.Sigs(),
		Effects: world.EffectTable(),
	})
	if err != nil {
		// The program did not compile; report every front-end diagnostic
		// (sorted) rather than just the first error.
		c.Diags.Sort()
		for i := range c.Diags.Diags {
			fmt.Fprintln(stderr, c.Diags.Diags[i].Error())
		}
		return 2
	}

	diags, err := analysis.Run(c, analysis.Options{Checks: cks, Threads: *threads, Privatize: *priv, Discharge: discharge})
	if err != nil {
		fmt.Fprintln(stderr, "commsetvet:", err)
		return 2
	}

	// With -baseline, findings already recorded in the saved JSON report are
	// accepted debt: they are still printed (marked) but only findings absent
	// from the baseline decide the exit status.
	isNew := func(i int) bool { return true }
	if *baseline != "" {
		known, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "commsetvet:", err)
			return 2
		}
		isNew = func(i int) bool {
			d := &diags.Diags[i]
			k := baselineKey(d.Sev.String(), d.File, d.Msg)
			if known[k] > 0 {
				known[k]--
				return false
			}
			return true
		}
	}
	newAt := make([]bool, len(diags.Diags))
	for i := range diags.Diags {
		newAt[i] = isNew(i)
	}

	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "commsetvet:", err)
			return 2
		}
	} else {
		for i := range diags.Diags {
			if *baseline != "" && !newAt[i] {
				fmt.Fprintln(stdout, "[baseline] "+diags.Diags[i].Error())
				continue
			}
			fmt.Fprintln(stdout, diags.Diags[i].Error())
		}
	}

	failed := false
	for i := range diags.Diags {
		if !newAt[i] {
			continue
		}
		sev := diags.Diags[i].Sev
		if sev == source.SevError || (*werror && sev == source.SevWarning) {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// baselineKey identifies a finding for baseline comparison. Line and column
// are deliberately excluded so unrelated edits that shift positions do not
// resurface accepted findings; severity, file, and message must all match.
func baselineKey(sev, file, msg string) string {
	return sev + "\x00" + file + "\x00" + msg
}

// loadBaseline reads a saved -json report and returns a multiset of its
// finding keys: each recorded finding forgives one identical finding now.
func loadBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var saved []jsonDiag
	if err := json.Unmarshal(data, &saved); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	known := make(map[string]int, len(saved))
	for _, d := range saved {
		known[baselineKey(d.Severity, d.File, d.Message)]++
	}
	return known, nil
}

// printChecks lists the analyzer families (-checks=help or -checks=).
func printChecks(w io.Writer) {
	fmt.Fprintln(w, "commsetvet check families (comma-separate for -checks):")
	for _, f := range []struct{ name, desc string }{
		{"unsound", "relaxed dependence edges whose conflicting locations are neither serialized by a set lock nor provably disjoint under the set's predicate"},
		{"race", "cross-iteration conflicts that a generated parallel schedule (DOALL, DSWP, PS-DSWP) runs concurrently without protection"},
		{"lint", "dead pragmas, provably-false commset predicates, and subsumed self-commutativity annotations"},
		{"commute", "symbolic both-order execution of every member pair; a non-empty post-state difference is reported with a counterexample, an undecidable pair as commute-unverified (dischargeable with -discharge)"},
	} {
		fmt.Fprintf(w, "  %-8s %s\n", f.name, f.desc)
	}
}

// writeSanitizeOut runs the program sequentially under the VerifyAll
// oracle (snapshotting and replaying every same-set member pair in both
// orders) and writes the verdicts as JSON for later -discharge use.
func writeSanitizeOut(path, workload, variant, name, src string, threads int) error {
	var pairs []sanitize.PairVerdict
	if workload != "" {
		wl := workloads.ByName(workload)
		cp, err := bench.Compile(wl, variant, threads)
		if err != nil {
			return err
		}
		cell, err := bench.SanitizeRun(cp, transform.Sequential, 0, 1)
		if err != nil {
			return err
		}
		pairs = cell.Pairs
	} else {
		var err error
		pairs, err = bench.VerifyAllSource(name, src, func(c sanitize.Candidate) string {
			return fmt.Sprintf("commsetvet -sanitize-out %s %s # pair gseq %d:%d", path, name, c.GseqA, c.GseqB)
		})
		if err != nil {
			return err
		}
	}
	return bench.WriteJSON(path, struct {
		Mode  string                 `json:"mode"`
		Pairs []sanitize.PairVerdict `json:"pairs"`
	}{Mode: "verify-all", Pairs: pairs})
}

// loadDischarge reads any sanitizer report shape — a commsetrun cell, a
// commsetbench campaign, a -sanitize-out verdict file, or a bare verdict
// array — and collects its pair verdicts into a DischargeSet.
func loadDischarge(path string) (analysis.DischargeSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("discharge: %w", err)
	}
	type pairHolder struct {
		Pairs []sanitize.PairVerdict `json:"pairs"`
	}
	var rep struct {
		Pairs     []sanitize.PairVerdict `json:"pairs"`
		Cells     []pairHolder           `json:"cells"`
		Negatives []pairHolder           `json:"negatives"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		var arr []sanitize.PairVerdict
		if err2 := json.Unmarshal(data, &arr); err2 != nil {
			return nil, fmt.Errorf("discharge %s: %w", path, err)
		}
		rep.Pairs = arr
	}
	ds := analysis.DischargeSet{}
	add := func(ps []sanitize.PairVerdict) {
		for _, p := range ps {
			ds.Add(p.Set, p.FnA, p.FnB, analysis.Discharge{Verdict: p.Verdict, Diff: p.Diff, Replay: p.Replay})
		}
	}
	add(rep.Pairs)
	for _, c := range rep.Cells {
		add(c.Pairs)
	}
	for _, n := range rep.Negatives {
		add(n.Pairs)
	}
	return ds, nil
}

// parseChecks turns the -checks flag into an analysis.Checks selection.
func parseChecks(list string) (analysis.Checks, error) {
	var cks analysis.Checks
	for _, name := range strings.Split(list, ",") {
		switch strings.TrimSpace(name) {
		case "unsound":
			cks.Unsound = true
		case "race":
			cks.Race = true
		case "lint":
			cks.Lint = true
		case "commute":
			cks.Commute = true
		case "":
		default:
			return cks, fmt.Errorf("unknown check %q (have: unsound, race, lint, commute)", name)
		}
	}
	if !cks.Unsound && !cks.Race && !cks.Lint && !cks.Commute {
		return cks, fmt.Errorf("no checks selected")
	}
	return cks, nil
}

// resolveSource picks the program to vet: a workload variant or a file.
func resolveSource(fs *flag.FlagSet, workload, variant string) (name, src string, err error) {
	if workload != "" {
		wl := workloads.ByName(workload)
		if wl == nil {
			return workload, "", fmt.Errorf("unknown workload %q (have: %s)", workload, strings.Join(workloads.Names(), ", "))
		}
		src = wl.Variant(variant)
		if src == "" && variant == "noannot" {
			src = workloads.StripPragmas(wl.Primary())
		}
		if src == "" {
			return workload, "", fmt.Errorf("workload %s has no variant %q", workload, variant)
		}
		return fmt.Sprintf("%s[%s]", wl.Name, variant), src, nil
	}
	if fs.NArg() != 1 {
		return "", "", fmt.Errorf("expected one source file or -workload NAME")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fs.Arg(0), "", err
	}
	return fs.Arg(0), string(data), nil
}

// jsonDiag is the machine-readable rendering of one diagnostic.
type jsonDiag struct {
	Severity string     `json:"severity"`
	File     string     `json:"file"`
	Line     int        `json:"line"`
	Col      int        `json:"col"`
	Message  string     `json:"message"`
	Notes    []jsonNote `json:"notes,omitempty"`
}

type jsonNote struct {
	File    string `json:"file"`
	Span    string `json:"span"`
	Message string `json:"message"`
}

func writeJSON(w io.Writer, diags *source.DiagList) error {
	out := make([]jsonDiag, 0, len(diags.Diags))
	for i := range diags.Diags {
		d := &diags.Diags[i]
		jd := jsonDiag{
			Severity: d.Sev.String(),
			File:     d.File,
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Message:  d.Msg,
		}
		for _, n := range d.Notes {
			span := n.Span.String()
			if !n.Span.End.IsValid() {
				span = n.Span.Start.String()
			}
			jd.Notes = append(jd.Notes, jsonNote{File: n.File, Span: span, Message: n.Msg})
		}
		out = append(out, jd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
