package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/workloads"
)

// VetPrecision is the analyzer's precision-and-recall gate: it runs every
// check over the benchmark workloads and the seeded precision corpus
// (internal/analysis/testdata/corpus), counts diagnostics per check, and
// fails when a seeded true positive is no longer reported, a resolved
// false positive reappears, or a workload's published annotations draw a
// warning. The per-check counts are the CI artifact that makes precision
// drift visible across commits.

// CheckCounts tallies diagnostics of one analyzer check by severity, with
// the accumulated wall-clock time the check spent across all runs.
type CheckCounts struct {
	Errors   int     `json:"errors"`
	Warnings int     `json:"warnings"`
	Notes    int     `json:"notes"`
	TimeMS   float64 `json:"time_ms"`
}

func (c *CheckCounts) add(d *source.Diagnostic) {
	switch d.Sev {
	case source.SevError:
		c.Errors++
	case source.SevWarning:
		c.Warnings++
	default:
		c.Notes++
	}
}

// PrecisionReport is the report behind BENCH_precision.json.
type PrecisionReport struct {
	Workloads     int `json:"workloads"`
	CorpusEntries int `json:"corpus_entries"`
	// TruePositives / FalsePositivesHeld count corpus expectations that
	// held: seeded findings still reported, resolved false positives still
	// absent.
	TruePositives      int `json:"true_positives"`
	FalsePositivesHeld int `json:"false_positives_held"`
	// CommutesHeld / RefutesHeld count the commutativity verifier's pins
	// that held: vet:commutes entries that still verify under both orders,
	// vet:refutes entries still refuted with a counterexample. The CI
	// precision job fails on any regression of either.
	CommutesHeld int `json:"commutes_held"`
	RefutesHeld  int `json:"refutes_held"`
	// Per-check diagnostic counts over the corpus and over the workload
	// variants, keyed by check name (unsound, race, lint, commute).
	Corpus   map[string]*CheckCounts `json:"corpus"`
	Workload map[string]*CheckCounts `json:"workload"`
	// CannotDecide counts the commute verifier's cannot-decide warnings
	// (the dynamic sanitizer's discharge targets), keyed by
	// workload/variant — every variant is listed, zero or not — and by
	// corpus entry name for entries that drew at least one.
	CannotDecide map[string]int `json:"commute_cannot_decide"`
	Violations   []string       `json:"violations,omitempty"`
}

// isCannotDecide reports whether a diagnostic is a commute-unverified
// warning the verifier bailed on (as opposed to a concrete refutation).
func isCannotDecide(d *source.Diagnostic) bool {
	return d.Sev == source.SevWarning && strings.Contains(d.Msg, "commute-unverified: cannot decide")
}

// precisionChecks enumerates the analyzer passes in report order.
var precisionChecks = []struct {
	name   string
	checks analysis.Checks
}{
	{"unsound", analysis.Checks{Unsound: true}},
	{"race", analysis.Checks{Race: true}},
	{"lint", analysis.Checks{Lint: true}},
	{"commute", analysis.Checks{Commute: true}},
}

// VetPrecision runs the precision gate, prints a summary to out, and
// returns the report. The error is non-nil when any expectation is
// violated.
func VetPrecision(out io.Writer, threads int) (*PrecisionReport, error) {
	rep := &PrecisionReport{
		Corpus:       map[string]*CheckCounts{},
		Workload:     map[string]*CheckCounts{},
		CannotDecide: map[string]int{},
	}
	for _, pc := range precisionChecks {
		rep.Corpus[pc.name] = &CheckCounts{}
		rep.Workload[pc.name] = &CheckCounts{}
	}

	// Corpus: every entry's expectations must hold against the combined
	// diagnostics; each pass's diagnostics are also counted separately.
	for _, e := range analysis.Corpus() {
		e := e
		c, err := compileVetSource(e.Name+".mc", e.Source)
		if err != nil {
			return nil, fmt.Errorf("bench: precision: compile %s: %w", e.Name, err)
		}
		all := &source.DiagList{}
		for _, pc := range precisionChecks {
			start := time.Now()
			diags, err := analysis.Run(c, analysis.Options{Checks: pc.checks, Threads: threads, Privatize: e.Privatize})
			rep.Corpus[pc.name].TimeMS += float64(time.Since(start)) / float64(time.Millisecond)
			if err != nil {
				return nil, fmt.Errorf("bench: precision: %s [%s]: %w", e.Name, pc.name, err)
			}
			for i := range diags.Diags {
				rep.Corpus[pc.name].add(&diags.Diags[i])
				if isCannotDecide(&diags.Diags[i]) {
					rep.CannotDecide[e.Name]++
				}
			}
			all.Diags = append(all.Diags, diags.Diags...)
		}
		all.Sort()
		rep.CorpusEntries++
		if bad := e.CheckCorpus(all); len(bad) > 0 {
			rep.Violations = append(rep.Violations, bad...)
		} else {
			rep.TruePositives += len(e.Expect)
			rep.FalsePositivesHeld += len(e.Forbid)
			if e.Clean && len(e.Forbid) == 0 {
				rep.FalsePositivesHeld++
			}
			if e.Commutes {
				rep.CommutesHeld++
			}
			if e.Refutes {
				rep.RefutesHeld++
			}
		}
	}

	// Workloads: the published annotations must stay warning-free under
	// every pass; notes are counted but allowed.
	for _, wl := range workloads.All() {
		rep.Workloads++
		for _, variant := range wl.Variants {
			wlKey := fmt.Sprintf("%s/%s", wl.Name, variant.Name)
			rep.CannotDecide[wlKey] = 0
			c, err := compileVetSource(fmt.Sprintf("%s[%s]", wl.Name, variant.Name), variant.Source)
			if err != nil {
				return nil, fmt.Errorf("bench: precision: compile %s/%s: %w", wl.Name, variant.Name, err)
			}
			for _, pc := range precisionChecks {
				start := time.Now()
				diags, err := analysis.Run(c, analysis.Options{Checks: pc.checks, Threads: threads})
				rep.Workload[pc.name].TimeMS += float64(time.Since(start)) / float64(time.Millisecond)
				if err != nil {
					return nil, fmt.Errorf("bench: precision: %s/%s [%s]: %w", wl.Name, variant.Name, pc.name, err)
				}
				for i := range diags.Diags {
					d := &diags.Diags[i]
					rep.Workload[pc.name].add(d)
					if isCannotDecide(d) {
						rep.CannotDecide[wlKey]++
					}
					if d.Sev >= source.SevWarning {
						rep.Violations = append(rep.Violations, fmt.Sprintf(
							"%s/%s [%s]: workload annotation drew %s: %s",
							wl.Name, variant.Name, pc.name, d.Sev, d.Msg))
					}
				}
			}
		}
	}
	sort.Strings(rep.Violations)

	fmt.Fprintf(out, "vet precision: %d corpus entries, %d workloads\n", rep.CorpusEntries, rep.Workloads)
	for _, pc := range precisionChecks {
		cc, wc := rep.Corpus[pc.name], rep.Workload[pc.name]
		fmt.Fprintf(out, "  %-8s corpus %3dE %3dW %3dN %7.1fms   workloads %3dE %3dW %3dN %7.1fms\n",
			pc.name, cc.Errors, cc.Warnings, cc.Notes, cc.TimeMS, wc.Errors, wc.Warnings, wc.Notes, wc.TimeMS)
	}
	fmt.Fprintf(out, "  %d true positives held, %d false positives held off\n",
		rep.TruePositives, rep.FalsePositivesHeld)
	fmt.Fprintf(out, "  %d commutes pins verified, %d refutes pins flagged\n",
		rep.CommutesHeld, rep.RefutesHeld)
	var cdTotal int
	var cdKeys []string
	for k, n := range rep.CannotDecide {
		if n > 0 {
			cdTotal += n
			cdKeys = append(cdKeys, fmt.Sprintf("%s:%d", k, n))
		}
	}
	sort.Strings(cdKeys)
	fmt.Fprintf(out, "  %d commute cannot-decide warnings (discharge targets)", cdTotal)
	if len(cdKeys) > 0 {
		fmt.Fprintf(out, ": %s", strings.Join(cdKeys, ", "))
	}
	fmt.Fprintln(out)

	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("bench: precision gate failed:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
	return rep, nil
}

// compileVetSource compiles one source against the standard substrate.
func compileVetSource(name, src string) (*pipeline.Compiled, error) {
	w := builtins.NewWorld()
	return pipeline.Compile(pipeline.Options{
		File:    source.NewFile(name, src),
		Sigs:    w.Sigs(),
		Effects: w.EffectTable(),
	})
}
