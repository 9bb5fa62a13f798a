// Package workloads defines the eight benchmark programs of the paper's
// evaluation (Table 2), rewritten in MiniC with COMMSET annotations against
// the substrate of package builtins:
//
//	md5sum     message digests of input files          (Open Src)
//	456.hmmer  biosequence analysis with HMMs          (SPEC2006)
//	geti       greedy error-tolerant itemsets          (MineBench)
//	eclat      association rule mining                 (MineBench)
//	em3d       electromagnetic wave propagation        (Olden)
//	potrace    bitmap tracing                          (Open Src)
//	kmeans     k-means clustering                      (STAMP)
//	url        URL-based packet switching              (NetBench)
//
// Each workload provides one or more source variants: the fully annotated
// program, and where the paper evaluates them, a deterministic-output
// variant with one fewer annotation (md5sum, potrace, geti) or a variant
// that pins a function to the sequential stage (hmmer's RNG, url's
// dequeue). Stripping every pragma yields the non-COMMSET baseline.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/builtins"
	"repro/internal/vm/exec"
)

// Variant is one annotated version of a workload's source.
type Variant struct {
	// Name tags the variant: "comm" is the fully annotated program,
	// "det" the deterministic-output variant, "pipe" a variant steering
	// the pipeline partition as the paper describes.
	Name   string
	Source string
}

// Workload is one benchmark program with its substrate setup and
// correctness validation.
type Workload struct {
	Name   string
	Origin string
	// MainPct is the paper-reported fraction of execution time in the
	// target loop (Table 2).
	MainPct string

	Variants []Variant

	// Setup populates a fresh substrate world deterministically.
	Setup func(w *builtins.World)

	// Validate compares a parallel run's world against the sequential
	// run's. ordered selects exact output comparison (schedules that
	// preserve sequential output order) versus multiset comparison
	// (commutative out-of-order schedules).
	Validate func(seq, par *builtins.World, ordered bool) error

	// TM reports whether transactional memory applies (false when members
	// perform I/O, as the paper notes for md5sum, geti, eclat, potrace).
	TM bool
	// LibOK reports whether the "thread-safe library" mechanism applies
	// (the members are separately compiled thread-safe library calls, as
	// in md5sum, geti, em3d, and potrace per Table 2).
	LibOK bool

	// Paper-reported results for EXPERIMENTS.md comparisons.
	PaperBest   float64
	PaperScheme string
	PaperAnnot  int
	PaperSLOC   int
	Features    string
	Transforms  string
}

// Primary returns the fully annotated source.
func (w *Workload) Primary() string { return w.Variants[0].Source }

// Variant returns the named variant source, or "".
func (w *Workload) Variant(name string) string {
	for _, v := range w.Variants {
		if v.Name == name {
			return v.Source
		}
	}
	return ""
}

// Annotations counts the COMMSET pragma lines in the primary source —
// Table 2's "# COMMSET Annotations" column.
func (w *Workload) Annotations() int {
	n := 0
	for _, line := range strings.Split(w.Primary(), "\n") {
		if strings.Contains(line, "#pragma commset") {
			n++
		}
	}
	return n
}

// SLOC counts non-blank source lines of the primary source.
func (w *Workload) SLOC() int {
	n := 0
	for _, line := range strings.Split(w.Primary(), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// StripPragmas removes every COMMSET pragma line, producing the sequential
// non-COMMSET program (eliding pragmas yields valid MiniC, Section 3.2).
func StripPragmas(src string) string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "#pragma commset") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// All returns every workload in Table 2 order.
func All() []*Workload {
	return []*Workload{
		Md5sum(), Hmmer(), Geti(), Eclat(), Em3d(), Potrace(), Kmeans(), URL(),
	}
}

// Names lists every workload's name in Table 2 order.
func Names() []string {
	var names []string
	for _, w := range All() {
		names = append(names, w.Name)
	}
	return names
}

// FromSource wraps a program read from a file as a workload: its one
// "comm" variant runs on an empty substrate, with no output validation.
func FromSource(name, src string) *Workload {
	return &Workload{
		Name:     name,
		Variants: []Variant{{Name: "comm", Source: src}},
		Setup:    func(*builtins.World) {},
		Validate: func(seq, par *builtins.World, ordered bool) error { return nil },
	}
}

// Syncs returns the synchronization mechanisms applicable to the workload.
func (w *Workload) Syncs() []exec.SyncMode {
	out := []exec.SyncMode{exec.SyncMutex, exec.SyncSpin}
	if w.TM {
		out = append(out, exec.SyncTM)
	}
	if w.LibOK {
		out = append(out, exec.SyncLib)
	}
	return out
}

// ByName finds a workload.
func ByName(name string) *Workload {
	for _, w := range All() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// --- validation helpers ---

// cmpLines compares two output slices exactly or as multisets.
func cmpLines(what string, seq, par []string, ordered bool) error {
	if len(seq) != len(par) {
		return fmt.Errorf("%s: %d lines sequentially vs %d parallel", what, len(seq), len(par))
	}
	a := append([]string(nil), seq...)
	b := append([]string(nil), par...)
	if !ordered {
		sort.Strings(a)
		sort.Strings(b)
	}
	for i := range a {
		if a[i] != b[i] {
			mode := "multiset"
			if ordered {
				mode = "ordered"
			}
			return fmt.Errorf("%s (%s): line %d differs: %q vs %q", what, mode, i, a[i], b[i])
		}
	}
	return nil
}
