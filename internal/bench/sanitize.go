package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/builtins"
	"repro/internal/pipeline"
	"repro/internal/sanitize"
	"repro/internal/transform"
	"repro/internal/vm/des"
	"repro/internal/vm/exec"
	"repro/internal/workloads"
)

// SanitizeCell is one workload × transform × sync cell of the campaign.
type SanitizeCell struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Schedule string `json:"schedule"`
	Sync     string `json:"sync"`
	Threads  int    `json:"threads"`

	VirtualTime int64 `json:"virtual_time"`
	// VTimeMatch asserts the zero-cost property: the sanitized runs'
	// virtual times are bit-for-bit identical to the plain run's.
	VTimeMatch bool `json:"vtime_match"`

	Races      []sanitize.RaceReport  `json:"races,omitempty"`
	Candidates int                    `json:"candidates"`
	Pairs      []sanitize.PairVerdict `json:"pairs,omitempty"`
	Verified   int                    `json:"verified"`
	Violations int                    `json:"violations"`
	Clean      bool                   `json:"clean"`
}

// SanitizeNegative is one seeded-misannotation negative: a program whose
// annotation lies, which the sanitizer must refute with a concrete
// counterexample. Corpus negatives run sequentially under VerifyAll; the
// embedded parallel negative runs DOALL through detect + capture.
type SanitizeNegative struct {
	Name       string                 `json:"name"`
	Mode       string                 `json:"mode"` // verify-all | parallel
	Pairs      []sanitize.PairVerdict `json:"pairs,omitempty"`
	Violations int                    `json:"violations"`
	Flagged    bool                   `json:"flagged"`
}

// SanitizeReport is the machine-readable campaign result
// (BENCH_sanitize.json).
type SanitizeReport struct {
	Threads             int                `json:"threads"`
	Cells               []SanitizeCell     `json:"cells"`
	Negatives           []SanitizeNegative `json:"negatives"`
	CleanCells          int                `json:"clean_cells"`
	TotalCells          int                `json:"total_cells"`
	AllClean            bool               `json:"all_clean"`
	AllNegativesFlagged bool               `json:"all_negatives_flagged"`
	VTimeBitForBit      bool               `json:"vtime_bit_for_bit"`
}

// parallelNegativeSrc is the embedded parallel misannotation negative:
// two blocks share NSET, each commutes with its own instances (the
// per-block SELF sets), but g+1 and g*2 do not commute with each other —
// the NSET membership is a lie the static verifier refutes symbolically
// and the sanitizer must refute concretely from a parallel run.
const parallelNegativeSrc = `#pragma commset decl NSET

int g;

void main() {
	g = 1;
	for (int i = 0; i < 16; i++) {
		#pragma commset member NSET, SELF
		{
			g = g + 1;
		}
		#pragma commset member NSET, SELF
		{
			g = g * 2;
		}
	}
	print_int(g);
}
`

// SanitizeCampaign sweeps every workload × applicable transform × sync
// mode under the two-phase sanitizer, asserting each cell runs clean and
// that virtual time is untouched; then it runs every seeded
// misannotation negative (the refutes corpus plus the embedded parallel
// negative) and asserts each is flagged with a concrete counterexample.
// Smoke restricts the sweep to each workload's primary variant;
// transforms and sync modes are always swept in full, since sanitizer
// cleanliness per cell is the gate.
func SanitizeCampaign(w io.Writer, opts CampaignOptions) (*SanitizeReport, error) {
	threads := opts.Threads
	rep := &SanitizeReport{Threads: threads, AllClean: true, AllNegativesFlagged: true, VTimeBitForBit: true}

	fmt.Fprintf(w, "Sanitizer campaign (%d threads): workloads × transforms × sync modes\n", threads)
	fmt.Fprintf(w, "  %-10s %-8s %-8s %-6s %12s %6s %6s %6s %6s  %s\n",
		"workload", "variant", "sched", "sync", "vtime", "races", "cand", "verif", "viol", "status")

	// Compile every swept variant, then run the workload × transform × sync
	// cells concurrently under -hostpar: each cell owns its fresh worlds
	// and monitors and shares only read-only compile artifacts. Cells are
	// replayed in submission order, so the table and JSON report are
	// byte-identical to a sequential run.
	type compileSpec struct {
		wl      *workloads.Workload
		variant string
	}
	var toCompile []compileSpec
	for _, wl := range workloads.All() {
		variants := wl.Variants
		if opts.Smoke {
			variants = variants[:1]
		}
		for _, variant := range variants {
			toCompile = append(toCompile, compileSpec{wl, variant.Name})
		}
	}
	cps := make([]*Compiled, len(toCompile))
	if err := opts.parDo(len(toCompile), func(i int) error {
		cp, err := Compile(toCompile[i].wl, toCompile[i].variant, threads)
		cps[i] = cp
		return err
	}); err != nil {
		return nil, err
	}

	type cellSpec struct {
		cp   *Compiled
		kind transform.Kind
		mode exec.SyncMode
	}
	var specs []cellSpec
	for i, tc := range toCompile {
		for _, kind := range parallelKinds {
			if cps[i].Schedule(kind) == nil {
				continue
			}
			for _, mode := range tc.wl.Syncs() {
				specs = append(specs, cellSpec{cps[i], kind, mode})
			}
		}
	}
	cells := make([]*SanitizeCell, len(specs))
	if err := opts.parDo(len(specs), func(i int) error {
		cell, err := SanitizeRun(specs[i].cp, specs[i].kind, specs[i].mode, threads)
		cells[i] = cell
		return err
	}); err != nil {
		return nil, err
	}

	for _, cell := range cells {
		rep.Cells = append(rep.Cells, *cell)
		rep.TotalCells++
		if cell.Clean {
			rep.CleanCells++
		} else {
			rep.AllClean = false
		}
		if !cell.VTimeMatch {
			rep.VTimeBitForBit = false
		}
		status := "clean"
		if !cell.Clean {
			status = "DIRTY"
		}
		if !cell.VTimeMatch {
			status += " VTIME-DRIFT"
		}
		fmt.Fprintf(w, "  %-10s %-8s %-8s %-6s %12d %6d %6d %6d %6d  %s\n",
			cell.Workload, cell.Variant, cell.Schedule, cell.Sync,
			cell.VirtualTime, len(cell.Races), cell.Candidates,
			cell.Verified, cell.Violations, status)
	}

	fmt.Fprintf(w, "\nMisannotation negatives (must be flagged dynamically):\n")
	negs, err := sanitizeNegatives(opts)
	if err != nil {
		return nil, err
	}
	for _, n := range negs {
		rep.Negatives = append(rep.Negatives, n)
		if !n.Flagged {
			rep.AllNegativesFlagged = false
		}
		status := "flagged"
		if !n.Flagged {
			status = "MISSED"
		}
		fmt.Fprintf(w, "  %-28s %-10s %3d violation(s)  %s\n", n.Name, n.Mode, n.Violations, status)
	}

	fmt.Fprintf(w, "\nSummary: %d/%d cells clean, negatives flagged=%v, vtime bit-for-bit=%v\n",
		rep.CleanCells, rep.TotalCells, rep.AllNegativesFlagged, rep.VTimeBitForBit)

	if !rep.AllClean {
		return rep, fmt.Errorf("bench: sanitizer found races or commute violations in workload cells")
	}
	if !rep.VTimeBitForBit {
		return rep, fmt.Errorf("bench: sanitized run virtual time drifted from the plain run")
	}
	if !rep.AllNegativesFlagged {
		return rep, fmt.Errorf("bench: a seeded misannotation negative was not flagged dynamically")
	}
	return rep, nil
}

// SanitizeRun runs one configuration under the sanitizer and returns
// the cell: parallel kinds go through the two-phase detect/capture
// pipeline, Sequential through the VerifyAll oracle (which snapshots and
// replays every same-set member pair of the serial execution).
func SanitizeRun(cp *Compiled, kind transform.Kind, mode exec.SyncMode, threads int) (*SanitizeCell, error) {
	if kind != transform.Sequential {
		return sanitizedCell(cp, kind, mode, threads, func(c sanitize.Candidate) string {
			return fmt.Sprintf("commsetrun -workload %s -variant %s -schedule %s -sync %s -threads %d -sanitize # pair %s/%s gseq %d:%d",
				cp.WL.Name, cp.Variant, kindFlag(kind), syncFlag(mode), threads, c.FnA, c.FnB, c.GseqA, c.GseqB)
		})
	}
	vt, pairs, err := verifyAll(cp.C, freshWorld(cp.WL), func(c sanitize.Candidate) string {
		return fmt.Sprintf("commsetrun -workload %s -variant %s -schedule seq -sanitize # pair %s/%s gseq %d:%d",
			cp.WL.Name, cp.Variant, c.FnA, c.FnB, c.GseqA, c.GseqB)
	})
	if err != nil {
		return nil, fmt.Errorf("bench: sanitized sequential %s/%s: %w", cp.WL.Name, cp.Variant, err)
	}
	cell := &SanitizeCell{
		Workload: cp.WL.Name, Variant: cp.Variant,
		Schedule: transform.Sequential.String(), Sync: "-", Threads: 1,
		VirtualTime: vt,
		VTimeMatch:  vt == cp.SeqCost,
		Pairs:       pairs,
		Candidates:  len(pairs),
	}
	cell.Verified, cell.Violations = sanitize.Tally(pairs)
	cell.Clean = cell.Violations == 0
	return cell, nil
}

// verifyAll runs c sequentially on world under the VerifyAll monitor and
// returns the run's virtual time with the replay verdicts of every
// same-set member pair, each pair's repro command rendered by replay.
func verifyAll(c *pipeline.Compiled, world *builtins.World, replay func(sanitize.Candidate) string) (int64, []sanitize.PairVerdict, error) {
	mon := sanitize.New(sanitize.VerifyAll, c.Low.Prog, world)
	res, err := exec.RunSequential(exec.Config{
		Prog:     c.Low.Prog,
		Builtins: world.Fns(),
		Model:    c.Model,
		Cost:     des.DefaultCostModel(),
		Sanitize: mon,
	})
	if err != nil {
		return 0, nil, err
	}
	return res.VirtualTime, mon.VerifyPairs(replay), nil
}

// sanitizedCell runs one parallel cell three times: plain (the baseline
// virtual time), detect (races + oracle candidates), and — when
// candidates exist — capture (pre-state snapshots + both-order replay,
// each pair's repro command rendered by replay).
func sanitizedCell(cp *Compiled, kind transform.Kind, mode exec.SyncMode, threads int, replay func(sanitize.Candidate) string) (*SanitizeCell, error) {
	plain, err := cp.Run(kind, mode, threads)
	if err != nil {
		return nil, err
	}

	detectWorld := freshWorld(cp.WL)
	det := sanitize.New(sanitize.Detect, cp.C.Low.Prog, detectWorld)
	vtDetect, err := sanitizedRun(cp, kind, mode, threads, det, detectWorld)
	if err != nil {
		return nil, err
	}

	cell := &SanitizeCell{
		Workload: cp.WL.Name, Variant: cp.Variant,
		Schedule: kind.String(), Sync: mode.String(), Threads: threads,
		VirtualTime: plain.VirtualTime,
		VTimeMatch:  vtDetect == plain.VirtualTime,
		Races:       det.Races(),
		Candidates:  len(det.Candidates()),
	}

	if cands := det.Candidates(); len(cands) > 0 {
		capWorld := freshWorld(cp.WL)
		capMon := sanitize.NewCapture(cp.C.Low.Prog, capWorld, cands)
		vtCap, err := sanitizedRun(cp, kind, mode, threads, capMon, capWorld)
		if err != nil {
			return nil, err
		}
		if vtCap != plain.VirtualTime {
			cell.VTimeMatch = false
		}
		cell.Pairs = capMon.ReplayCandidates(cands, replay)
		cell.Verified, cell.Violations = sanitize.Tally(cell.Pairs)
	}
	cell.Clean = len(cell.Races) == 0 && cell.Violations == 0
	return cell, nil
}

// sanitizedRun runs one parallel cell on world with mon attached (a plain
// run when mon is nil) and returns its virtual time.
func sanitizedRun(cp *Compiled, kind transform.Kind, mode exec.SyncMode, threads int, mon *sanitize.Monitor, world *builtins.World) (int64, error) {
	cfg := exec.Config{
		Prog:     cp.C.Low.Prog,
		Builtins: world.Fns(),
		Model:    cp.C.Model,
		Cost:     des.DefaultCostModel(),
		Sanitize: mon,
	}
	res, err := exec.Run(cfg, cp.LA, cp.Schedule(kind), mode, threads)
	if err != nil {
		return 0, fmt.Errorf("bench: sanitized run %s/%s %v/%v: %w", cp.WL.Name, cp.Variant, kind, mode, err)
	}
	return res.VirtualTime, nil
}

// sanitizeNegatives runs every seeded misannotation negative: the
// refutes family of the precision corpus under VerifyAll, plus the
// embedded parallel negative through the two-phase detect/capture path.
func sanitizeNegatives(opts CampaignOptions) ([]SanitizeNegative, error) {
	var refutes []analysis.CorpusEntry
	for _, e := range analysis.Corpus() {
		if e.Refutes {
			refutes = append(refutes, e)
		}
	}
	// Each negative compiles and replays its own program; the corpus cases
	// and the embedded parallel negative run concurrently under -hostpar
	// and are collected in corpus order.
	out := make([]SanitizeNegative, len(refutes)+1)
	if err := opts.parDo(len(refutes)+1, func(i int) error {
		if i == len(refutes) {
			par, err := parallelNegative()
			if err != nil {
				return err
			}
			out[i] = *par
			return nil
		}
		e := refutes[i]
		pairs, err := VerifyAllSource(e.Name+".mc", e.Source, func(c sanitize.Candidate) string {
			return fmt.Sprintf("commsetvet -sanitize-out report.json internal/analysis/testdata/corpus/%s.mc # pair gseq %d:%d",
				e.Name, c.GseqA, c.GseqB)
		})
		if err != nil {
			return fmt.Errorf("bench: negative %s: %w", e.Name, err)
		}
		n := SanitizeNegative{Name: e.Name, Mode: "verify-all", Pairs: pairs}
		_, n.Violations = sanitize.Tally(pairs)
		n.Flagged = n.Violations > 0
		out[i] = n
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// parallelNegative runs the embedded misannotated program DOALL under
// detect + capture: its two NSET members race on the shared global, the
// monitor routes the pair to the oracle, and the replay must refute it.
func parallelNegative() (*SanitizeNegative, error) {
	cp, err := Compile(workloads.FromSource("parallel_negative.mc", parallelNegativeSrc), "comm", 4)
	if err != nil {
		return nil, err
	}
	cell, err := sanitizedCell(cp, transform.DOALL, exec.SyncSpin, 4, func(c sanitize.Candidate) string {
		return fmt.Sprintf("commsetbench -campaign sanitize # embedded parallel negative, pair gseq %d:%d", c.GseqA, c.GseqB)
	})
	if err != nil {
		return nil, err
	}
	return &SanitizeNegative{
		Name: "parallel_nset_rmw", Mode: "parallel",
		Pairs: cell.Pairs, Violations: cell.Violations, Flagged: cell.Violations > 0,
	}, nil
}

// VerifyAllSource compiles a source text and runs it sequentially under
// the VerifyAll monitor, returning the replay verdicts for every
// same-set member pair. This is the engine behind corpus negatives and
// commsetvet's -sanitize-out.
func VerifyAllSource(name, src string, replayCmd func(sanitize.Candidate) string) ([]sanitize.PairVerdict, error) {
	c, err := compileVetSource(name, src)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	_, pairs, err := verifyAll(c, builtins.NewWorld(), replayCmd)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", name, err)
	}
	return pairs, nil
}

func kindFlag(k transform.Kind) string {
	switch k {
	case transform.DOALL:
		return "doall"
	case transform.DSWP:
		return "dswp"
	case transform.PSDSWP:
		return "psdswp"
	}
	return strings.ToLower(k.String())
}

func syncFlag(m exec.SyncMode) string { return strings.ToLower(m.String()) }
