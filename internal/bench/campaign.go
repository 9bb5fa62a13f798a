package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// A campaign is a gated sweep: it runs its cells, prints a table, and
// returns a machine-readable report together with the error of any gate
// the sweep violated. Campaigns lists them; RunCampaign runs one and
// writes its report to BENCH_<name>.json.

// CampaignOptions configures every campaign.
type CampaignOptions struct {
	// Threads is the simulated thread count (RunCampaign defaults it to 8).
	Threads int
	// Seed seeds fault plans, arrival traces and straggler plans
	// (RunCampaign defaults it to 1).
	Seed uint64
	// Smoke restricts each campaign to its CI-sized sweep.
	Smoke bool
	// Workers is the number of host goroutines that run independent cells
	// concurrently (the -hostpar flag); zero or one runs them sequentially.
	// Cells are deterministic per seed, share only read-only compile
	// artifacts, and are collected in submission order, so the worker
	// count never changes a report.
	Workers int
}

// Campaign is one entry of Campaigns. Run prints the campaign's table to
// out and returns its report and gate error; RunCampaign hands it options
// with Threads and Seed already defaulted.
type Campaign struct {
	Name string
	Run  func(out io.Writer, o CampaignOptions) (report any, err error)
}

// Campaigns lists every campaign, in the order commsetbench -campaign all
// runs them.
var Campaigns = []Campaign{
	{"precision", report(func(out io.Writer, o CampaignOptions) (*PrecisionReport, error) {
		return VetPrecision(out, o.Threads)
	})},
	{"schedule", report(ScheduleCampaign)},
	{"faults", report(FaultCampaign)},
	{"service", report(ServiceCampaign)},
	{"sanitize", report(SanitizeCampaign)},
	{"steal", report(StealCampaign)},
}

// report adapts a campaign with a typed report to Campaign.Run, keeping a
// nil report (the campaign could not run at all) a nil interface.
func report[R any](run func(io.Writer, CampaignOptions) (*R, error)) func(io.Writer, CampaignOptions) (any, error) {
	return func(out io.Writer, o CampaignOptions) (any, error) {
		rep, err := run(out, o)
		if rep == nil {
			return nil, err
		}
		return rep, err
	}
}

// RunCampaign runs c with o's zero Threads and Seed defaulted, writes its
// report to dir/BENCH_<name>.json, and then returns the campaign's error:
// a violated gate still leaves the report that shows why.
func RunCampaign(out io.Writer, dir string, c Campaign, o CampaignOptions) error {
	if o.Threads <= 0 {
		o.Threads = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	rep, err := c.Run(out, o)
	if rep == nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+c.Name+".json")
	if werr := WriteJSON(path, rep); werr != nil {
		return errors.Join(err, fmt.Errorf("bench: %s report: %w", c.Name, werr))
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return err
}

// WriteJSON writes v to path as two-space-indented JSON with a trailing
// newline, the form of every report file: the campaign reports and the
// sanitizer reports of commsetrun and commsetvet.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parDo runs fn(i) for every i in [0, n) on o.Workers goroutines and
// returns the first error in index order. fn must be safe to call
// concurrently with distinct indices; with one worker everything runs
// sequentially on the calling goroutine.
func (o CampaignOptions) parDo(n int, fn func(i int) error) error {
	errs := make([]error, n)
	workers := min(o.Workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTwice is the determinism gate of seeded cells: it runs the cell, runs
// it again, and returns the first result with an error unless both runs
// succeed and marshal to the same JSON.
func runTwice[R any](run func() (R, error)) (R, error) {
	first, err := run()
	if err != nil {
		return first, err
	}
	second, err := run()
	if err != nil {
		return first, fmt.Errorf("determinism rerun failed: %w", err)
	}
	a, errA := json.Marshal(first)
	b, errB := json.Marshal(second)
	if err := errors.Join(errA, errB); err != nil {
		return first, fmt.Errorf("determinism check: %w", err)
	}
	if !bytes.Equal(a, b) {
		return first, errors.New("not deterministic: the rerun under the same seed diverged")
	}
	return first, nil
}
