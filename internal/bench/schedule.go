package bench

import (
	"fmt"
	"io"
)

// ScheduleReport is the machine-readable summary behind
// BENCH_schedule.json: the geomean speedups and, per workload, the best
// scheme with its executed schedule (including any auto-selected tuning)
// plus every measured series. CI uploads it as an artifact so scheduling
// regressions show up as a diff, not a rerun.
type ScheduleReport struct {
	Threads int  `json:"threads"`
	Auto    bool `json:"auto"`

	// Geomeans at the max thread count, over the best COMMSET and best
	// non-COMMSET scheme of each workload (Figure 6(i)).
	GeomeanCommset    float64 `json:"geomean_best_commset"`
	GeomeanNonCommset float64 `json:"geomean_best_non_commset"`

	Workloads []WorkloadReport `json:"workloads"`
}

// WorkloadReport summarizes one subfigure.
type WorkloadReport struct {
	Name      string         `json:"name"`
	PaperBest float64        `json:"paper_best"`
	Best      SeriesReport   `json:"best"`
	Series    []SeriesReport `json:"series"`
}

// SeriesReport is one measured scheme.
type SeriesReport struct {
	Label    string    `json:"label"`
	Schedule string    `json:"schedule"`
	Speedup  float64   `json:"speedup"` // at the report's thread count
	Speedups []float64 `json:"speedups,omitempty"`
}

// ScheduleCampaign measures every Figure 6 cell under the profile-guided
// auto-scheduler and reports the executed schedules and speedups. Every
// run is validated against the sequential reference. The campaign has one
// size, so it ignores Smoke.
func ScheduleCampaign(out io.Writer, opts CampaignOptions) (*ScheduleReport, error) {
	figs, err := PrintFigure6(io.Discard, opts.Threads, true)
	if err != nil {
		return nil, err
	}
	rep := &ScheduleReport{Threads: opts.Threads, Auto: true}
	rep.GeomeanCommset, rep.GeomeanNonCommset = GeoPairAt(figs, opts.Threads)
	for _, f := range figs {
		wr := WorkloadReport{Name: f.WL.Name, PaperBest: f.WL.PaperBest}
		for _, s := range f.Series {
			sr := SeriesReport{
				Label:    s.Label,
				Schedule: s.Schedule,
				Speedup:  s.At(opts.Threads),
				Speedups: s.Speedups,
			}
			wr.Series = append(wr.Series, sr)
			if sr.Speedup > wr.Best.Speedup {
				best := sr
				best.Speedups = nil
				wr.Best = best
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	fmt.Fprintf(out, "Schedule campaign: %d workloads auto-scheduled at %d threads, geomean best COMMSET %.2fx, best non-COMMSET %.2fx\n",
		len(rep.Workloads), opts.Threads, rep.GeomeanCommset, rep.GeomeanNonCommset)
	return rep, nil
}
