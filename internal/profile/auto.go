package profile

import "repro/internal/transform"

// TuneCandidates enumerates the tuning configurations the auto-scheduler
// calibrates for one schedule kind. The zero tuning (the paper's fixed
// policies) is always first, so a workload the fixed policy already
// serves best can never be tuned into a regression — the calibration
// only replaces it when a candidate's slice is strictly faster.
//
// The set is deliberately small: each candidate costs one calibration
// slice. Chunking fights imbalance, privatization fights
// commutative-update contention and batching fights per-token queue
// overhead. DOALL calibrates chunking and privatization one at a time:
// of the 544 cells of the schedule campaign, none picks the two together
// or work stealing, which repairs stragglers that a calibration slice
// does not have.
func TuneCandidates(kind transform.Kind, threads int) []transform.Tuning {
	switch kind {
	case transform.DOALL:
		chunk := 4
		if threads > 4 {
			chunk = 8
		}
		return []transform.Tuning{
			{}, // static round-robin, shared updates
			{Chunk: chunk},
			{Privatize: true},
		}
	case transform.DSWP, transform.PSDSWP:
		return []transform.Tuning{
			{}, // per-token queues
			{Batch: 4},
			{Batch: 8},
			{Batch: 16},
		}
	}
	return []transform.Tuning{{}}
}
