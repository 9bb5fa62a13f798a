package transform

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/pipeline"
)

// sccResult is the unit-level DAG of strongly connected components.
type sccResult struct {
	comps   [][]int // unit lists (may include ControlUnit), topo order
	weights []int64
}

// unitSCCs computes SCCs over the unit graph. For component formation an
// implicit loop-carried dispatch edge control→u is added for every unit:
// the next iteration of any unit awaits the loop control's decision. Units
// with dependences into control therefore collapse into the control
// component (e.g. pointer-chasing traversals), which is exactly the
// paper's em3d behaviour: the traversal shares the sequential first stage.
//
// Nodes are indexed by unit+1, so the control pseudo-unit is node 0.
func (g *UnitGraph) unitSCCs() *sccResult {
	n := g.NumUnits + 1
	adj := make([][]int, n)
	adj[0] = make([]int, 0, g.NumUnits)
	for u := 0; u < g.NumUnits; u++ {
		adj[0] = append(adj[0], u+1)
		for _, tos := range [][]int{g.Intra[u], g.LC[u]} {
			for _, to := range tos {
				adj[u+1] = append(adj[u+1], to+1)
			}
		}
	}

	comps := cfg.SCCs(adj)
	for _, comp := range comps {
		for i := range comp {
			comp[i]-- // node index to unit
		}
		sort.Ints(comp)
	}
	// Tarjan emits components in reverse topological order; re-order them
	// with Kahn's algorithm using the smallest unit index as tie-break, so
	// that units with no dependence between them keep their source order
	// across pipeline stages (sequential semantics for unordered pairs).
	comps = stableTopo(comps, adj)

	res := &sccResult{comps: comps, weights: make([]int64, len(comps))}
	for ci, comp := range comps {
		for _, u := range comp {
			if u == ControlUnit {
				res.weights[ci] += g.ControlWeight
			} else {
				res.weights[ci] += g.Weights[u]
			}
		}
	}
	// Stable order: the control component first among orderings that
	// respect the DAG (Tarjan already guarantees a topological order; the
	// control component is a source because of the dispatch edges).
	return res
}

// stableTopo orders components topologically, breaking ties by the
// smallest contained unit index (the control pseudo-unit −1 first). adj is
// unitSCCs' adjacency over unit+1 node indices.
func stableTopo(comps [][]int, adj [][]int) [][]int {
	n := len(comps)
	compOf := make([]int, len(adj))
	for ci, comp := range comps {
		for _, u := range comp {
			compOf[u+1] = ci
		}
	}
	indeg := make([]int, n)
	succs := make([][]int, n)
	linked := make([]bool, n*n)
	for from, tos := range adj {
		for _, to := range tos {
			cf, ct := compOf[from], compOf[to]
			if cf == ct || linked[cf*n+ct] {
				continue
			}
			linked[cf*n+ct] = true
			succs[cf] = append(succs[cf], ct)
			indeg[ct]++
		}
	}
	minUnit := make([]int, n)
	for ci, comp := range comps {
		minUnit[ci] = comp[0] // comps are sorted ascending
	}
	order := make([][]int, 0, n)
	done := make([]bool, n)
	for len(order) < n {
		best := -1
		for ci := 0; ci < n; ci++ {
			if done[ci] || indeg[ci] > 0 {
				continue
			}
			if best == -1 || minUnit[ci] < minUnit[best] {
				best = ci
			}
		}
		if best == -1 {
			// Cycle across components cannot happen post-SCC; bail safely.
			for ci := 0; ci < n; ci++ {
				if !done[ci] {
					best = ci
					break
				}
			}
		}
		done[best] = true
		order = append(order, comps[best])
		for _, s := range succs[best] {
			indeg[s]--
		}
	}
	return order
}

// replicable reports whether a component can be replicated across threads:
// a component with no loop-carried dependence among its units ("no loop
// carried SCCs", Section 4.5). The control component is never replicable.
func (g *UnitGraph) replicable(comp []int) bool {
	for _, u := range comp {
		if u == ControlUnit {
			return false
		}
		for _, to := range g.LC[u] {
			if containsUnit(comp, to) || to == u {
				return false
			}
		}
	}
	return true
}

func containsUnit(comp []int, u int) bool {
	for _, x := range comp {
		if x == u {
			return true
		}
	}
	return false
}

// ApplyDOALL returns a DOALL schedule when every inter-iteration dependence
// has been removed or privatized, and nil otherwise (the paper's "tests the
// PDG for absence of inter-iteration dependencies").
func ApplyDOALL(g *UnitGraph) *Schedule {
	if g.HasLoopCarried() {
		return nil
	}
	var all []int
	for u := 0; u < g.NumUnits; u++ {
		all = append(all, u)
	}
	return &Schedule{
		Kind:        DOALL,
		Stages:      []Stage{{Units: all, Parallel: true, Weight: g.TotalWeight()}},
		SharedSlots: g.SharedSlots,
	}
}

// ApplyDSWP builds a pipeline of up to maxStages sequential stages by
// partitioning the component DAG in topological order, balancing stage
// weights using the profile (paper: "partition the DAG-SCC into a sequence
// of pipeline stages, using profile data to obtain a balanced pipeline").
// It returns nil when no pipeline of at least two stages exists.
func ApplyDSWP(g *UnitGraph, maxStages int) *Schedule {
	sccs := g.sccs
	if len(sccs.comps) < 2 || maxStages < 2 {
		return nil
	}
	nStages := maxStages
	if len(sccs.comps) < nStages {
		nStages = len(sccs.comps)
	}

	stages := balanceStages(sccs, nStages)
	if len(stages) < 2 {
		return nil
	}
	sched := &Schedule{Kind: DSWP, SharedSlots: g.SharedSlots}
	for _, comps := range stages {
		sched.Stages = append(sched.Stages, g.makeStage(sccs, comps, false))
	}
	return sched
}

// ApplyPSDSWP builds a pipeline whose heaviest run of replicable components
// becomes a parallel stage (paper: PS-DSWP "can replicate a stage with no
// loop carried SCCs to run in parallel on multiple threads"). It returns
// nil when no component is replicable.
func ApplyPSDSWP(g *UnitGraph) *Schedule {
	sccs := g.sccs
	// Find the maximal-weight consecutive run of replicable components.
	bestStart, bestEnd := -1, -1
	var bestW int64 = -1
	i := 0
	for i < len(sccs.comps) {
		if !g.replicable(sccs.comps[i]) {
			i++
			continue
		}
		j := i
		var w int64
		for j < len(sccs.comps) && g.replicable(sccs.comps[j]) {
			w += sccs.weights[j]
			j++
		}
		if w > bestW {
			bestW, bestStart, bestEnd = w, i, j
		}
		i = j
	}
	if bestStart < 0 {
		return nil
	}
	sched := &Schedule{Kind: PSDSWP, SharedSlots: g.SharedSlots}
	var pre, post []int
	for ci := 0; ci < bestStart; ci++ {
		pre = append(pre, ci)
	}
	for ci := bestEnd; ci < len(sccs.comps); ci++ {
		post = append(post, ci)
	}
	if len(pre) > 0 {
		sched.Stages = append(sched.Stages, g.makeStage(sccs, pre, false))
	}
	var par []int
	for ci := bestStart; ci < bestEnd; ci++ {
		par = append(par, ci)
	}
	sched.Stages = append(sched.Stages, g.makeStage(sccs, par, true))
	if len(post) > 0 {
		sched.Stages = append(sched.Stages, g.makeStage(sccs, post, false))
	}
	if len(sched.Stages) < 2 && !sched.Stages[0].Parallel {
		return nil
	}
	return sched
}

// makeStage assembles a stage from component indices, expanding to unit
// lists (dropping the control pseudo-unit, which the dispatcher executes).
func (g *UnitGraph) makeStage(sccs *sccResult, compIdx []int, parallel bool) Stage {
	st := Stage{Parallel: parallel}
	for _, ci := range compIdx {
		st.Weight += sccs.weights[ci]
		for _, u := range sccs.comps[ci] {
			if u != ControlUnit {
				st.Units = append(st.Units, u)
			}
		}
	}
	sort.Ints(st.Units)
	return st
}

// balanceStages splits components (in topo order) into nStages groups with
// near-equal weight.
func balanceStages(sccs *sccResult, nStages int) [][]int {
	var total int64
	for _, w := range sccs.weights {
		total += w
	}
	var stages [][]int
	var cur []int
	var curW, used int64
	remainingStages := nStages
	for ci := range sccs.comps {
		cur = append(cur, ci)
		curW += sccs.weights[ci]
		remaining := total - used - curW
		remainingComps := len(sccs.comps) - ci - 1
		target := (total - used) / int64(remainingStages)
		if (curW >= target && remainingStages > 1 && remainingComps >= remainingStages-1) ||
			remainingComps == remainingStages-1 && remainingStages > 1 {
			stages = append(stages, cur)
			used += curW
			cur = nil
			curW = 0
			remainingStages--
		}
		_ = remaining
	}
	if len(cur) > 0 {
		stages = append(stages, cur)
	}
	return stages
}

// SequentialSchedule is the identity plan.
func SequentialSchedule(g *UnitGraph) *Schedule {
	var all []int
	for u := 0; u < g.NumUnits; u++ {
		all = append(all, u)
	}
	return &Schedule{
		Kind:   Sequential,
		Stages: []Stage{{Units: all, Weight: g.TotalWeight()}},
	}
}

// Estimate fills in the compiler's speedup estimate for the schedule on the
// given thread count.
func Estimate(s *Schedule, g *UnitGraph, threads int) {
	total := float64(g.TotalWeight())
	switch s.Kind {
	case Sequential:
		s.Estimate = 1
	case DOALL:
		s.Estimate = float64(threads) * 0.97
	case DSWP:
		maxW := float64(0)
		for _, st := range s.Stages {
			if float64(st.Weight) > maxW {
				maxW = float64(st.Weight)
			}
		}
		if maxW > 0 {
			s.Estimate = total / maxW
		}
	case PSDSWP:
		seqStages := 0
		var maxSeq, parW float64
		for _, st := range s.Stages {
			if st.Parallel {
				parW += float64(st.Weight)
			} else {
				seqStages++
				if float64(st.Weight) > maxSeq {
					maxSeq = float64(st.Weight)
				}
			}
		}
		parThreads := threads - seqStages
		if parThreads < 1 {
			parThreads = 1
		}
		bound := maxSeq
		if perT := parW / float64(parThreads); perT > bound {
			bound = perT
		}
		if bound > 0 {
			s.Estimate = total / bound
		}
	}
}

// Schedules generates every applicable schedule for the analyzed loop:
// Sequential always, then DOALL, DSWP, and PS-DSWP when their applicability
// tests pass. weights maps instruction IDs to profiled cost (nil = uniform).
func Schedules(la *pipeline.LoopAnalysis, weights map[int]int64, threads int) []*Schedule {
	return GraphSchedules(BuildUnitGraph(la, weights), threads)
}

// GraphSchedules is Schedules over the loop's already built unit graph g,
// for callers that also use the graph itself.
func GraphSchedules(g *UnitGraph, threads int) []*Schedule {
	out := []*Schedule{SequentialSchedule(g)}
	if irregular, why := IrregularIteration(g.La); irregular {
		out[0].Notes = append(out[0].Notes, "parallelization disabled: "+why)
		Estimate(out[0], g, threads)
		return out
	}
	if s := ApplyDOALL(g); s != nil {
		out = append(out, s)
	}
	if s := ApplyDSWP(g, threads); s != nil {
		out = append(out, s)
	}
	if s := ApplyPSDSWP(g); s != nil {
		out = append(out, s)
	}
	for _, s := range out {
		Estimate(s, g, threads)
	}
	return out
}
