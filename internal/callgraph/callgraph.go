// Package callgraph builds the program call graph over IR functions and
// answers the transitive-call queries needed by the COMMSET well-formedness
// checks (paper Section 3.1): no transitive calls between members of one
// set, and an acyclic COMMSET graph.
package callgraph

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Graph is a program call graph. Builtin callees appear as leaf nodes.
type Graph struct {
	// Callees maps each function to the functions and builtins it calls
	// directly, deduplicated and sorted.
	Callees map[string][]string

	// reach caches transitive reachability.
	reach map[string]map[string]bool
}

// Build constructs the call graph of prog.
func Build(prog *ir.Program) *Graph {
	g := &Graph{Callees: map[string][]string{}, reach: map[string]map[string]bool{}}
	for _, name := range prog.Order {
		f := prog.Funcs[name]
		seen := map[string]bool{}
		var callees []string
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && !seen[in.Name] {
					seen[in.Name] = true
					callees = append(callees, in.Name)
				}
			}
		}
		sort.Strings(callees)
		g.Callees[name] = callees
	}
	return g
}

// reachable computes the transitive callee set of from (excluding from
// itself unless it is recursive).
func (g *Graph) reachable(from string) map[string]bool {
	if r, ok := g.reach[from]; ok {
		return r
	}
	r := map[string]bool{}
	var stack []string
	stack = append(stack, g.Callees[from]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r[n] {
			continue
		}
		r[n] = true
		stack = append(stack, g.Callees[n]...)
	}
	g.reach[from] = r
	return r
}

// Calls reports whether from transitively calls to.
func (g *Graph) Calls(from, to string) bool {
	return g.reachable(from)[to]
}

// Recursive reports whether fn can transitively call itself.
func (g *Graph) Recursive(fn string) bool { return g.Calls(fn, fn) }

// SCCs returns the strongly connected components of the call graph
// restricted to the given function universe (builtin leaves and unknown
// callees are skipped), in reverse topological order: every component is
// emitted after all components it calls into. Summary-based analyses
// process components in this order so callee summaries are final before
// callers read them, and iterate to a fixed point only within a component
// (mutual recursion).
//
// The components come from cfg.SCCs (Tarjan's algorithm, iterative so
// deep call chains cannot overflow the Go stack), seeded in sorted name
// order for determinism.
func (g *Graph) SCCs(funcs map[string]bool) [][]string {
	names := make([]string, 0, len(funcs))
	for n := range funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	succs := make([][]int, len(names))
	for i, n := range names {
		for _, c := range g.Callees[n] {
			if funcs[c] {
				succs[i] = append(succs[i], index[c])
			}
		}
	}
	comps := cfg.SCCs(succs)
	sccs := make([][]string, len(comps))
	for ci, comp := range comps {
		sccs[ci] = make([]string, len(comp))
		for i, v := range comp {
			sccs[ci][i] = names[v]
		}
		sort.Strings(sccs[ci])
	}
	return sccs
}
