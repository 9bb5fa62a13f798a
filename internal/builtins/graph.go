package builtins

import (
	"repro/internal/ast"
	"repro/internal/effects"
	"repro/internal/vm/value"
)

// em3d substrate: a bipartite graph built over a linked list of nodes. The
// outer loop of the paper's graph construction walks the list (pointer
// chasing — no DOALL) while the body picks random neighbors through the
// shared-seed RNG and performs per-node initialization work.

// BuildNodeList installs n nodes linked in order; node handles are 1-based
// (0 is the null pointer).
func (w *World) BuildNodeList(n int) {
	w.nodes = make([]emNode, n)
	for i := range w.nodes {
		next := int64(i + 2)
		if i == n-1 {
			next = 0
		}
		w.nodes[i].next = next
	}
}

func (w *World) node(h int64) (*emNode, error) {
	if h <= 0 || h > int64(len(w.nodes)) {
		return nil, errArg("node", "bad node handle")
	}
	return &w.nodes[h-1], nil
}

// GraphDegrees returns the neighbor count per node (validators check
// structure without depending on RNG order).
func (w *World) GraphDegrees() []int {
	out := make([]int, len(w.nodes))
	for i := range w.nodes {
		out[i] = len(w.nodes[i].neighbors)
	}
	return out
}

func registerGraph() {
	register("ll_head", nil, ast.TInt, effects.Decl{Reads: []effects.Loc{effects.TagLoc("graph.list")}},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			if len(w.nodes) == 0 {
				return value.Int(0), 20, nil
			}
			return value.Int(1), 20, nil
		})
	register("ll_next", []ast.Type{ast.TInt}, ast.TInt, effects.Decl{Reads: []effects.Loc{effects.TagLoc("graph.list")}},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			n, err := w.node(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			// Pointer chasing cost: a dependent cache miss.
			return value.Int(n.next), 90, nil
		})
	// node_init performs the per-node field initialization (heavy).
	register("node_init", []ast.Type{ast.TInt, ast.TInt}, ast.TInt, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			h := args[0].AsInt()
			work := args[1].AsInt()
			n, err := w.node(h)
			if err != nil {
				return value.Value{}, 0, err
			}
			acc := 1.0
			for i := int64(0); i < work; i++ {
				acc = acc*1.000000119 + float64((h+i)%7)
			}
			n.value = acc
			return value.Int(int64(acc) & 0xffff), 50 + work*3, nil
		})
	// graph_connect links node -> other (the neighbor chosen via the RNG).
	// It mutates only *node, and the construction loop visits each node
	// once, so the writes are alias-disjoint across iterations; the effect
	// declaration is empty for the same reason the paper's alias analysis
	// finds no conflict (DESIGN.md).
	register("graph_connect", []ast.Type{ast.TInt, ast.TInt}, ast.TVoid, effects.Decl{},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			n, err := w.node(args[0].AsInt())
			if err != nil {
				return value.Value{}, 0, err
			}
			other := args[1].AsInt()
			if other <= 0 || other > int64(len(w.nodes)) {
				return value.Value{}, 0, errArg("graph_connect", "bad neighbor")
			}
			n.neighbors = append(n.neighbors, other)
			return value.Void(), 70, nil
		})
	register("graph_nodes", nil, ast.TInt, effects.Decl{Reads: []effects.Loc{effects.TagLoc("graph.list")}},
		func(w *World, args []value.Value) (value.Value, int64, error) {
			return value.Int(int64(len(w.nodes))), 10, nil
		})
}
