package pdg

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the PDG in a compact textual form (the Figure 2 dump):
// one line per node, then one line per edge with kind, loop-carried flag,
// cause, and commutativity annotation.
func (p *PDG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PDG %s loop@b%d (%d nodes, %d edges)\n", p.F.Name, p.Loop.Header, len(p.Nodes), len(p.Edges))
	for _, id := range p.Nodes {
		fmt.Fprintf(&b, "  n%-4d b%-3d %s\n", id, p.BlockOf[id], p.Instrs[id])
	}
	edges := make([]*Edge, len(p.Edges))
	copy(edges, p.Edges)
	sort.Slice(edges, func(i, j int) bool {
		a, c := edges[i], edges[j]
		if a.From != c.From {
			return a.From < c.From
		}
		if a.To != c.To {
			return a.To < c.To
		}
		if a.Kind != c.Kind {
			return a.Kind < c.Kind
		}
		if a.Loc != c.Loc {
			return a.Loc < c.Loc
		}
		// The key is total: addEdge keeps one edge per (From, To, Kind,
		// LoopCarried, Loc).
		return !a.LoopCarried && c.LoopCarried
	})
	for _, e := range edges {
		lc := " "
		if e.LoopCarried {
			lc = "LC"
		}
		iv := ""
		if e.IVSlot {
			iv = " iv"
		}
		fmt.Fprintf(&b, "  n%d -> n%d  %-7s %-2s %-4s %s%s\n", e.From, e.To, e.Kind, lc, e.Comm, e.Loc, iv)
	}
	return b.String()
}
