// Package cfg provides control-flow-graph analyses over IR functions:
// predecessors/successors, dominators, post-dominators, and natural loop
// detection. These feed the PDG builder (control dependence via
// post-dominance) and the parallelizing transforms (loop identification,
// induction variable discovery).
//
// Everything is indexed by block ID. NewFlow computes a function's CFG,
// dominator and post-dominator trees and loop forest once; each Loop keeps
// its blocks both as an ascending list and as a block-indexed membership
// table, so loop analyses iterate and test membership without maps. SCCs
// finds the strongly connected components of any graph given as successor
// lists over dense indexes (the call graph, the unit graph).
package cfg

import (
	"slices"
	"sort"

	"repro/internal/ir"
)

// Graph caches predecessor/successor lists for one function.
type Graph struct {
	F     *ir.Func
	Succs [][]int
	Preds [][]int
}

// New builds the CFG for f.
func New(f *ir.Func) *Graph {
	n := len(f.Blocks)
	g := &Graph{F: f, Succs: make([][]int, n), Preds: make([][]int, n)}
	for _, b := range f.Blocks {
		g.Succs[b.ID] = b.Succs()
	}
	for id, succs := range g.Succs {
		for _, s := range succs {
			g.Preds[s] = append(g.Preds[s], id)
		}
	}
	return g
}

// ReachableFromEntry returns the set of block IDs reachable from the entry.
func (g *Graph) ReachableFromEntry() []bool {
	seen := make([]bool, len(g.Succs))
	var stack []int
	stack = append(stack, 0)
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[b] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// Dominators returns the immediate dominator of each block (idom[entry] ==
// entry; unreachable blocks get -1), using the Cooper–Harvey–Kennedy
// iterative algorithm.
func (g *Graph) Dominators() []int {
	n := len(g.Succs)
	order, pos := g.reversePostorder()
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Preds[b] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(idom, pos, newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// reversePostorder returns blocks reachable from entry in reverse postorder
// together with each block's position in that order.
func (g *Graph) reversePostorder() (order []int, pos []int) {
	n := len(g.Succs)
	visited := make([]bool, n)
	var post []int
	var dfs func(b int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range g.Succs[b] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	order = make([]int, len(post))
	for i := range post {
		order[i] = post[len(post)-1-i]
	}
	pos = make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range order {
		pos[b] = i
	}
	return order, pos
}

func intersect(idom, pos []int, a, b int) int {
	for a != b {
		for pos[a] > pos[b] {
			a = idom[a]
		}
		for pos[b] > pos[a] {
			b = idom[b]
		}
	}
	return a
}

// DomTree answers dominance queries over a dominator (or post-dominator)
// tree given as an immediate-dominator array. The root is the node whose
// idom is itself.
type DomTree struct {
	idom []int
	root int
}

// NewDomTree builds a dominance-query structure from Dominators output
// (root = entry block 0).
func NewDomTree(idom []int) *DomTree { return &DomTree{idom: idom, root: 0} }

// NewDomTreeP builds a query structure for PostDominators output, whose
// root is the virtual exit node (the entry with idom[n] == n).
func NewDomTreeP(ipdom []int) *DomTree {
	root := len(ipdom) - 1
	for i, d := range ipdom {
		if d == i {
			root = i
			break
		}
	}
	return &DomTree{idom: ipdom, root: root}
}

// Dominates reports whether node a dominates node b (reflexive). Nodes
// outside the tree (idom -1) are dominated only by themselves.
func (t *DomTree) Dominates(a, b int) bool {
	if a == b {
		return true
	}
	for b != t.root && b >= 0 && b < len(t.idom) && t.idom[b] != -1 {
		b = t.idom[b]
		if b == a {
			return true
		}
		if b == t.root {
			break
		}
	}
	return a == t.root && b == t.root
}

// PostDominators computes the immediate post-dominator of each block on the
// reversed CFG with a virtual exit node (index len(blocks)) joined to every
// Ret block. Blocks that cannot reach the exit get -1. The virtual exit's
// entry in the result is its own index.
func (g *Graph) PostDominators() []int {
	n := len(g.Succs)
	exit := n
	// In the reversed graph a block's successors are its CFG predecessors
	// and its predecessors its CFG successors, plus the exit edges.
	var rets []int
	isRet := make([]bool, n)
	for _, blk := range g.F.Blocks {
		if t := blk.Terminator(); t != nil && t.Op == ir.OpRet {
			rets = append(rets, blk.ID)
			isRet[blk.ID] = true
		}
	}
	rsucc := func(b int) []int {
		if b == exit {
			return rets
		}
		return g.Preds[b]
	}
	// Reverse postorder from exit over reversed edges.
	visited := make([]bool, n+1)
	order := make([]int, 0, n+1)
	var dfs func(b int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range rsucc(b) {
			if !visited[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(exit)
	slices.Reverse(order)
	pos := make([]int, n+1)
	ipdom := make([]int, n+1)
	for i := range pos {
		pos[i], ipdom[i] = -1, -1
	}
	for i, b := range order {
		pos[b] = i
	}
	ipdom[exit] = exit
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == exit {
				continue
			}
			newIdom := -1
			meet := func(p int) {
				switch {
				case ipdom[p] == -1:
				case newIdom == -1:
					newIdom = p
				default:
					newIdom = intersect(ipdom, pos, newIdom, p)
				}
			}
			for _, p := range g.Succs[b] {
				meet(p)
			}
			if isRet[b] {
				meet(exit)
			}
			if newIdom != -1 && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	return ipdom
}

// Loop describes one natural loop.
type Loop struct {
	Header int
	// Blocks lists the loop's block IDs in ascending order; In holds the
	// same set as a table indexed by block ID.
	Blocks  []int
	In      []bool
	Latches []int // blocks with back edges to the header
	Exits   []int // blocks outside the loop targeted from inside
	Depth   int   // nesting depth, 1 = outermost
	Parent  *Loop
}

// Contains reports whether block b belongs to the loop.
func (l *Loop) Contains(b int) bool { return b >= 0 && b < len(l.In) && l.In[b] }

// Flow is the control-flow context of one function, shared by every loop
// analysis of the function: the CFG, its dominator and post-dominator
// trees, and the loop forest. It is built whole by NewFlow and never
// changes afterwards, so concurrent readers need no synchronization.
type Flow struct {
	G *Graph
	// Dom and PostDom answer dominance and post-dominance queries; Ipdom
	// is the PostDominators array under PostDom.
	Dom, PostDom *DomTree
	Ipdom        []int
	// Loops is the loop forest, ordered by header block ID.
	Loops []*Loop
	// BlockOf maps each instruction ID of the function to its block ID.
	BlockOf []int
	// headed maps a block ID to the loop it heads, or nil.
	headed []*Loop
}

// NewFlow builds the control-flow context of f, whose instruction IDs must
// be dense in block order (see ir.Func.Renumber).
func NewFlow(f *ir.Func) *Flow {
	g := New(f)
	fl := &Flow{G: g, Dom: NewDomTree(g.Dominators()), Ipdom: g.PostDominators()}
	fl.PostDom = NewDomTreeP(fl.Ipdom)
	fl.Loops, fl.headed = g.loops(fl.Dom)
	fl.BlockOf = make([]int, 0, f.NumInstrs())
	for _, b := range f.Blocks {
		for range b.Instrs {
			fl.BlockOf = append(fl.BlockOf, b.ID)
		}
	}
	return fl
}

// LoopAt returns the loop headed by block h, or nil when h heads none.
func (fl *Flow) LoopAt(h int) *Loop {
	if h < 0 || h >= len(fl.headed) {
		return nil
	}
	return fl.headed[h]
}

// loops finds all natural loops (merging loops that share a header) and
// computes nesting. The result is ordered by header block ID; headed
// indexes it by header.
func (g *Graph) loops(dt *DomTree) (loops []*Loop, headed []*Loop) {
	n := len(g.Succs)
	reach := g.ReachableFromEntry()
	headed = make([]*Loop, n)
	var stack []int
	for b := range g.Succs {
		if !reach[b] {
			continue
		}
		for _, h := range g.Succs[b] {
			if !dt.Dominates(h, b) {
				continue
			}
			// Back edge b -> h.
			l := headed[h]
			if l == nil {
				l = &Loop{Header: h, In: make([]bool, n)}
				l.In[h] = true
				headed[h] = l
			}
			l.Latches = append(l.Latches, b)
			// Natural loop body: nodes reaching b without passing h.
			if !l.In[b] {
				l.In[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range g.Preds[x] {
					if reach[p] && !l.In[p] {
						l.In[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, l := range headed {
		if l == nil {
			continue
		}
		loops = append(loops, l)
		for b, in := range l.In {
			if in {
				l.Blocks = append(l.Blocks, b)
			}
		}
		// Exits, in ascending order.
		for x := range l.In {
			if l.In[x] {
				continue
			}
			for _, b := range g.Preds[x] {
				if l.In[b] {
					l.Exits = append(l.Exits, x)
					break
				}
			}
		}
		sort.Ints(l.Latches)
	}
	// Nesting: parent is the smallest strictly-containing loop.
	for _, l := range loops {
		for _, cand := range loops {
			if cand == l || !containsAll(cand, l) {
				continue
			}
			if l.Parent == nil || containsAll(l.Parent, cand) {
				l.Parent = cand
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops, headed
}

// containsAll reports whether outer strictly contains inner.
func containsAll(outer, inner *Loop) bool {
	if len(outer.Blocks) <= len(inner.Blocks) {
		return false
	}
	for _, b := range inner.Blocks {
		if !outer.In[b] {
			return false
		}
	}
	return true
}
