package cfg

// SCCs returns the strongly connected components of the graph whose node v
// has the successors succs[v], in reverse topological order: every
// component comes after all components it reaches. It is Tarjan's
// algorithm, starting from the nodes in index order and following each
// node's successors in list order; it is iterative, so long paths cannot
// overflow the stack. Each component lists its nodes in the order the
// algorithm pops them.
func SCCs(succs [][]int) [][]int {
	n := len(succs)
	// index[v] is v's visit number plus one (0: unvisited), low[v] the
	// smallest visit number plus one reachable from v's subtree.
	index, low := make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	var comps [][]int
	// The components' nodes, back to back: each component is a
	// capacity-clamped window of it.
	members := make([]int, 0, n)
	// work is the explicit call stack: a node and its next successor.
	type frame struct{ v, next int }
	var work []frame
	visited := 0
	visit := func(v int) {
		visited++
		index[v], low[v] = visited, visited
		stack = append(stack, v)
		onStack[v] = true
		work = append(work, frame{v: v})
	}
	for root := range succs {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.next < len(succs[v]) {
				w := succs[v][f.next]
				f.next++
				if index[w] == 0 {
					visit(w)
				} else if onStack[w] {
					low[v] = min(low[v], index[w])
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				start := len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == v {
						break
					}
				}
				comps = append(comps, members[start:len(members):len(members)])
			}
		}
	}
	return comps
}
