package model

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
)

// SGraph is a serializability graph D(S): nodes are transaction IDs and an
// edge (i, j) records that some step of Ti precedes a conflicting step of
// Tj in the schedule. Nodes with no incident edges and no executed steps
// are still present (the graph is sized by the system), but helpers that
// report sources and sinks can be restricted to a participant set.
type SGraph struct {
	n   int
	adj []map[TID]bool // adj[i][j] == true iff edge i -> j
}

// NewSGraph returns an empty serializability graph over n transactions.
func NewSGraph(n int) *SGraph {
	g := &SGraph{n: n, adj: make([]map[TID]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[TID]bool)
	}
	return g
}

// N returns the number of transaction slots in the graph.
func (g *SGraph) N() int { return g.n }

// AddEdge inserts the edge i -> j. Self-loops are ignored.
func (g *SGraph) AddEdge(i, j TID) {
	if i == j {
		return
	}
	g.adj[int(i)][j] = true
}

// HasEdge reports whether the edge i -> j is present.
func (g *SGraph) HasEdge(i, j TID) bool { return g.adj[int(i)][j] }

// Clone returns a deep copy of the graph.
func (g *SGraph) Clone() *SGraph {
	c := NewSGraph(g.n)
	for i, m := range g.adj {
		for j := range m {
			c.adj[i][j] = true
		}
	}
	return c
}

// Edges returns all edges sorted lexicographically.
func (g *SGraph) Edges() [][2]TID {
	var out [][2]TID
	for i, m := range g.adj {
		for j := range m {
			out = append(out, [2]TID{TID(i), j})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// EdgeCount returns the number of edges.
func (g *SGraph) EdgeCount() int {
	n := 0
	for _, m := range g.adj {
		n += len(m)
	}
	return n
}

// Equal reports whether two graphs have identical edge sets. This is the
// relation D(S) = D(S̄) asserted by Lemmas 1 and 2.
func (g *SGraph) Equal(h *SGraph) bool {
	if g.n != h.n {
		return false
	}
	for i := range g.adj {
		if len(g.adj[i]) != len(h.adj[i]) {
			return false
		}
		for j := range g.adj[i] {
			if !h.adj[i][j] {
				return false
			}
		}
	}
	return true
}

// Acyclic reports whether the graph has no directed cycle.
func (g *SGraph) Acyclic() bool {
	ok, _ := g.kahn()
	return ok
}

// indegrees counts every node's incoming edges.
func (g *SGraph) indegrees() []int {
	indeg := make([]int, g.n)
	for _, m := range g.adj {
		for j := range m {
			indeg[int(j)]++
		}
	}
	return indeg
}

// kahn is Kahn's algorithm without an order: it reports whether every
// node can be removed in dependency order, and the number of queue
// operations (pushes and pops) plus edge visits that took — n + e on an
// acyclic graph, which is what keeps the drain-time verdict linear in a
// system with a node per transaction ever opened.
func (g *SGraph) kahn() (acyclic bool, ops int) {
	indeg := g.indegrees()
	queue := make([]int, 0, g.n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	removed := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		ops++
		for j := range g.adj[i] {
			ops++
			if indeg[int(j)]--; indeg[int(j)] == 0 {
				queue = append(queue, int(j))
			}
		}
	}
	return removed == g.n, ops
}

// TopoSort returns a topological order of all n nodes and true, or nil and
// false if the graph has a cycle. Among the nodes that are ready the one
// with the smallest index goes first (a min-heap), so the order is
// deterministic.
func (g *SGraph) TopoSort() ([]TID, bool) {
	indeg := g.indegrees()
	ready := &intHeap{}
	for i, d := range indeg {
		if d == 0 {
			*ready = append(*ready, i) // ascending, so already a heap
		}
	}
	order := make([]TID, 0, g.n)
	for ready.Len() > 0 {
		i := heap.Pop(ready).(int)
		order = append(order, TID(i))
		for j := range g.adj[i] {
			if indeg[int(j)]--; indeg[int(j)] == 0 {
				heap.Push(ready, int(j))
			}
		}
	}
	if len(order) != g.n {
		return nil, false
	}
	return order, true
}

// intHeap is a min-heap of node indices.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(a, b int) bool { return h[a] < h[b] }
func (h intHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// FindCycle returns some directed cycle as a list of nodes (without
// repeating the first node at the end), or nil if the graph is acyclic.
func (g *SGraph) FindCycle() []TID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, g.n)
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []TID
	var dfs func(u int) (int, bool) // returns cycle-start node when found
	dfs = func(u int) (int, bool) {
		color[u] = gray
		// Deterministic order.
		next := make([]int, 0, len(g.adj[u]))
		for j := range g.adj[u] {
			next = append(next, int(j))
		}
		sort.Ints(next)
		for _, v := range next {
			switch color[v] {
			case white:
				parent[v] = u
				if start, ok := dfs(v); ok {
					return start, true
				}
			case gray:
				// Found a cycle v -> ... -> u -> v.
				cycle = append(cycle, TID(v))
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, TID(x))
				}
				// Reverse to get forward direction v, ..., u.
				for a, b := 0, len(cycle)-1; a < b; a, b = a+1, b-1 {
					cycle[a], cycle[b] = cycle[b], cycle[a]
				}
				return v, true
			}
		}
		color[u] = black
		return 0, false
	}
	for i := 0; i < g.n; i++ {
		if color[i] == white {
			if _, ok := dfs(i); ok {
				return cycle
			}
		}
	}
	return nil
}

// Sinks returns, among the given participants, those with no outgoing edge
// to another participant. If participants is nil, all nodes are considered.
func (g *SGraph) Sinks(participants []TID) []TID {
	return g.boundary(participants, false)
}

// Sources returns, among the given participants, those with no incoming
// edge from another participant. If participants is nil, all nodes are
// considered.
func (g *SGraph) Sources(participants []TID) []TID {
	return g.boundary(participants, true)
}

func (g *SGraph) boundary(participants []TID, incoming bool) []TID {
	var set map[TID]bool
	if participants != nil {
		set = make(map[TID]bool, len(participants))
		for _, t := range participants {
			set[t] = true
		}
	}
	in := func(t TID) bool { return set == nil || set[t] }
	var out []TID
	for i := 0; i < g.n; i++ {
		t := TID(i)
		if !in(t) {
			continue
		}
		ok := true
		if incoming {
			for j := 0; j < g.n && ok; j++ {
				if in(TID(j)) && g.adj[j][t] {
					ok = false
				}
			}
		} else {
			for j := range g.adj[i] {
				if in(j) {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// HasPath reports whether there is a directed path (possibly empty) from
// i to j.
func (g *SGraph) HasPath(i, j TID) bool {
	if i == j {
		return true
	}
	seen := make([]bool, g.n)
	stack := []TID{i}
	seen[int(i)] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range g.adj[int(u)] {
			if v == j {
				return true
			}
			if !seen[int(v)] {
				seen[int(v)] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// String renders the graph as "T0->T1, T2->T0, …".
func (g *SGraph) String() string {
	edges := g.Edges()
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("T%d->T%d", int(e[0]), int(e[1]))
	}
	if len(parts) == 0 {
		return "(no edges)"
	}
	return strings.Join(parts, ", ")
}
