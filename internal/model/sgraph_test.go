package model

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func triangle() *SGraph {
	g := NewSGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	return g
}

func chain(n int) *SGraph {
	g := NewSGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(TID(i), TID(i+1))
	}
	return g
}

func TestAcyclic(t *testing.T) {
	if triangle().Acyclic() {
		t.Error("triangle must be cyclic")
	}
	if !chain(5).Acyclic() {
		t.Error("chain must be acyclic")
	}
	if !NewSGraph(0).Acyclic() {
		t.Error("empty graph is acyclic")
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := NewSGraph(4)
	g.AddEdge(3, 1)
	g.AddEdge(3, 0)
	g.AddEdge(1, 2)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("graph is acyclic")
	}
	pos := make(map[TID]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violated by order %v", e, order)
		}
	}
	// Determinism: repeated runs give identical output.
	order2, _ := g.TopoSort()
	for i := range order {
		if order[i] != order2[i] {
			t.Fatal("TopoSort must be deterministic")
		}
	}
}

func TestFindCycle(t *testing.T) {
	c := triangle().FindCycle()
	if len(c) != 3 {
		t.Fatalf("FindCycle = %v, want a 3-cycle", c)
	}
	g := triangle()
	// Verify consecutive edges exist (cyclically).
	for i := range c {
		if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
			t.Errorf("cycle %v has a missing edge %v->%v", c, c[i], c[(i+1)%len(c)])
		}
	}
	if chain(4).FindCycle() != nil {
		t.Error("acyclic graph must have no cycle")
	}
	// Self-loops are ignored by AddEdge.
	g2 := NewSGraph(2)
	g2.AddEdge(1, 1)
	if g2.EdgeCount() != 0 {
		t.Error("self-loop should be ignored")
	}
}

func TestSinksAndSources(t *testing.T) {
	g := chain(3) // 0 -> 1 -> 2
	sinks := g.Sinks(nil)
	if len(sinks) != 1 || sinks[0] != 2 {
		t.Errorf("Sinks = %v, want [2]", sinks)
	}
	sources := g.Sources(nil)
	if len(sources) != 1 || sources[0] != 0 {
		t.Errorf("Sources = %v, want [0]", sources)
	}
	// Restricted to participants {0,1}: node 1 becomes the sink.
	sinks = g.Sinks([]TID{0, 1})
	if len(sinks) != 1 || sinks[0] != 1 {
		t.Errorf("restricted Sinks = %v, want [1]", sinks)
	}
	sources = g.Sources([]TID{1, 2})
	if len(sources) != 1 || sources[0] != 1 {
		t.Errorf("restricted Sources = %v, want [1]", sources)
	}
}

func TestMultipleSinks(t *testing.T) {
	// Fan-out: 0 -> 1, 0 -> 2. Both 1 and 2 are sinks — the shape that
	// arises in dynamic-database canonical schedules (Fig. 1b).
	g := NewSGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	sinks := g.Sinks(nil)
	if len(sinks) != 2 {
		t.Errorf("Sinks = %v, want two", sinks)
	}
}

func TestHasPath(t *testing.T) {
	g := chain(4)
	if !g.HasPath(0, 3) {
		t.Error("path 0->3 exists")
	}
	if g.HasPath(3, 0) {
		t.Error("no path 3->0")
	}
	if !g.HasPath(2, 2) {
		t.Error("trivial path to self")
	}
}

func TestGraphEqualClone(t *testing.T) {
	g := triangle()
	c := g.Clone()
	if !g.Equal(c) {
		t.Error("clone must equal original")
	}
	c.AddEdge(0, 2)
	if g.Equal(c) {
		t.Error("modified clone must differ")
	}
	if g.Equal(NewSGraph(4)) {
		t.Error("different sizes are unequal")
	}
}

func TestGraphString(t *testing.T) {
	if NewSGraph(2).String() != "(no edges)" {
		t.Error("empty graph string")
	}
	g := NewSGraph(2)
	g.AddEdge(1, 0)
	if g.String() != "T1->T0" {
		t.Errorf("String = %q", g.String())
	}
}

func TestEdgeCount(t *testing.T) {
	if triangle().EdgeCount() != 3 {
		t.Error("triangle has 3 edges")
	}
}

func TestDescribeGraph(t *testing.T) {
	sys := NewSystem(nil, Txn{Name: "A"}, Txn{Name: "B"})
	g := NewSGraph(2)
	g.AddEdge(0, 1)
	if got := DescribeGraph(sys, g); got != "A->B" {
		t.Errorf("DescribeGraph = %q", got)
	}
	if DescribeGraph(sys, NewSGraph(2)) != "(no edges)" {
		t.Error("empty describe")
	}
}

// topoSortReference is the algorithm TopoSort replaced, kept as the
// specification of its order: the ready set is re-sorted after every pop
// and the smallest index goes first.
func topoSortReference(g *SGraph) ([]TID, bool) {
	indeg := g.indegrees()
	var queue []int
	for i := g.n - 1; i >= 0; i-- {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []TID
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, TID(i))
		for j := range g.adj[i] {
			indeg[int(j)]--
			if indeg[int(j)] == 0 {
				queue = append(queue, int(j))
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(queue)))
	}
	if len(order) != g.n {
		return nil, false
	}
	return order, true
}

// TestTopoSortMatchesReference: on seeded random DAGs and graphs with
// cycles, the heap-based TopoSort gives the reference's order and
// verdict, and Acyclic agrees.
func TestTopoSortMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := NewSGraph(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if seed%2 == 0 && i > j {
				i, j = j, i // even seeds: edges go up, so the graph is a DAG
			}
			g.AddEdge(TID(i), TID(j))
		}
		want, wantOK := topoSortReference(g)
		got, ok := g.TopoSort()
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: TopoSort = %v, %v; reference %v, %v", seed, got, ok, want, wantOK)
		}
		if seed%2 == 0 && !ok {
			t.Fatalf("seed %d: a DAG was reported cyclic", seed)
		}
		if g.Acyclic() != wantOK {
			t.Fatalf("seed %d: Acyclic = %v, reference %v", seed, !wantOK, wantOK)
		}
	}
}

// TestAcyclicIsLinear counts the work of the drain-time verdict instead
// of timing it: on 200k nodes and 200k edges Kahn's algorithm pops each
// node once and visits each edge once.
func TestAcyclicIsLinear(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	g := NewSGraph(n)
	var lo, hi TID // the last edge added
	for e := 0; e < n; {
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		if i != j && !g.HasEdge(TID(i), TID(j)) {
			lo, hi = TID(i), TID(j)
			g.AddEdge(lo, hi)
			e++
		}
	}
	ok, ops := g.kahn()
	if !ok {
		t.Fatal("a graph whose edges all go up is acyclic")
	}
	if ops != 2*n {
		t.Fatalf("kahn took %d queue and edge operations on %d nodes and %d edges, want n+e", ops, n, n)
	}
	g.AddEdge(hi, lo)
	if ok, ops := g.kahn(); ok || ops > 2*n+1 {
		t.Fatalf("with a cycle: kahn = %v in %d operations", ok, ops)
	}
}

// TestSerializableMatchesGraph: Serializable decides on a subgraph of
// D(S); on random event sequences (legal or not — the verdict is defined
// on any) it must have D(S)'s reachability, hence its verdict.
func TestSerializableMatchesGraph(t *testing.T) {
	ents := []Entity{"a", "b", "c"}
	sys := NewSystem(nil, make([]Txn, 5)...)
	cyclic := 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := make(Schedule, 2+rng.Intn(12))
		for i := range s {
			s[i] = Ev{T: TID(rng.Intn(len(sys.Txns))), S: Step{Op: Op(rng.Intn(len(opNames))), Ent: ents[rng.Intn(len(ents))]}}
		}
		want := s.Graph(sys).Acyclic()
		if !want {
			cyclic++
		}
		if got := s.Serializable(sys); got != want {
			t.Fatalf("seed %d: Serializable = %v, D(S) acyclic = %v for %v", seed, got, want, s)
		}
	}
	if cyclic < 200 {
		t.Fatalf("only %d of 2000 sequences were cyclic; the generator no longer exercises both verdicts", cyclic)
	}
}
