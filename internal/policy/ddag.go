package policy

import (
	"strings"

	"locksafe/internal/graph"
	"locksafe/internal/model"
)

// DDAG is the dynamic directed acyclic graph policy of Section 4, with
// exclusive locks only (the version proved safe by Theorem 2).
//
// The database is a rooted DAG whose nodes and edges are both entities:
// nodes are plain names and the edge (A, B) is the entity "A->B". An
// ACCESS is modeled as READ and/or WRITE under an exclusive lock.
//
// Locking rules enforced per transaction T:
//
//	L1  Before an INSERT, DELETE or ACCESS on a node A, T must hold a lock
//	    on A; before an operation on an edge (A, B), T must hold locks on
//	    both A and B (the edge entity itself is also locked immediately
//	    around the operation to keep transactions well-formed in the
//	    general model; edge-entity locks are exempt from L3–L5).
//	L2  A node that is being inserted (it does not exist in the current
//	    graph) can be locked at any time.
//	L3  A node can be locked by a transaction at most once.
//	L4  A transaction may begin by locking any node.
//	L5  Other than the first node locked by T, an existing node can be
//	    locked by T only if all its predecessors in the *present* state of
//	    the graph have been locked by T in the past and T presently holds
//	    a lock on at least one of them.
//
// Additionally, per the paper's assumptions: once deleted, a node may not
// be reinserted; transactions maintain the DAG shape (the monitor rejects
// edge insertions that would create a cycle and deletions of nodes with
// incident edges); and only exclusive locks are used.
type DDAG struct{}

// Name returns "DDAG".
func (DDAG) Name() string { return "DDAG" }

// NewMonitor builds the initial graph from the system's initial structural
// state: entities containing "->" are edges, the rest are nodes.
func (DDAG) NewMonitor(sys *model.System) model.Monitor {
	g := graph.New()
	for e := range sys.Init {
		name := string(e)
		if a, b, ok := graph.ParseEdgeName(name); ok {
			g.AddEdge(a, b)
		} else {
			g.AddNode(graph.Node(name))
		}
	}
	return &ddagMonitor{
		t:       newTracker(sys),
		g:       g,
		deleted: make(map[graph.Node]bool),
	}
}

// ddagMonitor's rules read the graph, the deleted set and the event's own
// row only — never another transaction's — so an inert row of another
// transaction cannot change a verdict (DDAG-SX shares this monitor's
// bookkeeping and the argument).
type ddagMonitor struct {
	t       *tracker
	g       *graph.Digraph
	deleted map[graph.Node]bool // nodes that have ever been deleted
}

func (m *ddagMonitor) Fork() model.Monitor {
	c := &ddagMonitor{
		t:       m.t.clone(),
		g:       m.g.Clone(),
		deleted: make(map[graph.Node]bool, len(m.deleted)),
	}
	for n := range m.deleted {
		c.deleted[n] = true
	}
	return c
}

// isEdgeEntity reports whether the entity names an edge and returns the
// endpoints.
func isEdgeEntity(e model.Entity) (a, b graph.Node, ok bool) {
	return graph.ParseEdgeName(string(e))
}

// firstNodeLock reports whether T has not yet locked any node entity (edge
// entity locks do not count for L4).
func (m *ddagMonitor) firstNodeLock(i int) bool {
	for e := range m.t.row(i).lockedEver {
		if !strings.Contains(string(e), "->") {
			return false
		}
	}
	return true
}

func (m *ddagMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	m.apply(ev)
	return nil
}

// apply performs the structural-graph maintenance and tracker bookkeeping
// for an event that passed Check.
func (m *ddagMonitor) apply(ev model.Ev) {
	st := ev.S
	switch st.Op {
	case model.Insert:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			m.g.AddEdge(a, b)
		} else {
			m.g.AddNode(graph.Node(st.Ent))
		}
	case model.Delete:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			m.g.RemoveEdge(a, b)
		} else {
			n := graph.Node(st.Ent)
			m.g.RemoveNode(n)
			m.deleted[n] = true
		}
	}
	m.t.advance(ev)
}

// Check validates rules L1–L5 and the structural assumptions against the
// present state of the graph, without mutating the monitor.
func (m *ddagMonitor) Check(ev model.Ev) error {
	if err := m.t.retired("DDAG", ev); err != nil {
		return err
	}
	i := int(ev.T)
	own := m.t.row(i)
	st := ev.S
	viol := func(rule, why string) error {
		return &Violation{"DDAG", rule, ev, why}
	}
	switch st.Op {
	case model.LockShared, model.UnlockShared:
		return viol("X-only", "the DDAG policy of Section 4 uses exclusive locks only")

	case model.LockExclusive:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			// Edge-entity lock: permitted only while holding both
			// endpoints (it accompanies an edge operation).
			if _, ok := own.held[model.Entity(a)]; !ok {
				return viol("L1", "edge lock without a lock on endpoint "+string(a))
			}
			if _, ok := own.held[model.Entity(b)]; !ok {
				return viol("L1", "edge lock without a lock on endpoint "+string(b))
			}
			break
		}
		n := graph.Node(st.Ent)
		if own.lockedEver[st.Ent] {
			return viol("L3", "node locked twice")
		}
		if m.firstNodeLock(i) {
			break // L4: the first lock may be on any node
		}
		if !m.g.HasNode(n) {
			break // L2: a node being inserted can be locked at any time
		}
		// L5 against the *present* state of the graph.
		holdsOne := false
		for _, p := range m.g.Preds(n) {
			pe := model.Entity(p)
			if !own.lockedEver[pe] {
				return viol("L5", "predecessor "+string(p)+" was never locked")
			}
			if _, ok := own.held[pe]; ok {
				holdsOne = true
			}
		}
		if len(m.g.Preds(n)) > 0 && !holdsOne {
			return viol("L5", "no predecessor lock is currently held")
		}
		if len(m.g.Preds(n)) == 0 {
			// An existing node with no predecessors is a root; locking a
			// second root would start a second traversal, which L5
			// forbids (only the first lock is unconstrained).
			return viol("L5", "existing node has no predecessors and is not the first lock")
		}

	case model.Insert:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			if err := m.requireEndpoints(ev, a, b); err != nil {
				return err
			}
			if !m.g.HasNode(a) || !m.g.HasNode(b) {
				return viol("DAG", "edge endpoints must exist")
			}
			if m.g.HasPath(b, a) {
				return viol("DAG", "edge insertion would create a cycle")
			}
			break
		}
		n := graph.Node(st.Ent)
		if m.deleted[n] {
			return viol("no-reinsert", "a deleted node may not be reinserted")
		}
		if err := m.requireHeld(ev, st.Ent); err != nil {
			return err
		}

	case model.Delete:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			if err := m.requireEndpoints(ev, a, b); err != nil {
				return err
			}
			break
		}
		n := graph.Node(st.Ent)
		if err := m.requireHeld(ev, st.Ent); err != nil {
			return err
		}
		if len(m.g.Succs(n)) > 0 || len(m.g.Preds(n)) > 0 {
			return viol("DAG", "cannot delete a node with incident edges")
		}

	case model.Read, model.Write:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			if err := m.requireEndpoints(ev, a, b); err != nil {
				return err
			}
			break
		}
		if err := m.requireHeld(ev, st.Ent); err != nil {
			return err
		}
	}
	return nil
}

func (m *ddagMonitor) requireHeld(ev model.Ev, e model.Entity) error {
	if _, ok := m.t.row(int(ev.T)).held[e]; !ok {
		return &Violation{"DDAG", "L1", ev, "operation without a lock on " + string(e)}
	}
	return nil
}

func (m *ddagMonitor) requireEndpoints(ev model.Ev, a, b graph.Node) error {
	own := m.t.row(int(ev.T))
	if _, ok := own.held[model.Entity(a)]; !ok {
		return &Violation{"DDAG", "L1", ev, "edge operation without a lock on " + string(a)}
	}
	if _, ok := own.held[model.Entity(b)]; !ok {
		return &Violation{"DDAG", "L1", ev, "edge operation without a lock on " + string(b)}
	}
	return nil
}

// Grow re-synchronizes the tracker's window with the system; the graph
// and deleted set are keyed by entity, not transaction.
func (m *ddagMonitor) Grow() { m.t.grow() }

// Footprint: READ/WRITE, unlocks and edge-entity locks consult only the
// event's own transaction's held set (rule L1 / no rule), so they are
// local; so is LS, vetoed by the X-only rule without reading mutable
// state. Node locks are global — rules L2/L5 evaluate against the
// *present* graph — and so are INSERT/DELETE, which mutate it. The
// edge-vs-node distinction is a property of the entity name, so the
// footprint stays pure.
func (m *ddagMonitor) Footprint(ev model.Ev) model.Footprint {
	switch ev.S.Op {
	case model.Read, model.Write, model.UnlockShared, model.UnlockExclusive, model.LockShared:
		return model.LocalFootprint(ev)
	case model.LockExclusive:
		if _, _, isEdge := isEdgeEntity(ev.S.Ent); isEdge {
			return model.LocalFootprint(ev)
		}
		return model.GlobalFootprint() // L2/L5 read the graph
	default: // INSERT/DELETE write the graph
		return model.GlobalFootprint()
	}
}

// Key: the graph, deleted set, held and locked-ever sets are all functions
// of the executed prefixes, so the position vector is a complete key.
func (m *ddagMonitor) Key() string { return m.t.posKey() }

// Graph exposes the monitor's current graph; the figure-walkthrough
// experiment uses it to display the database state.
func (m *ddagMonitor) Graph() *graph.Digraph { return m.g }
