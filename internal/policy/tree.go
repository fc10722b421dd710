package policy

import (
	"locksafe/internal/graph"
	"locksafe/internal/model"
)

// Tree is the static tree policy of Silberschatz & Kedem [SK80], the
// ancestor of the DDAG policy: the database is a fixed tree (given by the
// edge entities of the initial state), locks are exclusive, and apart from
// its first lock a transaction may lock a node only while holding a lock
// on the node's parent. A node may be locked at most once; the database
// never changes (no INSERT or DELETE).
type Tree struct{}

// Name returns "tree".
func (Tree) Name() string { return "tree" }

// NewMonitor derives the tree from edge entities ("A->B") in the initial
// state.
func (Tree) NewMonitor(sys *model.System) model.Monitor {
	parent := make(map[graph.Node]graph.Node)
	for e := range sys.Init {
		if a, b, ok := graph.ParseEdgeName(string(e)); ok {
			parent[b] = a
		}
	}
	return &treeMonitor{t: newTracker(sys), parent: parent}
}

// treeMonitor's rules read the static tree and the event's own row only,
// so an inert row of another transaction cannot change a verdict.
type treeMonitor struct {
	t      *tracker
	parent map[graph.Node]graph.Node // static, shared across forks
}

func (m *treeMonitor) Fork() model.Monitor {
	return &treeMonitor{t: m.t.clone(), parent: m.parent}
}

func (m *treeMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	m.t.advance(ev)
	return nil
}

// Check validates the tree rules against the current state without
// mutating the monitor.
func (m *treeMonitor) Check(ev model.Ev) error {
	if err := m.t.retired("tree", ev); err != nil {
		return err
	}
	own := m.t.row(int(ev.T))
	st := ev.S
	viol := func(rule, why string) error {
		return &Violation{"tree", rule, ev, why}
	}
	switch st.Op {
	case model.LockShared, model.UnlockShared:
		return viol("X-only", "the tree policy uses exclusive locks only")
	case model.Insert, model.Delete:
		return viol("static", "the tree policy admits no structural updates")
	case model.LockExclusive:
		if _, _, isEdge := isEdgeEntity(st.Ent); isEdge {
			return viol("nodes-only", "only tree nodes are lockable")
		}
		if own.lockedEver[st.Ent] {
			return viol("lock-once", "node locked twice")
		}
		if len(own.lockedEver) == 0 {
			break // first lock: any node
		}
		p, ok := m.parent[graph.Node(st.Ent)]
		if !ok {
			return viol("parent-held", "non-first lock of a root (or unknown node)")
		}
		if _, held := own.held[model.Entity(p)]; !held {
			return viol("parent-held", "parent "+string(p)+" is not currently locked")
		}
	case model.Read, model.Write:
		if _, ok := own.held[st.Ent]; !ok {
			return viol("lock-first", "operation without a lock")
		}
	}
	return nil
}

// Grow re-synchronizes the tracker's window with the system; the tree
// itself is static.
func (m *treeMonitor) Grow() { m.t.grow() }

// Footprint is local: the tree rules consult the static parent map and
// the event's own transaction's held/locked-ever sets only (the policy
// admits no structural updates, so the tree never changes).
func (m *treeMonitor) Footprint(ev model.Ev) model.Footprint {
	return model.LocalFootprint(ev)
}

// Key: all monitor state is a function of positions.
func (m *treeMonitor) Key() string { return m.t.posKey() }
