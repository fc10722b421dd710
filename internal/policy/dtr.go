package policy

import (
	"sort"
	"strings"

	"locksafe/internal/graph"
	"locksafe/internal/model"
)

// DTR is the dynamic tree policy of Croker & Maier [CM86] as presented in
// Section 6, with exclusive locks only.
//
// Unlike DDAG, the database forest is created and maintained by the
// concurrency-control algorithm itself, not by the transactions:
//
//	DT0  Initially the database forest is empty.
//	DT1  Trees are joined by drawing an edge from the root of one to the
//	     root of the other; new entities are connected into a tree and
//	     joined on.
//	DT2  When a transaction T starts, all trees containing some entity of
//	     A(T) (the entities T explicitly accesses) are joined into a
//	     single tree g, the entities of A(T) not present are added to g,
//	     and T must be tree-locked with respect to g.
//	DT3  A node A may be deleted from the forest if it is not currently
//	     locked by any active transaction and every active transaction
//	     remains tree-locked after the deletion.
//
// A well-formed transaction is *tree-locked* with respect to a tree g if
// every (LX A) step except the first is preceded by (LX B) and followed by
// (U B), where B is A's parent in g, and no entity is locked twice.
//
// The monitor applies DT2 at each transaction's first event (vetoing the
// start if the transaction's precomputed locked sequence is not
// tree-locked with respect to the resulting tree) and applies DT3 eagerly
// after every event. DT1's "connect them to form a tree" is implemented
// deterministically: the entities of A(T) are chained in the order of
// first appearance in T.
type DTR struct{}

// Name returns "DTR".
func (DTR) Name() string { return "DTR" }

// NewMonitor returns a monitor enforcing DT0–DT3.
func (DTR) NewMonitor(sys *model.System) model.Monitor {
	return &dtrMonitor{
		t:      newTracker(sys),
		forest: graph.NewForest(),
	}
}

// dtrMonitor's cross-transaction rule, DT3, reads which nodes are locked
// and the bodies of *active* transactions; DT2 reads the forest and the
// event's own body. An inert row is neither active nor holding, so
// whether it is still in the window cannot change a verdict.
type dtrMonitor struct {
	t      *tracker
	forest *graph.Forest
}

func (m *dtrMonitor) Fork() model.Monitor {
	return &dtrMonitor{t: m.t.clone(), forest: m.forest.Clone()}
}

// accessSet returns A(T): the entities with data (ACCESS/INSERT/DELETE —
// here any data) steps in the transaction, in order of first appearance.
func accessSet(tx model.Txn) []model.Entity {
	seen := make(map[model.Entity]bool)
	var out []model.Entity
	for _, st := range tx.Steps {
		if st.Op.IsData() && !seen[st.Ent] {
			seen[st.Ent] = true
			out = append(out, st.Ent)
		}
	}
	return out
}

// lockSeq returns the entities locked by the transaction, in order.
func lockSeq(tx model.Txn) []model.Entity {
	var out []model.Entity
	for _, st := range tx.Steps {
		if st.Op.IsLock() {
			out = append(out, st.Ent)
		}
	}
	return out
}

// treeLocked reports whether the transaction's full step sequence is
// tree-locked with respect to the given parent function: every lock except
// the first is preceded by a lock of its parent and followed by an unlock
// of that parent, and no entity is locked twice.
func treeLocked(tx model.Txn, parentOf func(model.Entity) (model.Entity, bool)) bool {
	lockIdx := make(map[model.Entity]int)
	unlockIdx := make(map[model.Entity]int)
	order := 0
	for _, st := range tx.Steps {
		switch {
		case st.Op.IsLock():
			if _, dup := lockIdx[st.Ent]; dup {
				return false // locked twice
			}
			lockIdx[st.Ent] = order
			order++
		case st.Op.IsUnlock():
			unlockIdx[st.Ent] = order
			order++
		default:
			order++
		}
	}
	locks := lockSeq(tx)
	for n, a := range locks {
		if n == 0 {
			continue
		}
		b, ok := parentOf(a)
		if !ok {
			return false // non-first lock of a root
		}
		bi, locked := lockIdx[b]
		if !locked || bi >= lockIdx[a] {
			return false // parent not locked before
		}
		bu, unlocked := unlockIdx[b]
		if !unlocked || bu <= lockIdx[a] {
			return false // parent not unlocked after
		}
	}
	return true
}

// dt2 applies rule DT2 for transaction i against the current forest and
// returns the resulting forest, with ok=false if the transaction is not
// tree-locked with respect to the tree it produces. The monitor's own
// forest is never touched: Step commits the result, Check discards it.
//
// The deterministic DT1 choices: the entities of A(T) that are not yet in
// the forest are connected into a *chain* in first-appearance order (DT1
// allows any tree shape here); then the trees containing the existing
// entities of A(T) are joined root-to-root in first-appearance order, and
// the chain of new entities is joined on last.
func (m *dtrMonitor) dt2(i int) (*graph.Forest, bool) {
	tx := m.t.sys.Txns[i]
	ents := accessSet(tx)
	f := m.forest.Clone()
	var fresh, existing []model.Entity
	for _, e := range ents {
		if f.Has(graph.Node(e)) {
			existing = append(existing, e)
		} else {
			fresh = append(fresh, e)
		}
	}
	for k, e := range fresh {
		_ = f.Add(graph.Node(e))
		if k > 0 {
			_ = f.Graft(graph.Node(fresh[k-1]), graph.Node(e))
		}
	}
	var base model.Entity
	if len(existing) > 0 {
		base = existing[0]
		for _, e := range existing[1:] {
			_ = f.Join(graph.Node(base), graph.Node(e))
		}
		if len(fresh) > 0 {
			_ = f.Join(graph.Node(base), graph.Node(fresh[0]))
		}
	}
	// The transaction may also lock entities beyond A(T) (interior tree
	// nodes); they must already be in the forest.
	for _, e := range lockSeq(tx) {
		if !f.Has(graph.Node(e)) {
			return nil, false
		}
	}
	ok := treeLocked(tx, func(e model.Entity) (model.Entity, bool) {
		p := f.Parent(graph.Node(e))
		if p == "" {
			return "", false
		}
		return model.Entity(p), true
	})
	if !ok {
		return nil, false
	}
	return f, true
}

// dt3 eagerly deletes every node that (a) is not currently locked by any
// transaction and (b) leaves every active transaction tree-locked, looping
// to a fixpoint.
func (m *dtrMonitor) dt3() {
	for {
		deletedAny := false
		for _, n := range m.forest.Nodes() {
			if m.t.anyHolds(model.Entity(n)) {
				continue
			}
			f := m.forest.Clone()
			_ = f.Delete(n)
			ok := true
			for j := m.t.base; j < m.t.end(); j++ {
				if !m.t.active(j) {
					continue
				}
				if !treeLocked(m.t.sys.Txns[j], func(e model.Entity) (model.Entity, bool) {
					p := f.Parent(graph.Node(e))
					if p == "" {
						return "", false
					}
					return model.Entity(p), true
				}) {
					ok = false
					break
				}
			}
			if ok {
				m.forest = f
				deletedAny = true
			}
		}
		if !deletedAny {
			return
		}
	}
}

// validate checks the X-only, lock-first and DT2 rules without mutating
// the monitor. For a transaction's first event it returns the DT2 forest
// to commit; otherwise the forest is nil.
func (m *dtrMonitor) validate(ev model.Ev) (*graph.Forest, error) {
	if err := m.t.retired("DTR", ev); err != nil {
		return nil, err
	}
	i := int(ev.T)
	st := ev.S
	viol := func(rule, why string) error {
		return &Violation{"DTR", rule, ev, why}
	}
	if st.Op == model.LockShared || st.Op == model.UnlockShared {
		return nil, viol("X-only", "the DTR policy of Section 6 uses exclusive locks only")
	}
	if st.Op.IsData() {
		if _, ok := m.t.row(i).held[st.Ent]; !ok {
			return nil, viol("lock-first", "operation without a lock")
		}
	}
	if m.t.row(i) == unstarted {
		// The locked transaction is precomputed: rule DT2 runs now and
		// the whole lock sequence must be tree-locked with respect to
		// the tree it produces.
		f, ok := m.dt2(i)
		if !ok {
			return nil, viol("DT2", "transaction is not tree-locked with respect to its joined tree")
		}
		return f, nil
	}
	return nil, nil
}

// Check validates without mutating the monitor: the DT2 forest is
// computed on a clone and discarded.
func (m *dtrMonitor) Check(ev model.Ev) error {
	_, err := m.validate(ev)
	return err
}

func (m *dtrMonitor) Step(ev model.Ev) error {
	f, err := m.validate(ev)
	if err != nil {
		return err
	}
	if f != nil {
		m.forest = f
	}
	m.t.advance(ev)
	m.dt3()
	return nil
}

// Grow re-synchronizes the tracker's window with the system. The DT2
// joining for a new transaction happens lazily at its first event, so no
// forest work is needed here.
func (m *dtrMonitor) Grow() { m.t.grow() }

// Footprint is global for every event: rule DT3 runs after each Step and
// both reads the whole system (is any node locked by *any* active
// transaction? does every active transaction stay tree-locked?) and
// mutates the shared forest; DT2 joins trees at transaction start. The
// DTR monitor is the canonical cross-cutting policy the conservative
// fallback exists for.
func (m *dtrMonitor) Footprint(model.Ev) model.Footprint {
	return model.GlobalFootprint()
}

// Key serializes positions plus the forest (whose shape depends on the
// order in which transactions started, not positions alone).
func (m *dtrMonitor) Key() string {
	var b strings.Builder
	b.WriteString(m.t.posKey())
	b.WriteByte('|')
	nodes := m.forest.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		b.WriteString(string(n))
		b.WriteByte(':')
		b.WriteString(string(m.forest.Parent(n)))
		b.WriteByte(';')
	}
	return b.String()
}

// Forest exposes the monitor's current database forest for the Fig. 5
// walkthrough.
func (m *dtrMonitor) Forest() *graph.Forest { return m.forest }
