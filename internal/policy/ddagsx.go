package policy

import (
	"locksafe/internal/graph"
	"locksafe/internal/model"
)

// DDAGSX is the shared/exclusive extension of the DDAG policy. The paper
// proves safety only for the exclusive-lock version (Theorem 2) and
// defers the general shared/exclusive version to [Cha95]; this
// implementation is the *natural* extension — reads take shared locks,
// structural updates and writes take exclusive locks, and rule L5 accepts
// predecessors locked in either mode — and the repository treats its
// safety as an empirical question: experiment E10 searches for
// counterexamples over random conformant workloads (see EXPERIMENTS.md).
//
// Rules (deltas from DDAG):
//
//	L1'  READ requires a shared or exclusive lock on the node; WRITE,
//	     INSERT and DELETE require exclusive; edge operations require
//	     locks on both endpoints (exclusive for structural edge updates,
//	     any mode for reads).
//	L5'  A non-first lock of an existing node requires all its present
//	     predecessors locked before (in any mode) and at least one of
//	     them still held (in any mode).
//
// L2 (inserted nodes lockable any time), L3 (lock once) and L4 (first
// lock free) carry over unchanged.
type DDAGSX struct{}

// Name returns "DDAG-SX".
func (DDAGSX) Name() string { return "DDAG-SX" }

// NewMonitor builds the initial graph exactly as DDAG does.
func (DDAGSX) NewMonitor(sys *model.System) model.Monitor {
	base := DDAG{}.NewMonitor(sys).(*ddagMonitor)
	return &ddagSXMonitor{inner: base}
}

type ddagSXMonitor struct {
	inner *ddagMonitor
}

func (m *ddagSXMonitor) Fork() model.Monitor {
	return &ddagSXMonitor{inner: m.inner.Fork().(*ddagMonitor)}
}

func (m *ddagSXMonitor) Key() string { return m.inner.Key() }

// Grow delegates to the base DDAG monitor, which owns all bookkeeping.
func (m *ddagSXMonitor) Grow() { m.inner.Grow() }

// Footprint mirrors the base DDAG monitor's: READ/WRITE, unlocks and
// edge-entity locks touch only the event's own transaction's held set;
// node locks read the present graph and INSERT/DELETE mutate it, so
// those are global.
func (m *ddagSXMonitor) Footprint(ev model.Ev) model.Footprint {
	switch ev.S.Op {
	case model.Read, model.Write, model.UnlockShared, model.UnlockExclusive:
		return model.LocalFootprint(ev)
	case model.LockShared, model.LockExclusive:
		if _, _, isEdge := isEdgeEntity(ev.S.Ent); isEdge {
			return model.LocalFootprint(ev)
		}
		return model.GlobalFootprint()
	default:
		return model.GlobalFootprint()
	}
}

func (m *ddagSXMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	// All bookkeeping lives in the base monitor: graph maintenance for
	// structural ops, tracker advancement for everything.
	m.inner.apply(ev)
	return nil
}

// Check validates rules L1'–L5' without mutating the monitor.
func (m *ddagSXMonitor) Check(ev model.Ev) error {
	in := m.inner
	if err := in.t.retired("DDAG-SX", ev); err != nil {
		return err
	}
	i := int(ev.T)
	own := in.t.row(i)
	st := ev.S
	viol := func(rule, why string) error {
		return &Violation{"DDAG-SX", rule, ev, why}
	}
	switch st.Op {
	case model.LockShared, model.LockExclusive:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
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
		if in.firstNodeLock(i) {
			break // L4
		}
		if !in.g.HasNode(n) {
			if st.Op != model.LockExclusive {
				return viol("L2", "a node being inserted must be locked exclusively")
			}
			break // L2
		}
		preds := in.g.Preds(n)
		if len(preds) == 0 {
			return viol("L5", "existing node has no predecessors and is not the first lock")
		}
		holdsOne := false
		for _, p := range preds {
			pe := model.Entity(p)
			if !own.lockedEver[pe] {
				return viol("L5", "predecessor "+string(p)+" was never locked")
			}
			if _, ok := own.held[pe]; ok {
				holdsOne = true
			}
		}
		if !holdsOne {
			return viol("L5", "no predecessor lock is currently held")
		}

	case model.UnlockShared, model.UnlockExclusive:
		// Always permitted.

	case model.Read:
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			if err := in.requireEndpoints(ev, a, b); err != nil {
				return err
			}
			break
		}
		if _, ok := own.held[st.Ent]; !ok {
			return viol("L1", "READ without a lock")
		}

	case model.Write, model.Insert, model.Delete:
		// Reuse the exclusive-path structural rules of the base DDAG
		// monitor (no-reinsert, acyclicity, lock presence), but
		// additionally demand exclusive mode on the target(s).
		if a, b, isEdge := isEdgeEntity(st.Ent); isEdge {
			if mmode, ok := own.held[model.Entity(a)]; !ok || mmode != model.Exclusive {
				return viol("L1", "structural edge operation without an exclusive lock on "+string(a))
			}
			if mmode, ok := own.held[model.Entity(b)]; !ok || mmode != model.Exclusive {
				return viol("L1", "structural edge operation without an exclusive lock on "+string(b))
			}
		} else if mmode, ok := own.held[st.Ent]; !ok || mmode != model.Exclusive {
			return viol("L1", st.Op.String()+" without an exclusive lock")
		}
		if err := in.Check(ev); err != nil {
			if v, ok := err.(*Violation); ok {
				v.Policy = "DDAG-SX"
			}
			return err
		}
	}
	return nil
}
