package policy

import "locksafe/internal/model"

// TwoPhase is classic two-phase locking: a transaction must acquire all its
// locks before releasing any. It is the baseline safe policy — by
// Theorem 1, a system in which every transaction is two-phase admits no
// canonical witness (condition 1 cannot hold).
type TwoPhase struct{}

// Name returns "2PL".
func (TwoPhase) Name() string { return "2PL" }

// NewMonitor returns a monitor enforcing the two-phase rule per
// transaction.
func (TwoPhase) NewMonitor(sys *model.System) model.Monitor {
	return &twoPhaseMonitor{t: newTracker(sys)}
}

// twoPhaseMonitor needs nothing beyond the tracker: "has the transaction
// released any lock yet?" is the row's unlocked flag. The rule reads the
// event's own row only, so an inert row of another transaction — and
// whether it is still there — cannot change a verdict.
type twoPhaseMonitor struct {
	t *tracker
}

func (m *twoPhaseMonitor) Fork() model.Monitor { return &twoPhaseMonitor{t: m.t.clone()} }

// Check vetoes a lock acquired after an unlock, without mutating the
// monitor.
func (m *twoPhaseMonitor) Check(ev model.Ev) error {
	if err := m.t.retired("2PL", ev); err != nil {
		return err
	}
	if ev.S.Op.IsLock() && m.t.row(int(ev.T)).unlocked {
		return &Violation{"2PL", "two-phase", ev, "lock acquired after an unlock"}
	}
	return nil
}

func (m *twoPhaseMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	m.t.advance(ev)
	return nil
}

// Grow re-synchronizes the tracker's window with the system.
func (m *twoPhaseMonitor) Grow() { m.t.grow() }

// Footprint is local: the two-phase rule reads and writes only the
// event's own transaction's tracker row.
func (m *twoPhaseMonitor) Footprint(ev model.Ev) model.Footprint {
	return model.LocalFootprint(ev)
}

// Key is the position vector: the unlocked flags are a function of each
// transaction's executed prefix.
func (m *twoPhaseMonitor) Key() string { return m.t.posKey() }
