package policy

import (
	"iter"
	"maps"
	"sort"
	"strconv"
	"strings"

	"locksafe/internal/model"
)

// Altruistic is the basic altruistic locking policy of Section 5 (from
// Salem, Garcia-Molina & Shands [SGMS94]), with exclusive locks only.
//
// A transaction's *locked point* is the instant it acquires its last lock.
// Ti is *in the wake of* Tj if Ti has locked an item that Tj unlocked
// earlier, and Tj has not yet reached its own locked point. Rules:
//
//	AL1  A transaction must hold a lock on an item before an INSERT,
//	     DELETE or ACCESS on it.
//	AL2  If Ti is in the wake of an active Tj, then every item locked by
//	     Ti so far must have been unlocked by Tj in the past.
//	AL3  A transaction may lock an item only once.
//
// The monitor computes each transaction's locked point statically from its
// step sequence and tracks the wake relation as the schedule unfolds; a
// wake dissolves when the donor reaches its locked point.
type Altruistic struct{}

// Name returns "altruistic".
func (Altruistic) Name() string { return "altruistic" }

// NewMonitor returns a monitor enforcing AL1–AL3.
func (Altruistic) NewMonitor(sys *model.System) model.Monitor {
	m := &altruisticMonitor{t: newTracker(sys)}
	m.Grow()
	return m
}

// altRow is one started transaction's altruistic state.
type altRow struct {
	// lockedPoint is the static index just after the last lock step.
	lockedPoint int
	// unlocked is the set of items the transaction has unlocked so far.
	unlocked map[model.Entity]bool
	// wake is the set of transactions currently in this one's wake. It is
	// kept with the donor so that a finished transaction's row never
	// changes: entering a wake writes the row of a donor that has not
	// reached its locked point, dissolving writes the stepping row.
	wake map[int]bool
}

// altruisticMonitor keeps one altRow per tracker row, in step with the
// tracker's window; nil until the transaction's first event. AL2 reads
// another transaction's row only as a donor that has started and not
// reached its locked point: a finished transaction is past it and an
// unstarted one has donated nothing, so an inert row — and whether it is
// still in the window — cannot change a verdict.
type altruisticMonitor struct {
	t    *tracker
	rows []*altRow
}

func (m *altruisticMonitor) Fork() model.Monitor {
	c := &altruisticMonitor{t: m.t.clone(), rows: make([]*altRow, len(m.rows))}
	for k, a := range m.rows {
		if c.t.rows[k] != m.t.rows[k] { // the tracker copied it: it can still change
			a = &altRow{lockedPoint: a.lockedPoint, unlocked: maps.Clone(a.unlocked), wake: maps.Clone(a.wake)}
		}
		c.rows[k] = a
	}
	return c
}

// donors ranges over the transactions other than i that have started and
// not reached their locked point, in index order.
func (m *altruisticMonitor) donors(i int) iter.Seq2[int, *altRow] {
	return func(yield func(int, *altRow) bool) {
		for k, d := range m.rows {
			if j := m.t.base + k; d != nil && j != i && m.t.rows[k].pos < d.lockedPoint && !yield(j, d) {
				return
			}
		}
	}
}

// Check validates AL1–AL3 without mutating the monitor. Wake entry is
// evaluated hypothetically: a lock of an item donated by an active Tj
// would put Ti in Tj's wake, so AL2 is checked against the union of the
// current and entered wakes.
func (m *altruisticMonitor) Check(ev model.Ev) error {
	if err := m.t.retired("altruistic", ev); err != nil {
		return err
	}
	i := int(ev.T)
	own := m.t.row(i)
	st := ev.S
	viol := func(rule, why string) error {
		return &Violation{"altruistic", rule, ev, why}
	}
	switch st.Op {
	case model.LockShared, model.UnlockShared:
		return viol("X-only", "basic altruistic locking uses exclusive locks only")

	case model.LockExclusive:
		if own.lockedEver[st.Ent] {
			return viol("AL3", "item locked twice")
		}
		// AL2: while in the wake of Tj — including the wakes this very
		// lock would enter — everything Ti has locked, including this
		// item, must have been unlocked by Tj.
		for j, d := range m.donors(i) {
			if !d.wake[i] && !d.unlocked[st.Ent] {
				continue // not in Tj's wake, and this lock would not enter it
			}
			if !d.unlocked[st.Ent] {
				return viol("AL2", "locked an item not donated by "+m.t.sys.Name(model.TID(j))+" while in its wake")
			}
			for e := range own.lockedEver {
				if !d.unlocked[e] {
					return viol("AL2", "previously locked item "+string(e)+" was not donated by "+m.t.sys.Name(model.TID(j)))
				}
			}
		}

	case model.UnlockExclusive:
		// Always permitted.

	case model.Insert, model.Delete, model.Read, model.Write:
		if _, ok := own.held[st.Ent]; !ok {
			return viol("AL1", "operation without a lock")
		}
	}
	return nil
}

func (m *altruisticMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	i := int(ev.T)
	own := m.rows[i-m.t.base]
	if own == nil {
		own = &altRow{lockedPoint: m.t.sys.Txns[i].LockedPoint(), unlocked: make(map[model.Entity]bool), wake: make(map[int]bool)}
		m.rows[i-m.t.base] = own
	}
	st := ev.S
	switch st.Op {
	case model.LockExclusive:
		// Entering wakes: locking an item donated by an active Tj puts
		// Ti in Tj's wake.
		for _, d := range m.donors(i) {
			if d.unlocked[st.Ent] {
				d.wake[i] = true
			}
		}
	case model.UnlockExclusive:
		own.unlocked[st.Ent] = true
	}
	m.t.advance(ev)

	// A transaction reaching its locked point dissolves all wakes it
	// anchors (it can no longer donate: its lock set is final).
	if st.Op.IsLock() && m.t.row(i).pos >= own.lockedPoint {
		clear(own.wake)
	}
	return nil
}

// Grow re-synchronizes the window with the system: the tracker's rows and
// this monitor's move together.
func (m *altruisticMonitor) Grow() {
	k := m.t.grow()
	m.rows = m.rows[min(k, len(m.rows)):]
	for len(m.rows) < len(m.t.rows) {
		m.rows = append(m.rows, nil)
	}
}

// Footprint: LX is global — rule AL2 reads every transaction's unlocked
// set and position, wake entry writes the donors' wake sets, and
// reaching a locked point clears the requester's own.
// UX writes only the unlocker's own unlocked set (read elsewhere solely
// by the global LX evaluations), data operations read only the event's
// own held set (AL1), and LS/US are vetoed by the X-only rule without
// reading mutable state — all local.
func (m *altruisticMonitor) Footprint(ev model.Ev) model.Footprint {
	if ev.S.Op == model.LockExclusive {
		return model.GlobalFootprint()
	}
	return model.LocalFootprint(ev)
}

// Key: positions determine locked points, held sets and unlocked sets, but
// the wake relation depends on event order, so it is part of the key
// ("iwj;" for Ti in the wake of Tj, ascending).
func (m *altruisticMonitor) Key() string {
	var pairs [][2]int
	for k, d := range m.rows {
		if d != nil {
			for i := range d.wake {
				pairs = append(pairs, [2]int{i, m.t.base + k})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	var b strings.Builder
	b.WriteString(m.t.posKey())
	b.WriteByte('|')
	for _, p := range pairs {
		b.WriteString(strconv.Itoa(p[0]))
		b.WriteByte('w')
		b.WriteString(strconv.Itoa(p[1]))
		b.WriteByte(';')
	}
	return b.String()
}
