// Package policy implements the locking policies studied in the paper as
// runtime monitors: deterministic automata that accept or veto each next
// event of a schedule according to the policy's rules.
//
//   - TwoPhase: classic two-phase locking (baseline; always safe).
//   - Tree: the static tree policy of Silberschatz & Kedem [SK80]
//     (baseline for the dynamic policies).
//   - DDAG: the dynamic directed acyclic graph policy of Section 4
//     (rules L1–L5), exclusive locks only.
//   - Altruistic: altruistic locking of Salem, Garcia-Molina & Shands
//     [SGMS94] as presented in Section 5 (rules AL1–AL3).
//   - DTR: the dynamic tree policy of Croker & Maier [CM86] as presented
//     in Section 6 (rules DT0–DT3).
//   - Unrestricted: no rules at all (negative control).
//
// A monitor's Step is called only with events that already respect
// per-transaction order, legality (no conflicting locks) and properness
// (steps defined in the structural state); the monitor checks only the
// policy's own rules. Monitors are used by the safety checkers to restrict
// exploration to policy-admissible schedules and by the execution engine
// to reject (and abort) transactions that break the rules at run time.
package policy

import (
	"fmt"
	"maps"
	"strconv"
	"strings"

	"locksafe/internal/model"
)

// Policy constructs runtime monitors for transaction systems.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// NewMonitor returns a fresh monitor for schedules of sys starting at
	// the system's initial state.
	NewMonitor(sys *model.System) model.Monitor
}

// Violation is the error returned when a step breaks a policy rule.
type Violation struct {
	Policy string
	Rule   string
	Ev     model.Ev
	Why    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s: rule %s violated by %s: %s", v.Policy, v.Rule, v.Ev, v.Why)
}

// row is one transaction's bookkeeping: its position, the locks it holds,
// the entities it has ever locked and whether it has released any lock.
type row struct {
	pos        int
	held       map[model.Entity]model.Mode
	lockedEver map[model.Entity]bool
	unlocked   bool
}

// unstarted is the row of every transaction that has executed nothing.
// It is shared and never written: advance replaces it by a private row
// at the transaction's first event.
var unstarted = &row{}

// inert reports whether the row can neither change nor matter again: its
// transaction never started, or finished (n is its length) holding
// nothing. No monitor will step such a row, so forks share it; and no
// rule of any policy reads another transaction's row unless that
// transaction is active or holds a lock, so Grow may drop it once the
// system says the transaction is retired.
func (r *row) inert(n int) bool {
	return r == unstarted || (r.pos >= n && len(r.held) == 0)
}

// tracker is the bookkeeping shared by all monitors: one row per
// transaction of the window [base, len(sys.Txns)). Rows below base
// belonged to retired transactions and are gone.
type tracker struct {
	sys  *model.System
	base int
	rows []*row
}

func newTracker(sys *model.System) *tracker {
	t := &tracker{sys: sys}
	t.grow()
	return t
}

// row returns transaction i's row; i must be in the window.
func (t *tracker) row(i int) *row { return t.rows[i-t.base] }

// end is one past the last transaction the tracker covers.
func (t *tracker) end() int { return t.base + len(t.rows) }

// clone copies the window. Inert rows are shared by reference; a row
// that can still change is copied, so neither tracker sees the other
// advance.
func (t *tracker) clone() *tracker {
	c := &tracker{sys: t.sys, base: t.base, rows: make([]*row, len(t.rows))}
	for k, r := range t.rows {
		if !r.inert(t.sys.Txns[t.base+k].Len()) {
			r = &row{pos: r.pos, unlocked: r.unlocked, held: maps.Clone(r.held), lockedEver: maps.Clone(r.lockedEver)}
		}
		c.rows[k] = r
	}
	return c
}

// grow re-synchronizes the window with the system: unstarted rows are
// appended for the transactions added since the last grow, and rows
// below the system's retirement floor are dropped — up to the first one
// that is not inert, which the tracker keeps (and everything above it)
// whatever the floor says. Appending is in place: clone never shares a
// backing array. Returns the number of rows dropped, for monitors that
// keep rows of their own in step.
func (t *tracker) grow() int {
	for n := len(t.sys.Txns); t.end() < n; {
		t.rows = append(t.rows, unstarted)
	}
	k := 0
	for t.base+k < t.sys.Floor() && t.rows[k].inert(t.sys.Txns[t.base+k].Len()) {
		k++
	}
	t.rows = t.rows[k:]
	t.base += k
	return k
}

// retired vetoes an event of a transaction whose row has been dropped;
// every monitor's Check starts here, so no rule ever indexes below base.
func (t *tracker) retired(policy string, ev model.Ev) error {
	if int(ev.T) >= t.base {
		return nil
	}
	return &Violation{policy, "retired", ev, "transaction " + t.sys.Name(ev.T) + " is below the retirement floor"}
}

// advance applies the event's effect on positions, held locks and
// locked-ever sets. It must be called after a monitor accepts the event.
func (t *tracker) advance(ev model.Ev) {
	r := t.row(int(ev.T))
	if r == unstarted {
		r = &row{held: make(map[model.Entity]model.Mode), lockedEver: make(map[model.Entity]bool)}
		t.rows[int(ev.T)-t.base] = r
	}
	r.pos++
	switch {
	case ev.S.Op.IsLock():
		r.held[ev.S.Ent] = ev.S.Op.LockMode()
		r.lockedEver[ev.S.Ent] = true
	case ev.S.Op.IsUnlock():
		delete(r.held, ev.S.Ent)
		r.unlocked = true
	}
}

// active reports whether transaction i has started but not finished.
func (t *tracker) active(i int) bool {
	p := t.row(i).pos
	return p > 0 && p < t.sys.Txns[i].Len()
}

// anyHolds reports whether any transaction currently holds a lock on e.
func (t *tracker) anyHolds(e model.Entity) bool {
	for _, r := range t.rows {
		if _, ok := r.held[e]; ok {
			return true
		}
	}
	return false
}

// posKey serializes the position vector; for monitors whose entire state
// is a function of positions this is a complete memoization key. It
// covers the window: with rows retired it starts "@<base>:", with none
// it is the plain vector.
func (t *tracker) posKey() string {
	var b strings.Builder
	if t.base > 0 {
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(t.base))
		b.WriteByte(':')
	}
	for k, r := range t.rows {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(r.pos))
	}
	return b.String()
}

// DTRForest returns the current database forest of a DTR monitor, or nil
// if m is not one. The figure walkthroughs use it to display the forest.
func DTRForest(m model.Monitor) *forestView {
	if d, ok := m.(*dtrMonitor); ok {
		return &forestView{d}
	}
	return nil
}

// forestView renders a DTR monitor's forest.
type forestView struct{ d *dtrMonitor }

// String renders the forest in the graph.Forest format.
func (v *forestView) String() string { return v.d.forest.String() }

// All returns every implemented policy, in presentation order.
func All() []Policy {
	return []Policy{TwoPhase{}, Tree{}, DDAG{}, DDAGSX{}, Altruistic{}, DTR{}, Unrestricted{}}
}

// ByName resolves a policy by its Name (case-insensitive); lockd's
// -policy flag and similar front doors use it.
func ByName(name string) (Policy, bool) {
	for _, p := range All() {
		if strings.EqualFold(p.Name(), name) {
			return p, true
		}
	}
	return nil, false
}

// Names lists the recognized policy names, for usage messages.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name()
	}
	return out
}

// Unrestricted is the no-rules policy: every legal proper schedule is
// admissible. Randomly locked transaction systems run under Unrestricted
// are the negative control of the policy-safety experiment.
type Unrestricted struct{}

// Name returns "unrestricted".
func (Unrestricted) Name() string { return "unrestricted" }

// NewMonitor returns a monitor that admits everything.
func (Unrestricted) NewMonitor(*model.System) model.Monitor { return model.PermissiveMonitor{} }
