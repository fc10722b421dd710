package model

import (
	"fmt"
	"strings"
)

// TID identifies a transaction by its index within a System.
type TID int

// Ev is a scheduled step: a step together with the transaction that issues
// it.
type Ev struct {
	T TID
	S Step
}

// String renders the event as "T2:(W a)" using the transaction index.
func (e Ev) String() string { return fmt.Sprintf("T%d:%s", int(e.T), e.S) }

// Schedule is an ordering of steps of some transactions of a system that
// preserves the order of the steps of each transaction.
type Schedule []Ev

// System is a transaction system τ together with the initial structural
// state against which properness is judged.
type System struct {
	// Init is the structural state in which schedules begin. A nil Init
	// means the empty database.
	Init State
	Txns []Txn
	// floor is the retirement floor, see Retire.
	floor int
}

// NewSystem builds a system over the given initial state.
func NewSystem(init State, txns ...Txn) *System {
	if init == nil {
		init = NewState()
	}
	return &System{Init: init, Txns: txns}
}

// Txn returns the transaction with the given TID.
func (sys *System) Txn(t TID) Txn { return sys.Txns[int(t)] }

// Add appends a transaction to the system and returns its TID. It is the
// growth half of the session runtime's open protocol: after Add, every
// Monitor built over sys must be told to Grow before it sees an event of
// the new transaction. The caller is responsible for serializing Add
// with all concurrent readers of sys.Txns.
func (sys *System) Add(t Txn) TID {
	sys.Txns = append(sys.Txns, t)
	return TID(len(sys.Txns) - 1)
}

// Retire raises the retirement floor: the caller promises that the
// transactions below it are settled for good — they will issue no further
// event, and own no event of any schedule a Monitor over sys will be
// asked about again (a log suffix replayed after an abort). Txns stays
// dense (names and bodies remain readable); what retirement licenses is
// for every Monitor to drop its bookkeeping rows below the floor at its
// next Grow. The floor never moves down and never passes len(Txns).
// Serialized by the caller like Add.
func (sys *System) Retire(floor int) {
	sys.floor = max(sys.floor, min(floor, len(sys.Txns)))
}

// Floor returns the retirement floor (0 until Retire is first called).
func (sys *System) Floor() int { return sys.floor }

// Name returns the display name of a transaction, defaulting to "T<i+1>".
func (sys *System) Name(t TID) string {
	if n := sys.Txns[int(t)].Name; n != "" {
		return n
	}
	return fmt.Sprintf("T%d", int(t)+1)
}

// WellFormed checks that every transaction in the system is well-formed and
// locks each entity at most once.
func (sys *System) WellFormed() error {
	for i, t := range sys.Txns {
		if err := t.WellFormed(); err != nil {
			return err
		}
		if !t.LocksAtMostOnce() {
			return fmt.Errorf("model: transaction %s locks an entity more than once", sys.Name(TID(i)))
		}
	}
	return nil
}

// String renders the schedule as a single line of events.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// Steps projects the schedule onto its steps, dropping transaction tags.
func (s Schedule) Steps() []Step {
	out := make([]Step, len(s))
	for i, e := range s {
		out[i] = e.S
	}
	return out
}

// Clone returns an independent copy of the schedule.
func (s Schedule) Clone() Schedule {
	c := make(Schedule, len(s))
	copy(c, s)
	return c
}

// Positions returns, per transaction of the system, how many of its steps
// appear in the schedule.
func (s Schedule) Positions(sys *System) []int {
	pos := make([]int, len(sys.Txns))
	for _, e := range s {
		pos[int(e.T)]++
	}
	return pos
}

// PreservesOrder verifies that s is a valid schedule of sys: every event's
// step matches the next unexecuted step of its transaction, so the order of
// each transaction's steps is preserved and no step appears twice.
func (s Schedule) PreservesOrder(sys *System) error {
	pos := make([]int, len(sys.Txns))
	for i, e := range s {
		ti := int(e.T)
		if ti < 0 || ti >= len(sys.Txns) {
			return fmt.Errorf("model: event %d references unknown transaction T%d", i, ti)
		}
		t := sys.Txns[ti]
		if pos[ti] >= len(t.Steps) {
			return fmt.Errorf("model: event %d (%s) exceeds the steps of %s", i, e, sys.Name(e.T))
		}
		if t.Steps[pos[ti]] != e.S {
			return fmt.Errorf("model: event %d is %s but step %d of %s is %s",
				i, e, pos[ti], sys.Name(e.T), t.Steps[pos[ti]])
		}
		pos[ti]++
	}
	return nil
}

// CompleteOver reports whether the schedule contains all steps of every
// transaction in the given set (and no steps of any other transaction).
// The paper's schedules range over "some transactions of τ": a complete
// schedule over a subset M executes each member of M to completion.
func (s Schedule) CompleteOver(sys *System, subset []TID) bool {
	want := make(map[TID]bool, len(subset))
	for _, t := range subset {
		want[t] = true
	}
	pos := s.Positions(sys)
	for i := range sys.Txns {
		t := TID(i)
		switch {
		case want[t] && pos[i] != sys.Txns[i].Len():
			return false
		case !want[t] && pos[i] != 0:
			return false
		}
	}
	return true
}

// Participants returns the TIDs with at least one event in s, in first-
// appearance order.
func (s Schedule) Participants() []TID {
	seen := make(map[TID]bool)
	var out []TID
	for _, e := range s {
		if !seen[e.T] {
			seen[e.T] = true
			out = append(out, e.T)
		}
	}
	return out
}

// Serial builds the schedule consisting of a serial execution of the given
// transaction prefixes in order: all steps of prefixes[0], then all steps
// of prefixes[1], and so on. ids gives the TID of each prefix.
func Serial(ids []TID, prefixes []Txn) Schedule {
	var s Schedule
	for i, p := range prefixes {
		for _, st := range p.Steps {
			s = append(s, Ev{T: ids[i], S: st})
		}
	}
	return s
}

// SerialSystem builds the complete serial schedule of all transactions of
// sys in index order.
func SerialSystem(sys *System) Schedule {
	var s Schedule
	for i, t := range sys.Txns {
		for _, st := range t.Steps {
			s = append(s, Ev{T: TID(i), S: st})
		}
	}
	return s
}

// lockTable tracks, during replay, which transactions hold which locks.
type lockTable map[Entity]map[TID]Mode

func (lt lockTable) holders(e Entity) map[TID]Mode {
	h := lt[e]
	if h == nil {
		h = make(map[TID]Mode)
		lt[e] = h
	}
	return h
}

// canLock reports whether transaction t may acquire a lock on e in mode m
// without creating an illegal state: no *other* transaction may hold a
// conflicting lock.
func (lt lockTable) canLock(t TID, e Entity, m Mode) bool {
	for holder, hm := range lt[e] {
		if holder == t {
			continue
		}
		if hm.Conflicts(m) {
			return false
		}
	}
	return true
}

// Replay is a step-by-step executor for schedules of a system. It tracks
// the structural state, the lock table and the serializability graph, and
// reports the first legality or properness violation.
type Replay struct {
	sys   *System
	state State
	locks lockTable
	pos   []int
	// done[e] lists, in order, the events already executed on entity e;
	// used to build D(S) edges incrementally.
	done map[Entity][]Ev
	// graph is the serializability graph built so far.
	graph *SGraph
}

// NewReplay starts a replay of schedules of sys from its initial state.
func NewReplay(sys *System) *Replay {
	return &Replay{
		sys:   sys,
		state: sys.Init.Clone(),
		locks: make(lockTable),
		pos:   make([]int, len(sys.Txns)),
		done:  make(map[Entity][]Ev),
		graph: NewSGraph(len(sys.Txns)),
	}
}

// Clone returns an independent copy of the replay, so search procedures can
// branch without undo logic.
func (r *Replay) Clone() *Replay {
	c := &Replay{
		sys:   r.sys,
		state: r.state.Clone(),
		locks: make(lockTable, len(r.locks)),
		pos:   make([]int, len(r.pos)),
		done:  make(map[Entity][]Ev, len(r.done)),
		graph: r.graph.Clone(),
	}
	copy(c.pos, r.pos)
	for e, holders := range r.locks {
		h := make(map[TID]Mode, len(holders))
		for t, m := range holders {
			h[t] = m
		}
		c.locks[e] = h
	}
	for e, evs := range r.done {
		cp := make([]Ev, len(evs))
		copy(cp, evs)
		c.done[e] = cp
	}
	return c
}

// State returns the current structural state (not a copy).
func (r *Replay) State() State { return r.state }

// Graph returns the serializability graph of the prefix replayed so far
// (not a copy).
func (r *Replay) Graph() *SGraph { return r.graph }

// Pos returns how many steps of transaction t have been replayed.
func (r *Replay) Pos(t TID) int { return r.pos[int(t)] }

// NextStep returns the next unexecuted step of t, or false if t has
// finished.
func (r *Replay) NextStep(t TID) (Step, bool) {
	i := int(t)
	if i < 0 || i >= len(r.sys.Txns) || r.pos[i] >= r.sys.Txns[i].Len() {
		return Step{}, false
	}
	return r.sys.Txns[i].Steps[r.pos[i]], true
}

// ErrKind classifies replay failures.
type ErrKind uint8

const (
	// ErrOrder means the event does not match the transaction's next step.
	ErrOrder ErrKind = iota
	// ErrIllegal means two distinct transactions would hold conflicting
	// locks on an entity.
	ErrIllegal
	// ErrImproper means a data step is not defined in the current
	// structural state.
	ErrImproper
)

func (k ErrKind) String() string {
	switch k {
	case ErrOrder:
		return "order violation"
	case ErrIllegal:
		return "illegal (conflicting locks)"
	default:
		return "improper (step undefined in structural state)"
	}
}

// ReplayError reports why an event could not be executed.
type ReplayError struct {
	Kind ErrKind
	Ev   Ev
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("model: cannot execute %s: %s", e.Ev, e.Kind)
}

// Check reports whether the event could be executed next without violating
// order, legality or properness, without executing it.
func (r *Replay) Check(ev Ev) error {
	next, ok := r.NextStep(ev.T)
	if !ok || next != ev.S {
		return &ReplayError{ErrOrder, ev}
	}
	st := ev.S
	if st.Op.IsLock() && !r.locks.canLock(ev.T, st.Ent, st.Op.LockMode()) {
		return &ReplayError{ErrIllegal, ev}
	}
	if st.Op.IsData() && !r.state.Defined(st) {
		return &ReplayError{ErrImproper, ev}
	}
	return nil
}

// Do executes the event, updating state, locks and the serializability
// graph, or returns the violation that prevents it.
func (r *Replay) Do(ev Ev) error {
	if err := r.Check(ev); err != nil {
		return err
	}
	st := ev.S
	switch {
	case st.Op.IsLock():
		r.locks.holders(st.Ent)[ev.T] = st.Op.LockMode()
	case st.Op.IsUnlock():
		delete(r.locks.holders(st.Ent), ev.T)
	default:
		r.state.Apply(st)
	}
	for _, prev := range r.done[st.Ent] {
		if prev.T != ev.T && prev.S.Conflicts(st) {
			r.graph.AddEdge(prev.T, ev.T)
		}
	}
	r.done[st.Ent] = append(r.done[st.Ent], ev)
	r.pos[int(ev.T)]++
	return nil
}

// Run replays the whole schedule, stopping at the first violation.
func (r *Replay) Run(s Schedule) error {
	for _, ev := range s {
		if err := r.Do(ev); err != nil {
			return err
		}
	}
	return nil
}

// Legal reports whether s is a legal schedule of sys: no prefix has two
// distinct transactions holding conflicting locks on a common entity.
// Properness violations do not make a schedule illegal; they are checked
// separately by Proper.
func (s Schedule) Legal(sys *System) bool {
	r := NewReplay(sys)
	for _, ev := range s {
		if err := r.Check(ev); err != nil {
			re := err.(*ReplayError)
			if re.Kind == ErrIllegal || re.Kind == ErrOrder {
				return false
			}
		}
		// Execute anyway for improper data steps: legality is
		// independent of properness.
		st := ev.S
		switch {
		case st.Op.IsLock():
			r.locks.holders(st.Ent)[ev.T] = st.Op.LockMode()
		case st.Op.IsUnlock():
			delete(r.locks.holders(st.Ent), ev.T)
		default:
			r.state.Apply(st)
		}
		r.pos[int(ev.T)]++
	}
	return true
}

// Proper reports whether s is proper for the system's initial structural
// state: every data step is defined in the structural state in which it is
// executed.
func (s Schedule) Proper(sys *System) bool {
	state := sys.Init.Clone()
	for _, ev := range s {
		if !state.Defined(ev.S) {
			return false
		}
		state.Apply(ev.S)
	}
	return true
}

// LegalAndProper replays s and reports whether it is simultaneously a valid
// ordering, legal and proper.
func (s Schedule) LegalAndProper(sys *System) bool {
	return NewReplay(sys).Run(s) == nil
}

// Graph computes the serializability graph D(S) of the schedule: a node
// per transaction of the system and an edge (Ti, Tj) whenever a step of Ti
// precedes a conflicting step of Tj in s.
func (s Schedule) Graph(sys *System) *SGraph {
	g := NewSGraph(len(sys.Txns))
	byEnt := make(map[Entity][]Ev)
	for _, ev := range s {
		for _, prev := range byEnt[ev.S.Ent] {
			if prev.T != ev.T && prev.S.Conflicts(ev.S) {
				g.AddEdge(prev.T, ev.T)
			}
		}
		byEnt[ev.S.Ent] = append(byEnt[ev.S.Ent], ev)
	}
	return g
}

// Serializable reports whether the schedule is (conflict-)serializable:
// D(S) is acyclic. It decides that on a subgraph of D(S) with the same
// reachability, built in one pass: per entity only the last conflicting
// step with everything (an operation outside {R, LS, US}) and the
// non-conflicting steps since it can be the *nearest* conflict of a later
// step, and every other edge of D(S) is a path through those. Graph is
// quadratic in the steps on one entity; a drain-time verdict over a hot
// entity must not be.
func (s Schedule) Serializable(sys *System) bool {
	type frontier struct {
		last   TID   // owner of the last step outside {R, LS, US}
		any    bool  // whether there has been one
		shared []TID // owners of the steps since
	}
	g := NewSGraph(len(sys.Txns))
	byEnt := make(map[Entity]*frontier)
	for _, ev := range s {
		f := byEnt[ev.S.Ent]
		if f == nil {
			f = new(frontier)
			byEnt[ev.S.Ent] = f
		}
		if f.any {
			g.AddEdge(f.last, ev.T)
		}
		if nonConflicting(ev.S.Op) {
			f.shared = append(f.shared, ev.T)
			continue
		}
		for _, t := range f.shared {
			g.AddEdge(t, ev.T)
		}
		f.last, f.any, f.shared = ev.T, true, f.shared[:0]
	}
	return g.Acyclic()
}

// FinalState computes the structural state after executing the schedule,
// with ok=false if the schedule is improper.
func (s Schedule) FinalState(sys *System) (State, bool) {
	return sys.Init.ApplySeq(s.Steps())
}
