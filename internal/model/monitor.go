package model

// Monitor restricts schedules to those admissible under a locking policy's
// runtime rules (for example the altruistic wake rule or the DDAG policy's
// "present state of the graph" conditions). Checkers and executors drive a
// Monitor through the events of a schedule; the Monitor vetoes events that
// violate the policy.
//
// Check and Step are invoked only with events already known to respect
// per-transaction order, legality and properness.
//
// Check is the speculative half of the protocol: it reports whether ev
// would be admissible as the next event without mutating the monitor, so
// hot paths can probe candidate events without cloning monitor state.
// Step applies the event; it must veto exactly the events Check vetoes and
// must leave the monitor unchanged when it returns an error (validate
// first, then mutate). Fork returns an independent copy for search
// procedures that genuinely branch, such as checker state expansion, and
// for recovery checkpoints: stepping either monitor never shows in the
// other. Independent does not mean deep — a row that can no longer
// change (its transaction finished holding nothing) may be shared — so
// a fork costs the rows still in play, not the transactions ever seen.
// Key returns a compact serialization of the monitor state for
// memoization, or "" to disable memoization across states containing
// this monitor.
//
// Footprint declares which transactions' bookkeeping and which entities'
// shared state evaluating ev (Check and Step) reads or writes, so
// concurrent executors can admit footprint-disjoint events in parallel.
// The declaration must be sound — everything the evaluation touches must
// be covered — and it must be *pure*: computable from the event and the
// policy's static configuration (for example how entity names parse)
// alone, never from the transaction system or mutable monitor state.
// Executors call it before taking any lock, and keep one monitor over
// an empty system for it: that monitor must give every event the
// footprint the live one would. GlobalFootprint() is always a correct
// answer and is the expected fallback for cross-cutting rules.
//
// Grow re-synchronizes the monitor with its System's population window
// [Floor(), len(Txns)), for long-lived executors whose transaction
// population is not known up front (the session runtime). After the
// caller appends transactions (System.Add), Grow extends the
// per-transaction bookkeeping to cover them, the new rows in their
// never-started state; after the caller raises the retirement floor
// (System.Retire), Grow drops the rows below it. Existing rows above the
// floor are untouched, so a grown monitor behaves exactly like one
// constructed over the extended system with the same events applied. A
// monitor drops a row only if it is *inert* — never started, or finished
// and holding nothing — and keeps every row from the first one that is
// not, whatever the floor says; each policy states why an inert row of
// another transaction can never change one of its verdicts. An event of
// a dropped transaction is vetoed. A fork is grown by whoever next uses
// it, not when its original is. Grow must be serialized with
// Check/Step/Fork by the caller; executors call it only while holding
// exclusive ownership of the monitor.
type Monitor interface {
	Check(ev Ev) error
	Step(ev Ev) error
	Footprint(ev Ev) Footprint
	Fork() Monitor
	Grow()
	Key() string
}

// PermissiveMonitor admits every schedule; it represents the absence of
// policy runtime rules and serves as the negative control in the policy
// experiments.
type PermissiveMonitor struct{}

// Check always succeeds.
func (PermissiveMonitor) Check(Ev) error { return nil }

// Step always succeeds.
func (PermissiveMonitor) Step(Ev) error { return nil }

// Footprint is local: the monitor reads no state at all, so only the
// executor's own per-event bookkeeping is covered.
func (PermissiveMonitor) Footprint(ev Ev) Footprint { return LocalFootprint(ev) }

// Fork returns the monitor itself (it is stateless).
func (PermissiveMonitor) Fork() Monitor { return PermissiveMonitor{} }

// Grow is a no-op: the monitor keeps no per-transaction state.
func (PermissiveMonitor) Grow() {}

// Key returns a constant: the monitor carries no state.
func (PermissiveMonitor) Key() string { return "-" }
