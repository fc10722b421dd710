package runtime

import (
	"fmt"

	"locksafe/internal/model"
)

// Inspection is a diagnostic snapshot of an engine's world state —
// PartitionedEngine.Inspect's, or the end state of a reference drive
// (ReplayTrace) — in the digest vocabulary of the equivalence tests:
// everything the admission pipeline influences, rendered canonically so
// digests from different substrates (the reference drive, in-process
// sessions, network sessions) can be compared with ==.
type Inspection struct {
	// Log is the surviving event log in execution order.
	Log string
	// State renders the structural state after the log.
	State string
	// MonitorKey is the policy monitor's memoization key after the log,
	// "(truncated)" once the engine truncated its log.
	MonitorKey string
	// Serializable is the log's serializability verdict.
	Serializable bool
	// OpenSessions counts the open sessions, parked ones included.
	OpenSessions int
	// Metrics is the engine's accounting (wall-clock fields excluded from
	// any digest).
	Metrics Metrics
}

// ReplayTrace feeds a legal proper schedule through the admission
// pipeline of a fresh one-partition engine one event at a time,
// single-threaded, so the pipeline's decisions are deterministic and
// comparable across gate configurations and execution substrates. A transaction whose event is
// refused (policy veto and abort, or staleness after a cascade) is
// dropped: its remaining events are skipped and no retry is attempted.
// When commit is true, a transaction whose events were all admitted is
// committed immediately after its last event.
//
// This is the reference drive of the session-equivalence tests: the
// same trace pushed through in-process Sessions or a network client
// must produce an identical digest. It steps the partition's rows
// directly, not through OpenSession, so the reference stays independent
// of the session layer.
func ReplayTrace(sys *model.System, sched model.Schedule, cfg Config, commit bool) (*Inspection, error) {
	r := referencePartition(sys, cfg)
	dropped := make([]bool, len(sys.Txns))
	fed := make([]int, len(sys.Txns))
	gen := make([]int, len(sys.Txns)) // the generation each drive is on
	for _, ev := range sched {
		tn := int(ev.T)
		if dropped[tn] {
			continue
		}
		if r.gen[tn] != gen[tn] {
			// A cascade invalidated the transaction's attempt between
			// events — exactly what a session client observes as
			// ErrAborted before its next step. Drop.
			dropped[tn] = true
			continue
		}
		if !r.rowTxn(tn).execStep(gen[tn], ev.S) {
			// Vetoed (and aborted) or stale: drop.
			dropped[tn] = true
			continue
		}
		fed[tn]++
		if commit && fed[tn] == sys.Txns[tn].Len() {
			// Immediately after tn's own last event nothing can have
			// interleaved, so a single-threaded commit cannot be stale.
			if !r.rowTxn(tn).commit(gen[tn]) {
				return nil, fmt.Errorf("runtime: single-threaded commit of T%d went stale", tn+1)
			}
		}
	}
	r.gate.drain()
	r.flushPending()
	r.gate.undrain()
	if err := r.pe.failed(); err != nil {
		return nil, err
	}
	r.met.Events = r.rec.Len()
	r.met.Replayed = r.rec.Stats().Replayed
	return &Inspection{
		Log:          r.rec.Events().String(),
		State:        fmt.Sprintf("%v", r.rec.State()),
		MonitorKey:   r.rec.Monitor().Key(),
		Serializable: r.rec.Events().Serializable(sys),
		Metrics:      r.met,
	}, nil
}

// referencePartition returns the one partition of a fresh engine with
// sys's transactions registered as its rows — row t owned by lock owner
// t — through addTxnDrained, the way a restore registers recovered rows.
func referencePartition(sys *model.System, cfg Config) *runner {
	cfg.Partitions = 1
	r := newPartitionedCore(sys.Init, cfg).parts[0]
	r.gate.drain()
	for t, tx := range sys.Txns {
		r.addTxnDrained(tx, t)
	}
	r.gate.undrain()
	return r
}

// Digest renders the comparable part of the snapshot as one string
// (wall-clock metrics and open sessions excluded).
func (ins *Inspection) Digest() string {
	return fmt.Sprintf("log:%s\nkey:%q events:%d\n%s", ins.Log, ins.MonitorKey, ins.Metrics.Events, ins.Outcome())
}

// Outcome is the part of Digest a truncating engine can still be
// compared on: the structural state, the verdict, and the commit,
// give-up and abort counts — not the log, the monitor key or the event
// count (which counts a truncated spanning event once per replica).
func (ins *Inspection) Outcome() string {
	m := ins.Metrics
	return fmt.Sprintf("state:%s serializable:%v\ncommits:%d gaveup:%d dead:%d pol:%d imp:%d casc:%d",
		ins.State, ins.Serializable, m.Commits, m.GaveUp, m.DeadlockAborts, m.PolicyAborts, m.ImproperAborts, m.CascadeAborts)
}
