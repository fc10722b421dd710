package runtime

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the durable session engine: construction of an Engine (or
// PartitionedEngine, see durable_partition.go) over a disk-backed
// recovery store, and the restore path that rebuilds the transaction
// population, the committed schedule and the parked sessions from the
// WAL after a crash or restart.
//
// The restore contract, matching the write-side ordering in runtime.go
// and session.go:
//
//   - A transaction declaration (OpenRec) is durable before its open is
//     acknowledged, so every recovered event has a recovered row.
//   - A commit status record is durable before the commit is
//     acknowledged (with Config.Fsync), so every acknowledged commit is
//     recovered committed — possibly with more transactions committed
//     than acknowledged (the status landed, the ack did not).
//   - A transaction recovered active lost its in-flight attempt with
//     the process: its events are erased (cascading exactly as a live
//     abort would) and the session is restored *parked* — the client
//     reattaches with Resume inside the lease window persisted at open
//     — or abandoned outright if that window already passed.
//   - The recovered committed schedule is re-verified serializable
//     before the engine accepts work.

// newToken mints a session resume token: 64 random bits, forced nonzero
// so zero can mean "no session" in the WAL. Falls back to the clock if
// the system's entropy source fails.
func newToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint64(b[:]) | 1
	}
	return uint64(time.Now().UnixNano()) | 1
}

// RestoreInfo reports what a durable constructor recovered.
type RestoreInfo struct {
	// Events is the number of committed events surviving in the
	// recovered log.
	Events int
	// Sessions is the number of sessions restored parked, awaiting
	// Resume with their persisted tokens.
	Sessions int
	// Commits is the number of transactions recovered committed.
	Commits int
	// Clean reports that every recovered WAL ended with a clean
	// shutdown marker (no work was at risk).
	Clean bool
	// Torn reports that a torn final record was dropped somewhere (the
	// process died mid-write; the record's operation was never
	// acknowledged).
	Torn bool
}

// NewDurableEngine returns a running engine persisting into
// cfg.DataDir, after restoring whatever durable history the directory
// already holds. With an empty DataDir it is exactly NewEngine: the
// memory-only path is byte-identical.
func NewDurableEngine(init model.State, cfg Config) (*Engine, *RestoreInfo, error) {
	if cfg.DataDir == "" {
		return NewEngine(init, cfg), &RestoreInfo{Clean: true}, nil
	}
	e := newEngineCore(init, cfg, nil)
	info, err := e.restoreDir(cfg.DataDir, cfg)
	if err != nil {
		return nil, nil, err
	}
	e.startReaper()
	return e, info, nil
}

// restoreDir opens dir's durable store, rebuilds the engine from its
// recovered history and attaches the store for further appends.
func (e *Engine) restoreDir(dir string, cfg Config) (*RestoreInfo, error) {
	st, rec, err := recovery.Open(dir, recovery.Options{Fsync: cfg.Fsync})
	if err != nil {
		return nil, fmt.Errorf("runtime: opening durable store: %w", err)
	}
	var p recovery.Persister = st
	if cfg.WrapPersister != nil {
		p = cfg.WrapPersister(st)
	}
	info, err := e.restore(rec, p)
	if err != nil {
		// The store is deliberately not sealed on a failed restore
		// (Store.Close writes a clean marker, which would claim a
		// shutdown that never happened): the history on disk is
		// evidence. The open file handle dies with the process.
		return nil, err
	}
	return info, nil
}

// restore rebuilds a standalone engine from a recovered history and
// attaches p as its persister. Called before the engine accepts any
// work (no reaper, no sessions).
func (e *Engine) restore(rec recovery.Recovered, p recovery.Persister) (*RestoreInfo, error) {
	r := e.r
	info := &RestoreInfo{Clean: rec.Clean, Torn: rec.Torn}
	r.gate.drain()
	defer r.gate.undrain()

	for i, o := range rec.Opens {
		if o.G != i || o.Mirror {
			return nil, fmt.Errorf("runtime: restore: %w: open %d has G=%d mirror=%v", recovery.ErrCorrupt, i, o.G, o.Mirror)
		}
	}
	if err := r.replayRecoveredDrained(rec, false); err != nil {
		return nil, err
	}
	r.tagSrc.Store(rec.MaxTag())

	// Attach the persister *before* erasing unsettled transactions: the
	// erasure below must itself be durable, or a second restart would
	// resurrect the erased events.
	r.rec.SetPersister(p)

	if err := e.settleRestoredDrained(rec.Opens, info); err != nil {
		return nil, err
	}
	e.maxTID.Store(int64(len(r.sys.Txns)))

	if !r.rec.Events().Serializable(r.sys) {
		return nil, fmt.Errorf("runtime: restore: %w: recovered schedule is not serializable under policy %q", recovery.ErrCorrupt, r.cfg.Policy.Name())
	}
	info.Events = r.rec.Len()
	info.Commits = r.met.Commits
	return info, nil
}

// replayRecoveredDrained rebuilds the runner's transaction population,
// statuses and event log from a recovered history. Called with a full
// drain held and no persister attached (the replay must not re-append
// what it reads). partitioned selects owner translation for a
// PartitionedEngine's partition runner: the lock-manager owner id is
// the global row index o.G rather than the local index.
func (r *runner) replayRecoveredDrained(rec recovery.Recovered, partitioned bool) error {
	for i, o := range rec.Opens {
		tx := model.Txn{Name: o.Name, Steps: o.Steps}
		if tx.Len() > 0 {
			if err := checkDeclared(tx); err != nil {
				return fmt.Errorf("runtime: restore: %w: open %d: %v", recovery.ErrCorrupt, i, err)
			}
		}
		owner := -1
		if partitioned {
			owner = o.G
		}
		if t := r.addTxnDrained(tx, owner, o.Mirror); t != i {
			return fmt.Errorf("runtime: restore: %w: open %d landed at row %d", recovery.ErrCorrupt, i, t)
		}
	}
	for t, st := range rec.Status {
		if t < 0 || t >= len(r.sys.Txns) {
			return fmt.Errorf("runtime: restore: %w: status for unknown transaction %d", recovery.ErrCorrupt, t)
		}
		switch st {
		case recovery.StatusCommitted:
			r.status[t] = txCommitted
			if !r.mirror[t] {
				r.met.Commits++
			}
		case recovery.StatusAbandoned:
			r.status[t] = txAbandoned
			if !r.mirror[t] {
				r.met.GaveUp++
			}
		case recovery.StatusActive:
			r.status[t] = txActive
		default:
			return fmt.Errorf("runtime: restore: %w: unknown status %d for transaction %d", recovery.ErrCorrupt, st, t)
		}
	}
	for i, ev := range rec.Events {
		// Bounds only — no definedness check: a partition's log
		// legitimately holds a global transaction's events for entities
		// homed elsewhere, which its local structural state never
		// defines. The merged verification pass at the end of restore is
		// the integrity check that matters.
		if int(ev.T) < 0 || int(ev.T) >= len(r.sys.Txns) {
			return fmt.Errorf("runtime: restore: %w: event %d names unknown transaction %d", recovery.ErrCorrupt, i, ev.T)
		}
		if err := r.rec.AppendTagged(ev, rec.Tags[i]); err != nil {
			return fmt.Errorf("runtime: restore: %w: recovered log rejected at event %d: %v", recovery.ErrCorrupt, i, err)
		}
	}
	return nil
}

// settleRestoredDrained resolves every recovered-active local
// transaction: its in-flight attempt died with the process, so its
// events are erased (cascading as a live abort would — a committed
// cascade victim is un-committed, durably, and re-spawned engine-side);
// then the transaction is either restored as a parked session (its
// persisted lease window still open) or abandoned (window passed, or it
// never was a session). Called with a full drain held, persister
// attached. Skips mirror rows: a PartitionedEngine settles its
// cross-partition transactions globally.
func (e *Engine) settleRestoredDrained(opens []recovery.OpenRec, info *RestoreInfo) error {
	r := e.r
	// Snapshot the original actives separately: eraseDrained grows the
	// victims map with cascade victims, and an un-committed cascade
	// victim is re-spawned engine-driven — it must NOT be parked as a
	// session below.
	orig := map[int]bool{}
	victims := map[int]bool{}
	for t := range r.sys.Txns {
		if r.status[t] == txActive && !r.mirror[t] {
			orig[t] = true
			victims[t] = true
		}
	}
	if len(victims) > 0 {
		r.eraseDrained(victims)
		if r.fatal != nil {
			return fmt.Errorf("runtime: restore: %w", r.fatal)
		}
	}
	now := e.now().UnixNano()
	for t := range r.sys.Txns {
		if !orig[t] || r.status[t] != txActive {
			continue
		}
		o := opens[t]
		if o.Deadline != 0 && o.Deadline <= now {
			// The lease ran out while the process was down; the client
			// is gone. Abandon, durably.
			r.status[t] = txAbandoned
			r.met.GaveUp++
			r.met.LeaseExpired++
			r.persistStatusDrained(t, recovery.StatusAbandoned)
			continue
		}
		st := &sessState{token: o.Token}
		st.deadline.Store(o.Deadline)
		st.parked.Store(true)
		e.adopt(t, o.G, r.sys.Txns[t], st, r.gen[t], false)
		info.Sessions++
	}
	if r.fatal != nil {
		return fmt.Errorf("runtime: restore: %w", r.fatal)
	}
	return nil
}
