package runtime

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/lockmgr"
	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the session engine: n ≥ 1 entity-hash partitions
// (model.PartitionOf), each a runner with its own admission gate,
// sequencer and recovery core. Every session's transaction is a row of
// the one row machine (txn, runtime.go), and OpenSession decides its
// span. A session whose declared body — steps plus their footprints —
// touches entities of a single partition spans that partition alone: it
// is opened, stepped, committed, reaped and recovered there with zero
// cross-partition coordination; its gate drains, checkpoints and
// compactions involve one partition's stripes only. With n = 1 every
// body is such. With n > 1, a body with a global footprint (DTR,
// altruistic donation, INSERT/DELETE) or entities spanning partitions
// spans all of them: its drain quiesces every partition (the
// distributed analogue of the stripe drain), each event is evaluated
// under the combined view — the AND of every partition's monitor verdict
// — and appended to every partition's log under one shared sequence tag,
// so the per-partition logs merge back into a single global execution
// order. DESIGN.md ("Partitioned engines") gives the soundness argument;
// the randomized-trace equivalence test pins serialized ≡ striped ≡
// partitioned across 1/2/8 partitions.
//
// Soundness in one paragraph: every event on entity e lands in
// partition-of-e's log — a local event is homed there by spanOf, a
// spanning event is logged everywhere — so each partition's structural
// state is authoritative for its own entities (definedness checks and
// the merged state consult the home replica); policies whose monitors
// consult shared structure (tree, DDAG) declare structural events
// global in their footprints, so the structure those monitors read is
// identical in all replicas. Local-footprint events of transactions
// homed in different partitions have disjoint footprints (they touch
// only their own transaction's bookkeeping and entities of their home
// partition), so they commute — exactly the stripe-disjointness
// argument lifted one level. A spanning event's verdict decomposes over
// partitions because every policy's cross-cutting rules are
// conjunctions of per-transaction conditions, and every transaction's
// bookkeeping lives whole in its home partition (local) or in every
// partition (spanning). A spanning abort compacts every partition under
// its drain; a local transaction caught in the cascade is torn down in
// its home partition, and a local abort can never cascade onto a
// spanning transaction (local bodies contain no structural events and no
// donations), which the row machine enforces as an invariant.

// Sess is a client-paced session of a SessionEngine. There is one
// implementation, wherever it runs.
type Sess = *Session

// SessionEngine is the session-serving surface of PartitionedEngine; the
// network server (internal/server) is written against it, which is what
// makes partitioning transparent to the wire protocol.
type SessionEngine interface {
	// OpenSession opens a declared transaction and returns its session.
	OpenSession(tx model.Txn) (Sess, error)
	// OpenRun opens a declared transaction the caller will drive with
	// Session.Run and answer with its outcome alone (see
	// PartitionedEngine.OpenRun).
	OpenRun(tx model.Txn) (Sess, error)
	// Resume reattaches a parked session by id and token (see
	// PartitionedEngine.Resume).
	Resume(sid int, token uint64) (Sess, error)
	// Stats returns a consistent metrics snapshot.
	Stats() Metrics
	// Inspect returns the diagnostic world-state snapshot (O(log)).
	Inspect() Inspection
	// OpenSessions returns the number of currently open sessions.
	OpenSessions() int
	// AwaitDetached blocks until every open session has finished or is
	// parked, or ctx ends (see sessHost.AwaitDetached).
	AwaitDetached(ctx context.Context)
	// Reap aborts lease-expired sessions and reports how many.
	Reap() int
	// Close shuts the engine down and verifies the committed schedule.
	Close() (*Result, error)
}

// NewSessionEngine returns a running memory-only session engine of
// max(1, cfg.Partitions) partitions over the given initial structural
// state (nil means the empty database; it is replicated into every
// partition). It is NewDurableSessionEngine without a DataDir.
func NewSessionEngine(init model.State, cfg Config) SessionEngine {
	cfg.DataDir = ""
	e, _, _ := NewDurableSessionEngine(init, cfg) // cannot fail: nothing is restored
	return e
}

// PartitionedEngine is the entity-partitioned session engine. See the
// file comment for the execution model. Its partitions (runners) point
// back at it for what they share: the configuration, one lock manager
// (cross-partition deadlock cycles need a single detector), one
// footprint monitor, the session host's MPL semaphore, one event-tag
// source (per-partition logs merge by tag), one re-run group and the
// table of spanning rows; everything else — gate, sequencer, recovery
// core, checkpoints — is per-partition. Its one session host serves
// every session, keyed by session id.
type PartitionedEngine struct {
	sessHost
	parts span
	cfg   Config
	mgr   *lockmgr.Manager
	tags  atomic.Uint64
	// fpMon is a monitor over an empty system consulted only for
	// Footprint, which depends on the event and the policy's static
	// configuration alone (model.Monitor), so it classifies declared
	// bodies at Open and sizes every fast-path admission's stripe set
	// without a lock. The live monitors are replaced by compaction and
	// must not be touched unlocked.
	fpMon model.Monitor
	init  model.State

	// start anchors Metrics.Elapsed (always wall clock, even with an
	// injected lease Clock).
	start time.Time
	// wg counts the engine's cascade re-runs, the goroutines driving an
	// un-committed transaction back to commit.
	wg sync.WaitGroup

	// gmu guards rows. It is a leaf lock: held briefly, never while
	// acquiring a gate drain.
	gmu sync.Mutex
	// rows[g] locates session id g's transaction row by its owner
	// replica, whose system holds the declared body. The table is dense
	// and pointer-free, so the collector never scans it.
	rows []rowRef
	// spanning holds the rows of transactions spanning several
	// partitions, by session id; it is written only under every
	// partition's drain. A row absent from it spans its home partition
	// alone. Only the owner replica's status, gen, attempts and abortCause
	// entries are a row's bookkeeping; status is kept in step on every
	// replica.
	spanning map[int]*txn
}

// rowRef locates a transaction row: its owner partition p and its local
// index t there. p is -1 until the row's open has registered it, and for
// an open a restore found lost or partial.
type rowRef struct{ p, t int }

// newPartitionedCore builds the engine without starting its lease
// reaper, so a restore can rebuild the persisted history before any
// concurrent machinery runs.
func newPartitionedCore(init model.State, cfg Config) *PartitionedEngine {
	cfg = cfg.withDefaults()
	pe := &PartitionedEngine{
		cfg:      cfg,
		mgr:      lockmgr.NewSharded(cfg.Shards),
		fpMon:    cfg.Policy.NewMonitor(model.NewSystem(init.Clone())),
		init:     init.Clone(),
		start:    time.Now(),
		spanning: make(map[int]*txn),
	}
	pe.sessHost.init(cfg)
	pe.parts = make(span, cfg.Partitions)
	for p := range pe.parts {
		pe.parts[p] = newRunner(pe)
	}
	return pe
}

// spanOf decides which partitions a declared body spans: its home
// partition alone if every step's entity and footprint stays inside
// one, or every partition if any step has a global footprint (or names
// other transactions) or the entities span partitions.
func (pe *PartitionedEngine) spanOf(tx model.Txn) span {
	n := len(pe.parts)
	if n == 1 {
		return pe.parts
	}
	seen := -1
	note := func(e model.Entity) bool {
		if e == "" {
			return true
		}
		p := model.PartitionOf(e, n)
		if seen == -1 {
			seen = p
			return true
		}
		return p == seen
	}
	for _, st := range tx.Steps {
		fp := pe.fpMon.Footprint(model.Ev{T: 0, S: st})
		if fp.Global || len(fp.ExtraTxns) > 0 {
			return pe.parts
		}
		if !note(st.Ent) || !note(fp.Ent) {
			return pe.parts
		}
		for _, e := range fp.ExtraEnts {
			if !note(e) {
				return pe.parts
			}
		}
	}
	return pe.parts[max(seen, 0)].self
}

// OpenSession opens a session for the declared transaction: it takes an
// MPL slot, assigns the engine-wide session id — the row's lock-manager
// owner in every partition — and registers a row in every partition of
// the body's span under the span's drain, so a concurrent spanning event
// sees the new transaction in all replicas or none. The declaration is
// durable before the open is acknowledged (the barrier runs after the
// drain), so a restore can rebuild the transaction population (and its
// resume credentials) from the WAL alone. With Config.MPL set,
// OpenSession blocks until a slot is free.
func (pe *PartitionedEngine) OpenSession(tx model.Txn) (Sess, error) { return pe.open(tx, false) }

// OpenRun is OpenSession for a transaction the server drives to its
// outcome (Session.Run), whose caller learns nothing but that outcome.
// Its declaration is marked as a run's, and a local run's is not made
// durable at open: the store buffers it ahead of the run's events, and
// the barrier the run's outcome waits on carries it to disk. A restore
// abandons a run it finds unfinished, since no client holds its token.
func (pe *PartitionedEngine) OpenRun(tx model.Txn) (Sess, error) { return pe.open(tx, true) }

func (pe *PartitionedEngine) open(tx model.Txn, run bool) (Sess, error) {
	if err := checkDeclared(tx); err != nil {
		return nil, err
	}
	if err := pe.acquireSlot(); err != nil {
		return nil, err
	}
	pe.lifecycle.RLock()
	defer pe.lifecycle.RUnlock()
	if pe.closed.Load() {
		pe.freeSlot()
		return nil, ErrClosed
	}
	sp := pe.spanOf(tx)
	pe.gmu.Lock()
	g := len(pe.rows)
	pe.rows = append(pe.rows, rowRef{p: -1})
	pe.gmu.Unlock()

	st := pe.newSessState()
	x := txn{span: sp, locs: make([]int, len(sp)), sid: g}
	sp.drain()
	fatal := sp.fatal()
	if fatal == nil {
		for i, r := range sp {
			x.locs[i] = r.addTxnDrained(tx, g)
			// Every replica records the registration — same id, same token —
			// so a restore rebuilds the replica set (or detects a crash
			// mid-loop by a partial one). A spanning row's opens, a run's
			// too, are synced here: none of its events or statuses may
			// reach a disk ahead of them (DESIGN.md, "The restore contract").
			if r.pers != nil {
				err := r.pers.AppendOpen(recovery.OpenRec{G: g, Mirror: len(sp) > 1, Run: run, Name: tx.Name, Steps: tx.Steps, Token: st.token, Deadline: st.deadline.Load()})
				if err == nil && len(sp) > 1 {
					err = r.barrier()
				}
				r.persistFailedDrained(err)
			}
		}
		if len(sp) > 1 {
			shared := x
			pe.spanning[g] = &shared
		}
		fatal = sp.fatal()
	}
	sp.undrain()
	if fatal == nil && !run {
		// The reply carries the resume token: the open is on disk first.
		fatal = sp[0].sync()
	}
	if fatal != nil {
		pe.freeSlot()
		return nil, fmt.Errorf("runtime: engine failed: %w", fatal)
	}
	pe.gmu.Lock()
	pe.rows[g] = rowRef{p: slices.Index(pe.parts, sp[0]), t: x.locs[0]}
	pe.gmu.Unlock()
	return pe.adopt(x, tx, st, 0, true), nil
}

// Resume reattaches the parked session sid: the single winning caller
// (concurrent resumes race on an atomic arbiter) gets a fresh Session
// positioned at the first declared step, holding a fresh MPL slot. A
// wrong token is refused without touching the session; a parked session
// whose lease deadline has passed is reaped here (deterministically — no
// dependence on reaper timing) and refused with ErrLeaseExpired; a
// session that already finished is refused with ErrSessionDone naming
// how the transaction ended, once the record of that outcome is on disk,
// so a client that lost its connection around a commit learns the
// outcome.
func (pe *PartitionedEngine) Resume(sid int, token uint64) (Sess, error) {
	if pe.closed.Load() {
		return nil, ErrClosed
	}
	pe.gmu.Lock()
	if sid < 0 || sid >= len(pe.rows) {
		pe.gmu.Unlock()
		return nil, ErrUnknownSession
	}
	ref := pe.rows[sid]
	pe.gmu.Unlock()
	if ref.p < 0 {
		// A crash (or failure) between the id assignment and the row's
		// registration.
		return nil, fmt.Errorf("%w: its open never completed", ErrSessionDone)
	}
	pe.mu.Lock()
	cur := pe.sessions[sid]
	pe.mu.Unlock()
	if cur == nil {
		r := pe.parts[ref.p]
		row := r.readRow(ref.t)
		if row.fatal == nil {
			row.fatal = r.sync()
		}
		if row.fatal != nil {
			return nil, fmt.Errorf("runtime: engine failed: %w", row.fatal)
		}
		outcome := "committed"
		switch {
		case row.status == txAbandoned && row.cause != nil:
			outcome = fmt.Sprintf("was abandoned (%v)", row.cause)
		case row.status == txAbandoned:
			outcome = "was abandoned"
		case row.status == txActive:
			// Only a committed transaction outlives its session active: a
			// cascade un-committed it and the engine is re-running it.
			outcome = "committed (the engine is re-running it after a cascade)"
		}
		return nil, fmt.Errorf("%w: the transaction %s", ErrSessionDone, outcome)
	}
	st := cur.st
	if st.token != token {
		return nil, ErrBadToken
	}
	if d := st.deadline.Load(); d != 0 && d <= pe.now().UnixNano() {
		pe.forceAbort(cur, ErrLeaseExpired, fmt.Errorf("lease of %v expired", pe.lease), true)
		if p := st.term.Load(); p != nil {
			return nil, *p
		}
		return nil, ErrLeaseExpired
	}
	if !st.parked.CompareAndSwap(true, false) {
		return nil, ErrNotResumable
	}
	// The park gave the MPL slot back; the resumed incarnation competes
	// for a fresh one like an open would.
	if err := pe.acquireSlot(); err != nil {
		st.parked.Store(true)
		return nil, err
	}
	// A reaper or shutdown may have killed the session since the CAS;
	// re-check liveness (adopt does so once more under the registry lock).
	row := cur.x.readRow()
	if row.fatal == nil && row.status == txActive {
		if ns := pe.adopt(cur.x, cur.tx, st, row.gen, true); ns != nil {
			ns.touch()
			return ns, nil
		}
	}
	pe.freeSlot()
	if p := st.term.Load(); p != nil {
		return nil, *p
	}
	if row.fatal != nil {
		return nil, fmt.Errorf("runtime: engine failed: %w", row.fatal)
	}
	return nil, ErrNotResumable
}
