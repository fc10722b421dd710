package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/lockmgr"
	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the session engine: n ≥ 1 entity-hash partitions
// (model.PartitionOf), each a full Engine with its own admission gate,
// sequencer and recovery core. With n = 1 every body is local to the
// one partition and nothing below the word "global" ever runs. A
// session whose declared body — steps plus their footprints — touches
// entities of a single partition is opened, stepped, committed, reaped
// and recovered entirely by that partition, with zero cross-partition
// coordination; its gate drains, checkpoints and compactions involve
// one partition's stripes only. With n > 1, a session with a global
// footprint (DTR, altruistic donation, INSERT/DELETE) or a body spanning
// partitions runs through the
// *cross-partition drain*: every partition is quiesced (the distributed
// analogue of the stripe drain), the event is evaluated under the
// combined view — the AND of every partition's monitor verdict — and
// appended to every partition's log under one shared sequence tag, so
// the per-partition logs merge back into a single global execution
// order. DESIGN.md ("Partitioned engines") gives the soundness
// argument; the randomized-trace equivalence test pins serialized ≡
// striped ≡ partitioned across 1/2/8 partitions.
//
// Soundness in one paragraph: every event on entity e lands in
// partition-of-e's log — a local event is homed there by classify, a
// global event is mirrored everywhere — so each partition's structural
// state is authoritative for its own entities (definedness checks and
// the merged state consult the home replica); policies whose monitors
// consult shared structure (tree, DDAG) declare structural events
// global in their footprints, so the structure those monitors read is
// identical in all replicas. Local-footprint events of transactions
// routed to different partitions have disjoint footprints (they touch
// only their own transaction's bookkeeping and entities of their home
// partition), so they commute — exactly the stripe-disjointness
// argument lifted one level. A global
// event's verdict decomposes over partitions because every policy's
// cross-cutting rules are conjunctions of per-transaction conditions,
// and every transaction's bookkeeping lives whole in its home partition
// (local) or in every partition (global). Cross-partition aborts
// compact every partition under the drain; a local transaction caught
// in the cascade is handled by its home partition, and a local abort
// can never cascade onto a global transaction (local bodies contain no
// structural events and no donations), which the runner enforces as an
// invariant.

// Sess is a client-paced session of a SessionEngine. There is one
// implementation, wherever it runs.
type Sess = *Session

// SessionEngine is the session-serving surface of PartitionedEngine; the
// network server (internal/server) is written against it, which is what
// makes partitioning transparent to the wire protocol.
type SessionEngine interface {
	// OpenSession opens a declared transaction and returns its session.
	OpenSession(tx model.Txn) (Sess, error)
	// Resume reattaches a parked session by id and token (see
	// sessHost.resume).
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
// file comment for the execution model. All partitions share one lock
// manager (cross-partition deadlock cycles need a single detector), one
// MPL semaphore and one event-tag source; everything else — gate,
// sequencer, recovery core, checkpoints, lease reaper for local
// sessions — is per-partition. Its embedded session host serves the
// cross-partition sessions, with the engine itself as their backend;
// partition-local sessions are served by their home partition's host.
type PartitionedEngine struct {
	sessHost
	parts []*Engine
	n     int
	cfg   Config
	mgr   *lockmgr.Manager
	tags  atomic.Uint64
	// fpMon is a monitor over an empty system consulted only for
	// Footprint (pure: event + static policy configuration), used to
	// classify declared bodies at Open.
	fpMon model.Monitor
	init  model.State

	start time.Time
	wg    sync.WaitGroup

	// waitNs accumulates lock-wait time of cross-partition steps.
	waitNs atomic.Int64

	// gmu guards the global bookkeeping below. It is a leaf lock: held
	// briefly, never while acquiring a gate drain. State transitions of
	// global transactions additionally happen only under the full
	// cross-partition drain, so a drain holder may read them without
	// gmu; lock-free pre-checks in the session methods take gmu.
	gmu sync.Mutex
	// fullSys is the engine-wide system: every session's declared body
	// under its global transaction id, in open order. It is the system
	// the merged log is verified against.
	fullSys *model.System
	// home[g] is the home partition of a local transaction, or -1 for a
	// cross-partition (global) one.
	home []int
	// locs[g] holds the partition-local transaction indices: one entry
	// (the home partition's) for a local transaction, one per partition
	// for a global one.
	locs [][]int
	// Bookkeeping rows of *global* transactions (indexed by global id;
	// rows of local transactions are unused — their state lives in
	// their home partition).
	gstatus   []txnStatus
	ggen      []int
	gattempts []int
	gcause    []error
	gmet      Metrics // metrics attributed to global transactions
	fatal     error
}

// newPartitionedCore builds the engine without starting any background
// reaper (its own or the partitions'), so a restore can rebuild the
// persisted history before any concurrent machinery runs.
func newPartitionedCore(init model.State, cfg Config) *PartitionedEngine {
	dcfg := cfg.withDefaults()
	pe := &PartitionedEngine{
		n:       dcfg.Partitions,
		cfg:     dcfg,
		mgr:     lockmgr.NewSharded(dcfg.Shards),
		init:    init.Clone(),
		start:   time.Now(),
		fullSys: model.NewSystem(init.Clone()),
	}
	pe.fpMon = dcfg.Policy.NewMonitor(model.NewSystem(init.Clone()))
	sh := &sharedParts{mgr: pe.mgr, tags: &pe.tags}
	if cfg.MPL > 0 {
		sh.sem = make(chan struct{}, cfg.MPL)
	}
	pe.sessHost.init(pe, cfg, sh.sem)
	// The partitions get the caller's configuration, not dcfg:
	// withDefaults maps the sentinels (MaxRetries: -1 → 0) and a second
	// pass would read the result as "unset" (0 → 40).
	cfg.MPL = 0 // the shared semaphore is injected, not re-created
	pe.parts = make([]*Engine, pe.n)
	for p := range pe.parts {
		pe.parts[p] = newEngineCore(init, cfg, sh)
	}
	return pe
}

// startReaper starts the engine-wide and per-partition lease reapers if
// the engine runs on the wall clock with leases enabled. Idempotent.
func (pe *PartitionedEngine) startReaper() {
	for _, part := range pe.parts {
		part.startReaper()
	}
	pe.sessHost.startReaper()
}

// classify decides where a declared body runs: its home partition if
// every step's entity and footprint stays inside one partition, or the
// cross-partition path if any step has a global footprint (or names
// other transactions) or the entities span partitions.
func (pe *PartitionedEngine) classify(tx model.Txn) (homeP int, global bool) {
	if pe.n == 1 {
		return 0, false
	}
	seen := -1
	note := func(e model.Entity) bool {
		if e == "" {
			return true
		}
		p := model.PartitionOf(e, pe.n)
		if seen == -1 {
			seen = p
			return true
		}
		return p == seen
	}
	for _, st := range tx.Steps {
		fp := pe.fpMon.Footprint(model.Ev{T: 0, S: st})
		if fp.Global || len(fp.ExtraTxns) > 0 {
			return 0, true
		}
		if !note(st.Ent) || !note(fp.Ent) {
			return 0, true
		}
		for _, e := range fp.ExtraEnts {
			if !note(e) {
				return 0, true
			}
		}
	}
	if seen == -1 {
		seen = 0
	}
	return seen, false
}

// OpenSession opens a session for the declared transaction: local
// bodies are routed to their home partition (the fast path adds one hash
// per declared entity and nothing else), cross-partition bodies are
// registered in every partition and run on this engine's own host,
// through the cross-partition drain.
func (pe *PartitionedEngine) OpenSession(tx model.Txn) (Sess, error) {
	if err := checkDeclared(tx); err != nil {
		return nil, err
	}
	pe.lifecycle.RLock()
	if pe.closed.Load() {
		pe.lifecycle.RUnlock()
		return nil, ErrClosed
	}
	homeP, global := pe.classify(tx)
	if !global {
		// Assign the engine-wide id, then let the home partition do its
		// ordinary Open (which takes the shared MPL slot and drains only
		// that partition's gate).
		pe.gmu.Lock()
		g := int(pe.fullSys.Add(tx))
		pe.addRowLocked(homeP)
		pe.gmu.Unlock()
		pe.lifecycle.RUnlock()
		s, err := pe.parts[homeP].open(tx, g)
		if err != nil {
			return nil, err
		}
		pe.gmu.Lock()
		pe.locs[g] = []int{s.t}
		pe.gmu.Unlock()
		return s, nil
	}
	pe.lifecycle.RUnlock()

	// Global: one MPL slot engine-wide, then register a mirror row in
	// every partition under the cross-partition drain, so a concurrent
	// global event sees the new transaction in all replicas or none.
	if err := pe.acquireSlot(); err != nil {
		return nil, err
	}
	pe.lifecycle.RLock()
	defer pe.lifecycle.RUnlock()
	if pe.closed.Load() {
		pe.freeSlot()
		return nil, ErrClosed
	}
	pe.gmu.Lock()
	g := int(pe.fullSys.Add(tx))
	pe.addRowLocked(-1)
	pe.gmu.Unlock()

	st := pe.newSessState()
	pe.drainAll()
	if pe.anyFatalDrained() == nil {
		locs := make([]int, pe.n)
		for p, part := range pe.parts {
			locs[p] = part.r.addTxnDrained(tx, g, true)
			// Every partition records the mirror registration — same global
			// id, same token — so a restore rebuilds the replica set (or
			// detects a crash mid-loop by the partial mirror).
			part.r.persistOpenDrained(recovery.OpenRec{G: g, Mirror: true, Name: tx.Name, Steps: tx.Steps, Token: st.token, Deadline: st.deadline.Load()})
		}
		pe.gmu.Lock()
		pe.locs[g] = locs
		pe.gmu.Unlock()
	}
	fatal := pe.anyFatalDrained()
	pe.undrainAll()
	if fatal != nil {
		pe.freeSlot()
		return nil, fmt.Errorf("runtime: engine failed: %w", fatal)
	}
	return pe.adopt(g, g, tx, st, 0, true), nil
}

// Resume reattaches a parked session by engine-wide id and token: a
// local session is routed to its home partition's row, a
// cross-partition one resumed on this engine's own host. Cross-partition
// sessions are resumable only within the process that parked them: a
// restore abandons unsettled globals rather than parking them (the
// resumption contract covers the common case — a dropped connection —
// without replicating session state).
func (pe *PartitionedEngine) Resume(sid int, token uint64) (Sess, error) {
	if pe.closed.Load() {
		return nil, ErrClosed
	}
	pe.gmu.Lock()
	if sid < 0 || sid >= len(pe.home) {
		pe.gmu.Unlock()
		return nil, ErrUnknownSession
	}
	homeP, locs := pe.home[sid], pe.locs[sid]
	pe.gmu.Unlock()
	switch {
	case homeP < 0:
		return pe.resume(sid, token)
	case len(locs) == 0:
		// A crash (or failure) between the global id assignment and the
		// partition open.
		return nil, fmt.Errorf("%w: its open never completed", ErrSessionDone)
	}
	return pe.parts[homeP].resume(locs[0], token)
}

// Reap aborts lease-expired sessions engine-wide: each partition reaps
// its local sessions, the engine reaps its cross-partition ones.
func (pe *PartitionedEngine) Reap() int {
	n := pe.sessHost.Reap()
	for _, part := range pe.parts {
		n += part.Reap()
	}
	return n
}

// OpenSessions returns the number of currently open sessions across all
// partitions plus the cross-partition ones.
func (pe *PartitionedEngine) OpenSessions() int {
	n := pe.sessHost.OpenSessions()
	for _, part := range pe.parts {
		n += part.OpenSessions()
	}
	return n
}

// AwaitDetached waits out every host in turn. A draining server opens
// and resumes nothing, so a host that reached zero stays there.
func (pe *PartitionedEngine) AwaitDetached(ctx context.Context) {
	pe.sessHost.AwaitDetached(ctx)
	for _, part := range pe.parts {
		part.AwaitDetached(ctx)
	}
}

// addRowLocked appends one global bookkeeping row (gmu held).
func (pe *PartitionedEngine) addRowLocked(homeP int) {
	pe.home = append(pe.home, homeP)
	pe.locs = append(pe.locs, nil)
	pe.gstatus = append(pe.gstatus, txActive)
	pe.ggen = append(pe.ggen, 0)
	pe.gattempts = append(pe.gattempts, 0)
	pe.gcause = append(pe.gcause, nil)
}

// drainAll quiesces every partition: each gate is drained and its
// sequencer flushed, in partition order (a fixed global order, so two
// concurrent cross-partition operations cannot deadlock on each other's
// half-acquired drains). The caller owns every partition's world until
// undrainAll.
func (pe *PartitionedEngine) drainAll() {
	for _, part := range pe.parts {
		part.r.gate.drain()
		part.r.flushPending()
	}
}

func (pe *PartitionedEngine) undrainAll() {
	for i := len(pe.parts) - 1; i >= 0; i-- {
		pe.parts[i].r.gate.undrain()
	}
}

// anyFatalDrained reports the first fatal error across the engine
// (cross-partition drain held).
func (pe *PartitionedEngine) anyFatalDrained() error {
	pe.gmu.Lock()
	f := pe.fatal
	pe.gmu.Unlock()
	if f != nil {
		return f
	}
	for _, part := range pe.parts {
		if part.r.fatal != nil {
			return part.r.fatal
		}
	}
	return nil
}

// setFatalDrained records an engine-wide invariant breach and halts
// every partition (cross-partition drain held).
func (pe *PartitionedEngine) setFatalDrained(err error) {
	pe.gmu.Lock()
	if pe.fatal == nil {
		pe.fatal = err
	}
	pe.gmu.Unlock()
	for _, part := range pe.parts {
		if part.r.fatal == nil {
			part.r.fatal = err
		}
	}
}

func (pe *PartitionedEngine) backoff(k int) time.Duration { return pe.parts[0].r.backoff(k) }

// evFor renders a global transaction's step as partition p's local
// event. Takes gmu for the row read: a concurrent OpenSession may be
// appending rows (reallocating the slices) without holding any drain.
func (pe *PartitionedEngine) evFor(g, p int, st model.Step) model.Ev {
	pe.gmu.Lock()
	t := pe.locs[g][p]
	pe.gmu.Unlock()
	return model.Ev{T: model.TID(t), S: st}
}

// locsOf snapshots a global transaction's per-partition row under gmu.
func (pe *PartitionedEngine) locsOf(g int) []int {
	pe.gmu.Lock()
	l := pe.locs[g]
	pe.gmu.Unlock()
	return l
}

// syncMirrorsDrained propagates a global transaction's status to its
// mirror rows, durably where it changed (cross-partition drain held).
// Ascending partition order, so a crash mid-sync leaves a prefix of
// partitions updated — the restore arbiter (the lowest-index partition
// holding the row) then reads the newest status.
func (pe *PartitionedEngine) syncMirrorsDrained(g int) {
	pe.gmu.Lock()
	locs, status := pe.locs[g], pe.gstatus[g]
	pe.gmu.Unlock()
	for p, part := range pe.parts {
		if part.r.status[locs[p]] != status {
			part.r.status[locs[p]] = status
			part.r.persistStatusDrained(locs[p], statusByte(status))
		}
	}
}

// staleAllDrained is staleDrained lifted to the cross-partition drain:
// it checks whether g's attempt generation is still current, releasing
// the drain (and shedding race-window locks) if not.
func (pe *PartitionedEngine) staleAllDrained(g, gen int) (bool, retryOut) {
	if f := pe.anyFatalDrained(); f != nil {
		pe.undrainAll()
		pe.mgr.ReleaseAll(g)
		return true, retryOut{again: false}
	}
	pe.gmu.Lock()
	if pe.ggen[g] == gen {
		pe.gmu.Unlock()
		return false, retryOut{}
	}
	again := pe.gstatus[g] == txActive
	delay := pe.backoff(pe.gattempts[g])
	pe.gmu.Unlock()
	pe.undrainAll()
	pe.mgr.ReleaseAll(g)
	return true, retryOut{again: again, delay: delay}
}

// execStep executes one declared step of global transaction g's
// attempt gen: the lock-table action first (blocking, no drain held),
// then admission under the cross-partition drain — definedness on the
// replicated structural state, the policy Check on *every* partition's
// monitor (the combined verdict is their conjunction), the unlock table
// action, and the append into every partition's recovery core under one
// shared sequence tag. The return contract is runner.execStep's; this
// and commit, readTxnState and teardown below are the cross-partition
// sessBackend.
func (pe *PartitionedEngine) execStep(g, gen int, st model.Step) (ok, again bool, delay time.Duration) {
	if st.Op.IsLock() {
		t0 := time.Now()
		err := pe.mgr.Lock(g, st.Ent, st.Op.LockMode())
		pe.waitNs.Add(int64(time.Since(t0)))
		if err != nil {
			again, delay = pe.crossLockFailed(g, gen, err)
			return false, again, delay
		}
	}
	pe.drainAll()
	if stale, out := pe.staleAllDrained(g, gen); stale {
		return false, out.again, out.delay
	}
	// Definedness is judged by the entity's home partition: every event
	// that can create or delete st.Ent — a local structural step of a
	// transaction homed there, or a global step mirrored everywhere —
	// lands in that partition's log, so its structural state is
	// authoritative for its own entities (other replicas may miss local
	// inserts and deletes homed elsewhere).
	if st.Op.IsData() && !pe.partStateFor(st.Ent).Defined(st) {
		pe.gmu.Lock()
		pe.gmet.ImproperAborts++
		pe.gcause[g] = fmt.Errorf("improper step %s: undefined in the structural state", pe.evFor(g, 0, st))
		pe.gmu.Unlock()
		again, delay = pe.crossAbortDrained(g)
		return false, again, delay
	}
	for p, part := range pe.parts {
		if err := part.r.rec.Monitor().Check(pe.evFor(g, p, st)); err != nil {
			pe.gmu.Lock()
			pe.gmet.PolicyAborts++
			pe.gcause[g] = err
			pe.gmu.Unlock()
			again, delay = pe.crossAbortDrained(g)
			return false, again, delay
		}
	}
	if st.Op.IsUnlock() {
		if err := pe.mgr.Unlock(g, st.Ent); err != nil {
			pe.setFatalDrained(fmt.Errorf("runtime: %w", err))
			pe.undrainAll()
			pe.mgr.ReleaseAll(g)
			return false, false, 0
		}
	}
	tag := pe.tags.Add(1) - 1
	for p, part := range pe.parts {
		if err := part.r.rec.AppendTagged(pe.evFor(g, p, st), tag); err != nil {
			pe.setFatalDrained(fmt.Errorf("runtime: monitor accepted Check but rejected Step: %w", err))
			pe.undrainAll()
			pe.mgr.ReleaseAll(g)
			return false, false, 0
		}
	}
	pe.undrainAll()
	return true, false, 0
}

// partStateFor returns the structural state of the entity's home
// partition — the authoritative replica for that entity (cross-partition
// drain held).
func (pe *PartitionedEngine) partStateFor(e model.Entity) model.State {
	return pe.parts[model.PartitionOf(e, pe.n)].r.rec.State()
}

// crossLockFailed mirrors lockFailed for the cross-partition path.
func (pe *PartitionedEngine) crossLockFailed(g, gen int, err error) (bool, time.Duration) {
	pe.drainAll()
	if stale, out := pe.staleAllDrained(g, gen); stale {
		return out.again, out.delay
	}
	if !errors.Is(err, lockmgr.ErrDeadlock) {
		pe.setFatalDrained(fmt.Errorf("runtime: %w", err))
		pe.undrainAll()
		pe.mgr.ReleaseAll(g)
		return false, 0
	}
	pe.gmu.Lock()
	pe.gmet.DeadlockAborts++
	pe.gcause[g] = err
	pe.gmu.Unlock()
	return pe.crossAbortDrained(g)
}

// commit finalizes global transaction g (the commit analogue of
// runner.commit): status flip under the cross-partition drain, mirror
// sync, stray-lock shedding, per-partition truncation pacing.
func (pe *PartitionedEngine) commit(g, gen int) (committed, again bool, delay time.Duration) {
	pe.drainAll()
	if stale, out := pe.staleAllDrained(g, gen); stale {
		return false, out.again, out.delay
	}
	pe.gmu.Lock()
	pe.gstatus[g] = txCommitted
	pe.gmet.Commits++
	pe.gmu.Unlock()
	pe.syncMirrorsDrained(g)
	// The commit is acknowledged only once durable in every partition; a
	// persistence failure surfaces as engine failure, not a false ack.
	if f := pe.anyFatalDrained(); f != nil {
		pe.undrainAll()
		pe.mgr.ReleaseAll(g)
		return false, false, 0
	}
	pe.mgr.ReleaseAll(g)
	if pe.cfg.TruncateLog {
		for _, part := range pe.parts {
			part.r.maybeTruncateDrained()
		}
	}
	pe.undrainAll()
	return true, false, 0
}

// chargeGDrained bumps g's generation and retry count, abandoning it
// past the budget, and syncs the mirrors (cross-partition drain held).
func (pe *PartitionedEngine) chargeGDrained(g int) {
	pe.gmu.Lock()
	pe.ggen[g]++
	pe.gattempts[g]++
	if pe.gattempts[g] > pe.cfg.MaxRetries && pe.gstatus[g] == txActive {
		pe.gstatus[g] = txAbandoned
		pe.gmet.GaveUp++
	}
	pe.gmu.Unlock()
	pe.syncMirrorsDrained(g)
}

// crossAbortDrained aborts g's current attempt: erase its events from
// every partition (cascading as needed), charge the retry, tear down
// its locks. Called with the cross-partition drain held; returns with
// it released.
func (pe *PartitionedEngine) crossAbortDrained(g int) (bool, time.Duration) {
	pe.eraseAllDrained(map[int]bool{g: true})
	pe.chargeGDrained(g)
	pe.gmu.Lock()
	again := pe.gstatus[g] == txActive
	delay := pe.backoff(pe.gattempts[g])
	pe.gmu.Unlock()
	pe.undrainAll()
	pe.mgr.ReleaseAll(g)
	return again, delay
}

// eraseAllDrained removes the global victims' events from every
// partition's log through the per-partition checkpointed compactions,
// handling the two kinds of cascade (cross-partition drain held):
//
//   - a *local* transaction that no longer replays is torn down by its
//     home partition exactly as a partition-internal cascade victim
//     (charged, released, re-spawned by the partition if it had
//     committed);
//   - a *global* transaction (a mirror row) is promoted into the global
//     victim set, torn down engine-wide, and every partition's
//     compaction restarts with the grown set — victims only grow, so
//     the loop converges, as in the single-engine cascade.
func (pe *PartitionedEngine) eraseAllDrained(gvictims map[int]bool) {
	lv := make([]map[int]bool, pe.n)
	for p := range lv {
		lv[p] = make(map[int]bool)
	}
	addG := func(g int) {
		locs := pe.locsOf(g)
		for p := 0; p < pe.n; p++ {
			lv[p][locs[p]] = true
		}
	}
	for g := range gvictims {
		addG(g)
	}
restart:
	for p := 0; p < pe.n; p++ {
		r := pe.parts[p].r
		for {
			ok, casc := r.rec.Compact(lv[p])
			if ok {
				break
			}
			if lv[p][casc] {
				pe.setFatalDrained(fmt.Errorf("runtime: abort cascade cannot converge on T%d", casc+1))
				return
			}
			if r.mirror[casc] {
				g := r.mgr.owner(casc)
				if gvictims[g] {
					pe.setFatalDrained(fmt.Errorf("runtime: abort cascade cannot converge on global T%d", g+1))
					return
				}
				gvictims[g] = true
				pe.globalCascadeDrained(g)
				addG(g)
				// Earlier partitions must re-compact with the grown set.
				goto restart
			}
			lv[p][casc] = true
			r.cascadeVictimDrained(casc)
		}
	}
}

// globalCascadeDrained tears down a global transaction caught in a
// cascade: charge it engine-wide, un-commit and re-run it through the
// cross-partition path if it had already committed (the partitioned
// analogue of the runner's committed-victim re-spawn). Cross-partition
// drain held.
func (pe *PartitionedEngine) globalCascadeDrained(g int) {
	pe.gmu.Lock()
	pe.gmet.CascadeAborts++
	pe.gcause[g] = fmt.Errorf("cascade victim: a surviving event of T%d no longer replays after the abort", g+1)
	respawn := false
	if pe.gstatus[g] == txCommitted {
		pe.gstatus[g] = txActive
		pe.gmet.Commits--
		respawn = true
	}
	pe.ggen[g]++
	pe.gattempts[g]++
	if pe.gattempts[g] > pe.cfg.MaxRetries && pe.gstatus[g] == txActive {
		pe.gstatus[g] = txAbandoned
		pe.gmet.GaveUp++
	}
	active := pe.gstatus[g] == txActive
	pe.gmu.Unlock()
	pe.syncMirrorsDrained(g)
	pe.mgr.ReleaseAll(g)
	if respawn && active {
		pe.wg.Add(1)
		go pe.rerunGlobal(g)
	}
}

// rerunGlobal drives an un-committed global transaction back to commit
// through the cross-partition path, with the runner's retry discipline
// — the partitioned analogue of runTxn for cascade re-spawns.
func (pe *PartitionedEngine) rerunGlobal(g int) {
	defer pe.wg.Done()
	for {
		pe.gmu.Lock()
		gen := pe.ggen[g]
		active := pe.gstatus[g] == txActive && pe.fatal == nil
		tx := pe.fullSys.Txns[g]
		pe.gmu.Unlock()
		if !active {
			return
		}
		again, delay := pe.attemptGlobal(g, gen, tx)
		if !again {
			return
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
}

// attemptGlobal executes one full pass over g's declared steps and
// commits, reporting the retry policy (runner.attempt's contract).
func (pe *PartitionedEngine) attemptGlobal(g, gen int, tx model.Txn) (bool, time.Duration) {
	for pos := 0; pos < tx.Len(); pos++ {
		ok, again, delay := pe.execStep(g, gen, tx.Steps[pos])
		if !ok {
			return again, delay
		}
	}
	_, again, delay := pe.commit(g, gen)
	return again, delay
}

// readTxnState snapshots g's generation, status, cause and the fatal
// error (gmu suffices because global state transitions hold it).
func (pe *PartitionedEngine) readTxnState(g int) (gen int, status txnStatus, cause, fatal error) {
	pe.gmu.Lock()
	gen, status, cause, fatal = pe.ggen[g], pe.gstatus[g], pe.gcause[g], pe.fatal
	pe.gmu.Unlock()
	return
}

// teardown is sessBackend.teardown under the cross-partition drain.
func (pe *PartitionedEngine) teardown(g int, cause error, park, lease bool, admit func() bool) (bool, error) {
	pe.drainAll()
	fatal := pe.anyFatalDrained()
	pe.gmu.Lock()
	active := pe.gstatus[g] == txActive
	pe.gmu.Unlock()
	if fatal != nil || !active || (admit != nil && !admit()) {
		pe.undrainAll()
		if fatal != nil {
			// As on the runner: unwedge whoever waits on the row's locks.
			pe.mgr.ReleaseAll(g)
		}
		return false, fatal
	}
	pe.eraseAllDrained(map[int]bool{g: true})
	pe.gmu.Lock()
	pe.ggen[g]++
	pe.gcause[g] = cause
	if !park {
		pe.gstatus[g] = txAbandoned
		pe.gmet.GaveUp++
		if lease {
			pe.gmet.LeaseExpired++
		}
	}
	pe.gmu.Unlock()
	if !park {
		pe.syncMirrorsDrained(g)
	}
	fatal = pe.anyFatalDrained()
	pe.undrainAll()
	pe.mgr.ReleaseAll(g)
	return true, fatal
}
