// Package runtime executes transactions as real goroutines against the
// sharded concurrent lock manager under a locking-policy monitor. Its one
// execution model is the session engine, which serves a *long-lived,
// open-ended* population: clients Open sessions by declaring a
// transaction body and drive its steps one at a time
// (Session.Step/Commit/Abort, or Session.Run engine-side), with lease
// timeouts reaping abandoned sessions. The network lock service lockd
// (locksafe/internal/server, cmd/lockd) is a thin transport over the
// SessionEngine API. It is the concurrent counterpart of the virtual-time
// execution engine (locksafe/internal/engine): the same abort/retry
// discipline, the same cascading-abort rule (a surviving event that no
// longer replays — for example a wake member of an aborted altruistic
// donor — is aborted too), and comparable metrics, but measured on real
// cores and wall-clock time instead of a deterministic simulation.
//
// Locking goes through lockmgr.Manager, so grant order, upgrades and
// deadlock detection (including cross-shard sweeps) are the shared
// lock-table core's; a row's lock owner there is its engine-wide session
// id, whichever partitions it spans. Policy rules are consulted through
// a *footprint-striped admission gate*: the policy declares (via
// model.Monitor.Footprint, asked of one engine-wide monitor over an empty
// system — a footprint depends on the event alone) which transactions'
// bookkeeping and which entities' state evaluating the event touches, and
// the gate maps that footprint onto hash-addressed stripe locks. Footprint-disjoint events
// evaluate Check/Step concurrently under their stripes, while
// overlapping events serialize on a shared stripe and global-footprint
// events (plus structural updates, aborts, commits and checkpoints)
// drain every stripe. A sequencer assigns log order before an event's
// stripes are released, so conflicting events — which always share a
// stripe — appear in the log in their execution order and the logged
// schedule is legal; footprint-disjoint events commute, so any log order
// reproduces the same monitor state. The sequenced batch is fed to the
// recovery core at drain points, preserving its single-owner discipline.
// Close verifies the committed schedule is serializable.
//
// With Config.GateStripes = 1 every admission drains the single stripe
// and the gate is behavior-identical to a serialized monitor gate — the
// gate equivalence property test pins that.
//
// Abort recovery is incremental, through the same checkpointed recovery
// core the engine uses (locksafe/internal/recovery): the core keeps
// periodic monitor/state snapshots of the log, and an abort erases the
// victim's events by replaying only the suffix after the last checkpoint
// at or before the victim's first event — recovery cost scales with the
// suffix, not the whole surviving log. A survivor that no longer replays
// is a cascade victim: its generation is bumped (invalidating its
// in-flight attempt), its locks and pending request are torn down through
// ReleaseAll — waking it with lockmgr.ErrCancelled if parked — and, if
// it had already committed, it is un-committed and re-spawned, exactly
// as the engine re-runs such transactions. Victims only grow across a
// cascade, so compaction restarts from the earliest invalidated
// checkpoint and converges.
//
// Every transaction — a client-paced session, or the engine's own re-run
// of a committed transaction a cascade un-committed — is driven by one
// row machine (txn, below), parameterised by the transaction's span: the
// partitions whose gates it drains and whose logs its events land in.
// Session.Run and the re-runs share its one retry loop (txn.retry).
// Opening a session appends the declared transaction to the systems of
// its span under the span's drain (growing the monitors and the recovery
// cores via their Grow methods), Session.Step goes through the row
// machine's lock-acquisition and admission paths, and a committed
// session un-committed by a cascade is re-run by the engine itself from
// its declared body. DESIGN.md's "Service layer" section gives the
// argument that this preserves the gate-equivalence invariants;
// TestSessionGateEquivalence pins it end to end.
//
// There is one session engine, PartitionedEngine (NewSessionEngine,
// NewDurableSessionEngine): max(1, Config.Partitions) entity-hash
// partitions, each a runner with its own striped gate, sequencer and
// recovery core that points back at the engine for the rest — one
// configuration, lock manager, footprint monitor, MPL semaphore and
// event-tag source. Every admitted event, fast path or slow, reaches its
// partition's log and store through that partition's sequencer. A
// partition-local body's span is its home partition — with one
// partition, every body's; a body spanning partitions, or declaring a
// global footprint, spans all of them, and its drain quiesces every
// partition — see partition.go and DESIGN.md ("Partitioned engines").
// TestPartitionEquivalenceRandomTraces pins 1-, 2- and 8-partition
// digests identical to the reference drive's (ReplayTrace).
package runtime

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/lockmgr"
	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
)

// Config controls a run.
//
// MaxRetries and Backoff follow a sentinel convention: the zero value
// selects the documented default (so Config{} is immediately usable),
// and a *negative* value selects literally zero — no retries, or no
// backoff delay — which the zero value cannot express.
type Config struct {
	// Policy supplies the runtime rules; nil means policy.Unrestricted.
	Policy policy.Policy
	// Shards is the lock manager's shard count (default 1).
	Shards int
	// MPL is the multiprogramming level: how many transactions may be
	// active simultaneously. 0 means unbounded.
	MPL int
	// MaxRetries bounds retries per transaction; beyond it the
	// transaction is abandoned and counted in Metrics.GaveUp.
	// 0 selects the default (40); negative means no retries at all.
	MaxRetries int
	// Backoff is the base retry delay: the k-th retry waits k*Backoff,
	// capped at backoffCapFactor×Backoff (without a cap a long abort
	// streak walks the delay out without limit, identically for every
	// client on it), then shrunk at random by up to backoffJitter of
	// itself, desynchronizing clients that aborted together.
	// 0 selects the default (200µs); negative means no delay.
	Backoff time.Duration
	// CheckpointEvery is the number of logged events between
	// monitor/state snapshots used for incremental abort recovery
	// (default 128, as in the engine). Smaller values make aborts
	// cheaper and the gate path more expensive. It also paces the
	// striped gate's sequencer: once that many events are buffered, the
	// next admission drains the stripes and flushes them to the core.
	CheckpointEvery int
	// GateStripes is the number of stripe locks in the admission gate
	// (default: sized from GOMAXPROCS). 1 serializes every admission,
	// reproducing the pre-striping single-mutex monitor gate exactly:
	// the reference mode of the gate equivalence tests — and the
	// sensible choice for a policy whose footprints are always global
	// (DTR), where every admission would otherwise pay a full drain of
	// GateStripes mutexes to buy no concurrency.
	GateStripes int
	// Lease is the session lease of a session engine: how long a
	// Session may sit idle between requests before the engine aborts it,
	// releases its locks and abandons it (Metrics.LeaseExpired). The
	// lease clock runs only between session requests — a session parked
	// inside a lock acquisition is waiting on the system, not the
	// client, and is never expired mid-request. 0 disables leases.
	Lease time.Duration
	// Clock overrides the time source used for lease accounting (nil
	// means time.Now). With a non-nil Clock the engine starts no
	// background reaper: the test or embedding server advances the clock
	// and calls the engine's Reap itself, which makes lease expiry fully
	// deterministic.
	Clock func() time.Time
	// Partitions is the session engine's partition count
	// (NewSessionEngine): the entity space is hashed into this many
	// partitions, each with its own gate, sequencer and recovery core;
	// sessions whose declared body stays inside one partition run there
	// with zero cross-partition coordination, and the rest drain every
	// partition. 0 means 1: one partition of the same engine, on which
	// every body is local.
	Partitions int
	// DataDir enables durability: each partition's recovery core writes
	// an append-only WAL (plus checkpoint snapshots) under this
	// directory, and NewDurableSessionEngine restores the committed
	// schedule from it on start. Empty means memory-only. One partition
	// persists into DataDir itself, n > 1 into DataDir/p<i>; a directory
	// written with a different partition count is refused (ErrLayout).
	// NewSessionEngine ignores the field.
	DataDir string
	// Fsync makes every acknowledgement that waits on a record — a
	// step-mode open's reply, a commit, an abort or abandonment, a
	// resume's outcome — wait until the record is synced, with every
	// record its partition buffered before it. Records are buffered under
	// the gate drain, and one shared write and sync runs after the drain
	// is released for every acknowledgement waiting on it (group commit).
	// Required for the "commit acked implies commit recovered" guarantee;
	// without it the barrier only writes, and a crash can lose
	// acknowledged tail records (torn tails still recover cleanly).
	Fsync bool
	// WrapPersister, when non-nil, wraps the disk store before it is
	// attached to the recovery core — the hook durability tests crash or
	// fail the disk through. Ignored when DataDir is empty.
	WrapPersister func(recovery.Persister) recovery.Persister
	// TruncateLog lets the recovery core discard the event-log prefix
	// below a retained checkpoint once every transaction with events in
	// it has settled, bounding a long-lived engine's memory by the
	// checkpoint span instead of the process lifetime. End-of-run
	// verification (Close, Inspect) then covers the retained suffix
	// only, and Result.Schedule is that suffix — so the equivalence
	// tests and digest-comparing callers leave it off.
	TruncateLog bool
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = policy.Unrestricted{}
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 40
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	switch {
	case c.Backoff == 0:
		c.Backoff = 200 * time.Microsecond
	case c.Backoff < 0:
		c.Backoff = 0
	}
	if c.GateStripes < 1 {
		c.GateStripes = defaultGateStripes()
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = recovery.DefaultEvery
	}
	if c.Partitions < 1 {
		c.Partitions = 1
	}
	return c
}

// Metrics summarizes a run. The fields mirror engine.Metrics, with
// wall-clock durations in place of virtual ticks.
type Metrics struct {
	// Commits and GaveUp partition the transactions.
	Commits, GaveUp int
	// DeadlockAborts, PolicyAborts, ImproperAborts and CascadeAborts
	// count abort events by cause.
	DeadlockAborts, PolicyAborts, ImproperAborts, CascadeAborts int
	// Wait accumulates wall time spent inside lock acquisition.
	Wait time.Duration
	// Elapsed is the wall-clock makespan of the whole run.
	Elapsed time.Duration
	// Events is the number of executed (surviving) events.
	Events int
	// Replayed is the total number of surviving events re-verified
	// during abort recovery — the work the checkpoints bound. Under the
	// core's full-replay reference mode it grows with the whole log per
	// abort; checkpointed recovery bounds it by the replayed suffixes.
	Replayed int
	// LeaseExpired counts sessions abandoned by the lease reaper (a
	// subset of GaveUp).
	LeaseExpired int
}

// Aborts returns the total abort count.
func (m Metrics) Aborts() int {
	return m.DeadlockAborts + m.PolicyAborts + m.ImproperAborts + m.CascadeAborts
}

// Throughput returns commits per second of wall-clock time.
func (m Metrics) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Commits) / m.Elapsed.Seconds()
}

// Result is the outcome of a run: metrics plus the committed schedule,
// which Close verifies to be serializable before returning.
type Result struct {
	Metrics  Metrics
	Schedule model.Schedule // events of committed transactions, in log order
}

// txnStatus is a row's status. Its values are the durable store's
// status codes, so a status is persisted and restored as is.
type txnStatus = byte

const (
	txActive    txnStatus = recovery.StatusActive
	txCommitted txnStatus = recovery.StatusCommitted
	txAbandoned txnStatus = recovery.StatusAbandoned
)

// maxStripeBuf is the stack buffer for per-admission stripe sets; the
// monitors' footprints cover at most a primary transaction/entity plus a
// bounded neighborhood.
const maxStripeBuf = 8

type runner struct {
	// pe is the engine this runner is one partition of: its
	// configuration, footprint monitor, MPL slots, event-tag source,
	// re-run group and table of spanning rows are every partition's.
	pe   *PartitionedEngine
	sys  *model.System
	gate *gate

	// brand is the backoff jitter's uniform [0,1) source (math/rand's;
	// tests inject a fixed draw).
	brand func() float64

	// seqMu is the sequencer: it assigns log order by appending to
	// pending while the admitting goroutine still holds its stripes.
	// Conflicting events always share a stripe, so their pending order
	// is their execution order; the batch is flushed into the recovery
	// core at drain points.
	seqMu   sync.Mutex
	pending []model.Ev
	// pendTags carries pending's per-event tags in lockstep: global
	// sequence numbers drawn from the engine's tag source at sequencing
	// time, so the per-partition logs can be merged back into one global
	// execution order.
	pendTags []uint64
	// drainReq asks the next admission to drain the gate and flush the
	// sequencer (checkpoint pacing).
	drainReq atomic.Bool
	// waitNs accumulates lock-wait time of the rows this runner owns.
	waitNs atomic.Int64

	// The fields below are stripe-protected. Per-transaction entries
	// (status, gen, attempts, abortCause) are read under any stripe set
	// covering that transaction and written only under a full drain;
	// everything else — the recovery core, the aggregate metrics, the
	// transaction list itself (grown by OpenSession via sys.Add) — is
	// touched only under a full drain.
	rec *recovery.Core
	// pers is the partition's durable store, nil when the engine is
	// memory-only. The runner is its one writer: each record follows the
	// in-memory change that decides it, under a full drain, and a failed
	// write fails the engine (persistFailed). An acknowledgement waits on
	// the store's barrier after the drain instead (sync). store is the
	// store beneath pers, which a test may wrap (Config.WrapPersister):
	// the barrier goes through pers when pers forwards it; fail poisons
	// store.
	pers  recovery.Persister
	store *recovery.Store
	// owners maps a local row to its engine-wide session id, the row's
	// lock-manager owner. It grows with the rows (addTxnDrained) and is
	// read under a drain only.
	owners []int
	status []txnStatus
	// gen is the abort generation: bumping gen[t] invalidates t's
	// in-flight attempt, which notices at its next gate entry (or when
	// its parked lock request is cancelled) and restarts.
	gen      []int
	attempts []int
	// abortCause records why t's latest attempt was torn down (deadlock
	// victim, policy veto, improper step, cascade, lease expiry), so a
	// session client can be told what killed it.
	abortCause []error
	// self is the one-partition span of this runner.
	self span
	met  Metrics
	// truncMark paces log truncation (Config.TruncateLog): the next
	// commit at or past this log length attempts a prefix truncation.
	truncMark int
	// truncOwned counts the events this runner owns (see ownedEvents)
	// among those truncation discarded.
	truncOwned int
}

// span is the ordered set of partitions one transaction row works over.
// Its drain drains every member's gate and flushes its sequencer in
// ascending partition order — a fixed global order, so two spans cannot
// deadlock on each other's half-acquired drains — and the holder owns
// every member's world until undrain.
type span []*runner

func (sp span) drain() {
	for _, r := range sp {
		r.gate.drain()
		r.flushPending()
	}
}

func (sp span) undrain() {
	for i := len(sp) - 1; i >= 0; i-- {
		sp[i].gate.undrain()
	}
}

// txn is one transaction row as the row machine drives it: span lists
// the partitions whose gates it drains and whose logs its events land
// in, ascending — the home partition of a partition-local body, every
// partition of the engine for a body spanning them or declaring a global
// footprint — and locs[i] is the row's local index in span[i]. sid is
// the row's engine-wide session id, which is also its lock-manager
// owner. The owner replica span[0] keeps the row's generation, attempts
// and abort cause and is charged its metrics; status writes reach every
// replica. A txn holds no state of its own, so any copy drives the same
// row.
type txn struct {
	span span
	locs []int
	sid  int
}

// rowTxn returns the row of local index t (drain held).
func (r *runner) rowTxn(t int) *txn {
	sid := r.owners[t]
	if x := r.pe.spanning[sid]; x != nil {
		return x
	}
	return &txn{span: r.self, locs: []int{t}, sid: sid}
}

// own returns the owner replica and the row's local index there.
func (x *txn) own() (*runner, int) { return x.span[0], x.locs[0] }

// ev renders step st as span member i's local event.
func (x *txn) ev(i int, st model.Step) model.Ev {
	return model.Ev{T: model.TID(x.locs[i]), S: st}
}

// newRunner returns an empty partition of pe, whose configuration is
// already defaulted.
func newRunner(pe *PartitionedEngine) *runner {
	sys := model.NewSystem(pe.init.Clone())
	r := &runner{
		pe:        pe,
		sys:       sys,
		gate:      newGate(pe.cfg.GateStripes),
		brand:     rand.Float64,
		rec:       recovery.New(0, sys.Init, pe.cfg.Policy.NewMonitor(sys), pe.cfg.CheckpointEvery),
		truncMark: 4 * pe.cfg.CheckpointEvery,
	}
	r.self = span{r}
	return r
}

// runTxn drives x to commit or abandonment, retrying with backoff after
// each abort: the engine's re-run of a committed transaction a cascade
// un-committed. It holds an MPL slot throughout, one of the slots the
// engine's sessions hold.
func (x *txn) runTxn() {
	pe := x.span[0].pe
	defer pe.wg.Done()
	if pe.sem != nil {
		pe.sem <- struct{}{}
		defer func() { <-pe.sem }()
	}
	x.retry(x.attempt(), nil)
}

// retry is the one retry loop, Session.Run's and runTxn's. While x has
// not committed, it reads the row under its stripe and stops unless the
// row is still active, the engine healthy and live (nil: always) holds;
// otherwise it waits backoff(attempts) and runs the next attempt.
// Reports whether x committed.
func (x *txn) retry(committed bool, live func() bool) bool {
	o, _ := x.own()
	for !committed {
		row := x.readRow()
		if row.status != txActive || row.fatal != nil || (live != nil && !live()) {
			return false
		}
		time.Sleep(o.backoff(row.attempts))
		committed = x.attempt()
	}
	return true
}

// The retry-delay curve (see Config.Backoff).
const (
	backoffCapFactor = 100
	backoffJitter    = 0.5
)

// backoff returns the k-th retry's delay: linear in k, capped at
// backoffCapFactor×Backoff, then jittered down by up to backoffJitter so
// transactions aborted by the same conflict do not re-collide in
// lockstep.
func (r *runner) backoff(k int) time.Duration {
	d := time.Duration(k) * r.pe.cfg.Backoff
	if d <= 0 {
		return 0
	}
	d = min(d, backoffCapFactor*r.pe.cfg.Backoff)
	return time.Duration(float64(d) * (1 - backoffJitter*r.brand()))
}

// txnStripes returns the stripe set covering transaction t's bookkeeping.
func (r *runner) txnStripes(buf []int, t int) []int {
	if r.gate.size() == 1 {
		return append(buf, 0)
	}
	return append(buf, r.gate.stripeOfTxn(t))
}

// attempt executes one full pass over x's declared steps in the row's
// current generation and reports whether x committed.
func (x *txn) attempt() bool {
	o, t := x.own()
	var buf [maxStripeBuf]int
	tset := o.txnStripes(buf[:0], t)
	o.gate.lockSet(tset)
	if o.status[t] != txActive || o.pe.failed() != nil {
		o.gate.unlockSet(tset)
		return false
	}
	gen := o.gen[t]
	// The transaction list is grown by OpenSession under a full drain,
	// so the declared body must be read under a stripe.
	tx := o.sys.Txns[t]
	o.gate.unlockSet(tset)
	return x.finish(gen, tx.Steps)
}

// finish executes steps — the rest of x's attempt gen — and commits,
// reporting whether x committed.
func (x *txn) finish(gen int, steps []model.Step) bool {
	for _, st := range steps {
		if !x.execStep(gen, st) {
			return false
		}
	}
	return x.commit(gen)
}

// execStep performs one declared step of x's attempt gen: the lock-table
// action for lock steps, then gate admission. It reports whether the
// step was admitted.
func (x *txn) execStep(gen int, step model.Step) bool {
	if step.Op.IsLock() {
		o, _ := x.own()
		t0 := time.Now()
		err := o.pe.mgr.Lock(x.sid, step.Ent, step.Op.LockMode())
		o.waitNs.Add(int64(time.Since(t0)))
		if err != nil {
			x.lockFailed(gen, err)
			return false
		}
	}
	return x.admit(gen, step)
}

// admit passes one step through the gate. A one-partition span first
// tries the fast path, which evaluates it under its footprint stripes;
// anything that cannot complete there — global footprints, structural
// updates, a due sequencer flush, a stale generation, a policy veto, an
// undefined data step — and every step of a wider span runs on the slow
// path under the span's drain, where the complete gate logic (including
// aborting) applies atomically.
func (x *txn) admit(gen int, st model.Step) bool {
	if o, t := x.own(); len(x.span) == 1 && !o.drainReq.Load() {
		ev := model.Ev{T: model.TID(t), S: st}
		var buf [maxStripeBuf]int
		if set, fast := o.gate.setFor(buf[:0], ev, o.pe.fpMon.Footprint(ev)); fast {
			switch out, err := x.admitFast(set, gen, ev); out {
			case fastAdmitted:
				return true
			case fastFatal:
				x.span.drain()
				x.bailDrained(err)
				return false
			case fastFallback:
				// fall through to the slow path; nothing happened
			}
		}
	}
	return x.admitSlow(gen, st)
}

type fastOutcome int

const (
	// fastAdmitted: the event was evaluated, applied and sequenced.
	fastAdmitted fastOutcome = iota
	// fastFallback: nothing was mutated; re-run on the slow path.
	fastFallback
	// fastFatal: an invariant broke *after* a side effect (the unlock
	// table action or the monitor step); the run must die.
	fastFatal
)

// admitFast tries to admit ev, the event of x's one-partition attempt
// gen, entirely under its footprint stripes. Every check that can fail
// without side effects falls back to the slow path, which re-evaluates
// from scratch — so a veto observed here is never acted on directly, and
// the abort happens atomically with the authoritative slow-path
// re-check.
func (x *txn) admitFast(set []int, gen int, ev model.Ev) (fastOutcome, error) {
	r, t := x.own()
	r.gate.lockSet(set)
	if r.pe.failed() != nil || r.gen[t] != gen {
		r.gate.unlockSet(set)
		return fastFallback, nil
	}
	if ev.S.Op.IsData() {
		if ev.S.Op == model.Insert || ev.S.Op == model.Delete {
			// Structural updates write the shared state map; only a
			// drain may do that. (Reading definedness here is safe:
			// every writer drains, and we hold a stripe.)
			r.gate.unlockSet(set)
			return fastFallback, nil
		}
		if !r.rec.State().Defined(ev.S) {
			r.gate.unlockSet(set)
			return fastFallback, nil
		}
	}
	mon := r.rec.Monitor()
	if mon.Check(ev) != nil {
		r.gate.unlockSet(set)
		return fastFallback, nil
	}
	if ev.S.Op.IsUnlock() {
		// The table action sits between Check and Step, as on the slow
		// path; a failed release mutates nothing, so it may still fall
		// back (the slow path will fail the same way and record it).
		if err := r.pe.mgr.Unlock(x.sid, ev.S.Ent); err != nil {
			r.gate.unlockSet(set)
			return fastFallback, nil
		}
	}
	if err := mon.Step(ev); err != nil {
		r.gate.unlockSet(set)
		return fastFatal, fmt.Errorf("runtime: monitor accepted Check but rejected Step: %w", err)
	}
	r.sequence(ev, drawTag)
	r.gate.unlockSet(set)
	return fastAdmitted, nil
}

// drawTag asks sequence to draw the event's tag itself.
const drawTag = ^uint64(0)

// sequence assigns ev its log position under tag. Called while ev's
// stripes are held (a drain holds them all), so two conflicting events
// (which share a stripe) are sequenced in execution order. The fast path passes drawTag: its tag is
// drawn inside the sequencer lock, so footprint-disjoint events racing
// to one partition still leave its log tag-ascending. The slow path
// passes the one tag it drew, under the span's drain, for every member.
func (r *runner) sequence(ev model.Ev, tag uint64) {
	r.seqMu.Lock()
	if tag == drawTag {
		tag = r.pe.tags.Add(1) - 1
	}
	r.pending = append(r.pending, ev)
	r.pendTags = append(r.pendTags, tag)
	if len(r.pending) >= r.pe.cfg.CheckpointEvery {
		r.drainReq.Store(true)
	}
	r.seqMu.Unlock()
}

// flushPending feeds the sequenced batch to the recovery core (which
// may take a checkpoint at the batch boundary) and then to the store:
// the runtime's one route for admitted events into both. Caller holds a
// full drain, so the core's single-owner discipline is preserved.
func (r *runner) flushPending() {
	r.seqMu.Lock()
	if len(r.pending) > 0 {
		r.rec.AppendAppliedTagged(r.pending, r.pendTags)
		if r.pers != nil {
			// flushPending always runs under a full drain.
			r.pe.persistFailed(r.pers.AppendEvents(r.pending, r.pendTags))
		}
		r.pending = r.pending[:0]
		r.pendTags = r.pendTags[:0]
	}
	r.drainReq.Store(false)
	r.seqMu.Unlock()
}

// admitSlow is the authoritative admission path: under the span's
// drain it runs the complete serialized-gate logic — stale check,
// definedness, the policy Check on every member's monitor (the verdict
// is their conjunction), the unlock table action, then every member's
// monitor Step and state update, and the event's hand-off to every
// member's sequencer under one shared tag, flushed with the next drain.
// Aborts and fatal errors are handled atomically here. With
// GateStripes = 1 every event of a one-partition span takes this path
// and the runtime is the pre-striping serialized gate.
func (x *txn) admitSlow(gen int, st model.Step) bool {
	x.span.drain()
	if x.staleDrained(gen) {
		return false
	}
	o, t := x.own()
	// Definedness is judged by the entity's home partition within the
	// span: every event that can create or delete st.Ent — a local
	// structural step of a transaction homed there, or a spanning one,
	// logged everywhere — lands in that partition's log, so its state is
	// authoritative for its own entities. A one-partition span is its own
	// home.
	if st.Op.IsData() && !x.span[model.PartitionOf(st.Ent, len(x.span))].rec.State().Defined(st) {
		// The workload raced ahead of a creator transaction: retry later.
		o.met.ImproperAborts++
		o.abortCause[t] = fmt.Errorf("improper step %s: undefined in the structural state", x.ev(0, st))
		x.abortDrained()
		return false
	}
	for i, r := range x.span {
		if err := r.rec.Monitor().Check(x.ev(i, st)); err != nil {
			o.met.PolicyAborts++
			o.abortCause[t] = err
			x.abortDrained()
			return false
		}
	}
	if st.Op.IsUnlock() {
		if err := o.pe.mgr.Unlock(x.sid, st.Ent); err != nil {
			// Releasing an un-held entity: a malformed workload, not an
			// abortable conflict.
			x.bailDrained(fmt.Errorf("runtime: %w", err))
			return false
		}
	}
	tag := o.pe.tags.Add(1) - 1
	for i, r := range x.span {
		ev := x.ev(i, st)
		if err := r.rec.Monitor().Step(ev); err != nil {
			x.bailDrained(fmt.Errorf("runtime: monitor accepted Check but rejected Step: %w", err))
			return false
		}
		r.rec.State().Apply(st)
		r.sequence(ev, tag)
	}
	x.span.undrain()
	return true
}

// lockFailed handles a lock-acquisition error: deadlock victims abort
// the attempt, anything else (re-locking a held entity — a malformed
// workload) is fatal. A stale generation wins over either, as in the
// serialized gate.
func (x *txn) lockFailed(gen int, err error) {
	x.span.drain()
	if x.staleDrained(gen) {
		return
	}
	if !errors.Is(err, lockmgr.ErrDeadlock) {
		x.bailDrained(fmt.Errorf("runtime: %w", err))
		return
	}
	// Deadlock victim (intra- or cross-shard, intra- or cross-partition).
	o, t := x.own()
	o.met.DeadlockAborts++
	o.abortCause[t] = err
	x.abortDrained()
}

// commit finalizes x: its last event is already sequenced, so only the
// bookkeeping and stray-lock shedding remain, done under the drain so a
// concurrent cascade cannot interleave between the status flip and the
// teardown. It reports whether x reached txCommitted — false when the
// attempt went stale under the drain or the engine failed.
func (x *txn) commit(gen int) bool {
	x.span.drain()
	if x.staleDrained(gen) {
		return false
	}
	o, _ := x.own()
	o.met.Commits++
	x.setStatusDrained(txCommitted)
	if o.pe.failed() != nil {
		x.span.undrain()
		o.pe.mgr.ReleaseAll(x.sid)
		return false
	}
	// Well-formed transactions have released everything; drop strays (so
	// a workload bug cannot wedge the rest of the run) while still
	// draining — after the drain ends a cascade may un-commit and
	// re-spawn x, and a stray teardown would tear the new attempt down.
	o.pe.mgr.ReleaseAll(x.sid)
	if o.pe.cfg.TruncateLog {
		for _, r := range x.span {
			r.maybeTruncateDrained()
		}
	}
	x.span.undrain()
	// The commit is acknowledged only once its status record is on disk
	// (with Fsync on), so an acked commit survives a crash. The barrier
	// runs outside the drain, shared with every row that buffered a
	// record meanwhile; a failed one is fatal and acknowledges nothing.
	return o.sync() == nil
}

// maybeTruncateDrained attempts a log-prefix truncation (see
// recovery.Core.Truncate) when the log has grown several checkpoint
// spans since the last attempt. A transaction is settled once it is no
// longer active: abandoned rows own no events, and committed rows
// entirely below the truncation point can never become cascade victims
// (compaction only re-examines retained events, whose owners are
// separated from the truncated prefix by Truncate's rule). A truncation
// that took also retires the transactions below the core's new floor —
// settled, owning no retained event — from the system, and re-syncs the
// live monitor through the core, so its rows stop at the floor like the
// log stops at the boundary. Called with a full drain held, sequencer
// flushed.
func (r *runner) maybeTruncateDrained() {
	if r.rec.Len() < r.truncMark {
		return
	}
	old := r.rec.Events() // Truncate copies the suffix; old stays readable
	if cut := r.rec.Truncate(func(t int) bool { return r.status[t] != txActive }); cut > 0 {
		if r.pers != nil {
			// On disk a cut offers a rotation, which the store takes once
			// the WAL has outgrown the snapshot.
			r.pe.persistFailed(r.pers.Rotate())
		}
		r.truncOwned += r.ownedEvents(old[:cut])
		r.sys.Retire(r.rec.Floor())
		r.rec.Grow(len(r.sys.Txns))
	}
	r.truncMark = r.rec.Len() + 4*r.pe.cfg.CheckpointEvery
}

// ownedEvents counts the events of evs whose row r owns: all of them
// unless rows span partitions, whose events are counted by their owner,
// the first partition, alone. Summed over the partitions it counts every
// event once. Called with r drained.
func (r *runner) ownedEvents(evs model.Schedule) int {
	if len(r.pe.spanning) == 0 {
		return len(evs)
	}
	n := 0
	for _, ev := range evs {
		if x := r.pe.spanning[r.owners[ev.T]]; x == nil || x.span[0] == r {
			n++
		}
	}
	return n
}

// staleDrained checks whether x's attempt was invalidated by a
// concurrent cascade (or the engine hit a fatal error). Called with the
// span drained; on stale it releases the drain and sheds any lock the
// attempt acquired inside the race window after the cascade's
// ReleaseAll.
func (x *txn) staleDrained(gen int) bool {
	o, t := x.own()
	if o.pe.failed() == nil && o.gen[t] == gen {
		return false
	}
	x.span.undrain()
	// The aborter already erased our events, charged the retry and
	// released our locks; only locks acquired after that teardown can
	// remain, and they were never observed by the monitor. A failed
	// engine admits nothing more, so its locks go too.
	o.pe.mgr.ReleaseAll(x.sid)
	return true
}

// bailDrained stops x after a fatal error: the engine fails with err.
// Called with the span drained; releases it.
func (x *txn) bailDrained(err error) {
	x.span[0].pe.fail(err)
	x.span.undrain()
	x.span[0].pe.mgr.ReleaseAll(x.sid)
}

// setStatusDrained sets x's status in every replica, recording it where
// it changed (span drained). A one-partition row's status is only
// buffered, behind the events and compactions its store buffered before
// it; the acknowledgement waits on the barrier after the drain (sync).
// A spanning row's statuses are each written and synced here, inside the
// drain, the owner's — the one a restore believes — last, and none after
// a failed write: once the owner's status is on disk every replica's
// events for x are too, and a crash midway leaves the owner's old
// status, to which restore reconciles the mirrors. Synced before the
// drain ends, they also precede any record of a row that reads x's
// writes once its locks drop (DESIGN.md, "The restore contract").
func (x *txn) setStatusDrained(s txnStatus) {
	var err error
	for i := len(x.span) - 1; i >= 0; i-- {
		r, t := x.span[i], x.locs[i]
		if r.status[t] == s {
			continue
		}
		r.status[t] = s
		if err == nil && r.pers != nil {
			err = r.pers.AppendStatus(t, s)
			if err == nil && len(x.span) > 1 {
				err = r.barrier()
			}
			r.pe.persistFailed(err)
		}
	}
}

// syncer is the barrier recovery.Store offers beside Persister's
// appends; a wrapping Persister may forward it.
type syncer interface{ Sync() error }

// barrier writes and, under Fsync, syncs every record r's store has
// buffered: through pers when it forwards the barrier, on the store
// beneath it otherwise.
func (r *runner) barrier() error {
	if s, ok := r.pers.(syncer); ok {
		return s.Sync()
	}
	return r.store.Sync()
}

// sync is the barrier an acknowledgement waits on, run with no drain
// held: it returns once every record r buffered before the call is on
// disk. A failure fails the engine, and the latched failure is returned.
func (r *runner) sync() error {
	if r.pers == nil {
		return nil
	}
	if err := r.barrier(); err != nil {
		r.pe.persistFailed(err)
		return r.pe.failed()
	}
	return nil
}

// abortDrained aborts x's current attempt: erase its events (cascading
// as needed), charge the retry, tear down its locks. Called with the
// span drained; returns with the drain released.
func (x *txn) abortDrained() {
	eraseDrained(x.span, x)
	x.chargeDrained()
	x.span.undrain()
	x.span[0].pe.mgr.ReleaseAll(x.sid)
}

// chargeDrained bumps x's generation and retry count, abandoning it past
// MaxRetries. Called with the span drained.
func (x *txn) chargeDrained() {
	o, t := x.own()
	o.gen[t]++
	o.attempts[t]++
	if o.attempts[t] > o.pe.cfg.MaxRetries && o.status[t] == txActive {
		o.met.GaveUp++
		x.setStatusDrained(txAbandoned)
	}
}

// eraseDrained removes the victims' events from the logs of sp through
// each member's checkpointed compaction: only the suffix after the last
// snapshot at or before the victims' first event is replayed. A
// surviving event that no longer replays identifies a cascade victim
// (for example a wake member of an aborted altruistic donor): it is torn
// down too — un-committing and re-spawning it if it had already finished
// — and compaction retries with the grown victim set, restarting from
// the earliest checkpoint the removals invalidate; a victim spanning
// several partitions joins every member's set, and the members before
// the one that found it compact again. Victims only grow, so the loop
// converges. Called with sp drained; every victim's span lies within sp.
func eraseDrained(sp span, victims ...*txn) {
	lv := make([]map[int]bool, len(sp))
	for i := range lv {
		lv[i] = make(map[int]bool)
	}
	add := func(v *txn) {
		for j, r := range v.span {
			lv[slices.Index(sp, r)][v.locs[j]] = true
		}
	}
	for _, v := range victims {
		add(v)
	}
restart:
	for i, r := range sp {
		for {
			erased := r.rec.Stats().Compactions
			ok, c := r.rec.Compact(lv[i])
			if ok {
				if r.pers != nil && r.rec.Stats().Compactions > erased {
					// The compaction removed events: without its record a
					// restore would resurrect them.
					r.pe.persistFailed(r.pers.AppendCompact(slices.Sorted(maps.Keys(lv[i]))))
				}
				break
			}
			if lv[i][c] {
				// Compact never re-reports a transaction already in the set;
				// seeing one is an invariant breach, not a livelock to spin on.
				r.pe.fail(fmt.Errorf("runtime: abort cascade cannot converge on T%d", c+1))
				return
			}
			v := r.rowTxn(c)
			if len(v.span) > len(sp) {
				// A partition-local abort cascaded onto a spanning
				// transaction: local bodies hold no structural events and no
				// donations, so their events never invalidate a spanning
				// one's. This is an invariant breach — mutating one replica
				// here would diverge the partitions.
				r.pe.fail(fmt.Errorf("runtime: local abort cascade reached cross-partition transaction T%d", c+1))
				return
			}
			v.cascadeVictimDrained()
			add(v)
			if len(v.span) > 1 {
				goto restart
			}
		}
	}
}

// cascadeVictimDrained performs the bookkeeping teardown of one cascade
// victim: charge the retry, un-commit and re-spawn it if it had already
// finished, release its locks (waking it with a cancellation if
// parked). Called by eraseDrained with a span drained that covers x's.
func (x *txn) cascadeVictimDrained() {
	o, t := x.own()
	o.met.CascadeAborts++
	o.abortCause[t] = fmt.Errorf("cascade victim: a surviving event of T%d no longer replays after the abort", x.sid+1)
	respawn := false
	if o.status[t] == txCommitted {
		// The cascade reached an already-committed transaction (e.g. a
		// wake member whose altruistic donor aborts after the member
		// finished). Un-commit and re-run it, as the engine does. The
		// un-commit is persisted *before* the compact record that erases
		// the victim's events lands, so a crash between them recovers the
		// transaction as active, never as a committed transaction with no
		// events.
		o.met.Commits--
		x.setStatusDrained(txActive)
		respawn = true
	}
	x.chargeDrained()
	// Tear down the victim's locks and wake it if parked
	// (ErrCancelled); a running victim notices its stale generation at
	// its next gate entry.
	o.pe.mgr.ReleaseAll(x.sid)
	if respawn && o.status[t] == txActive {
		o.pe.wg.Add(1)
		go x.runTxn()
	}
}
