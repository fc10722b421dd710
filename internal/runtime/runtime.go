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
// lock-table core's. Policy rules are consulted through a *footprint-
// striped admission gate*: the policy declares (via
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
// Session.Run and the re-runs share its one retry loop (txn.attempt).
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
// event-tag source. A partition-local body's span
// is its home partition — with one partition, every body's; a body
// spanning partitions, or declaring a global footprint, spans all of
// them, and its drain quiesces every partition — see partition.go and
// DESIGN.md ("Partitioned engines"). TestPartitionEquivalenceRandomTraces
// pins 1-, 2- and 8-partition digests identical to the reference drive's
// (ReplayTrace).
package runtime

import (
	"errors"
	"fmt"
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
	// Fsync syncs the WAL at every status record and every open but a
	// local run's (each carries the records buffered before it: events,
	// compactions and run opens). Required for the
	// "commit acked implies commit recovered" guarantee; without it a
	// crash can lose acknowledged tail records (torn tails still recover
	// cleanly).
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

// lockSpace is a partition's view of its lock manager. The partitions
// of a PartitionedEngine *share* one manager — cross-partition deadlock
// cycles threading a global transaction through two partitions' locals
// are only visible to a detector that sees every edge — and translate
// their local transaction indices to engine-wide owner ids through glob.
// The mapping is append-only: registrations append under the partition's
// full gate drain and publish the longer slice header, and lock calls
// (which run before any stripe is held) read it with an atomic load.
type lockSpace struct {
	m    *lockmgr.Manager
	glob atomic.Pointer[[]int] // local txn index -> owner id
}

func newLockSpace(m *lockmgr.Manager) *lockSpace {
	ls := &lockSpace{m: m}
	ls.glob.Store(new([]int))
	return ls
}

// register appends the owner id of the next local transaction index.
// Callers hold the partition's full drain, which serializes
// registrations. The append writes spare capacity of the published table
// in place: a reader indexes strictly below the length of the header it
// loaded, so it never touches the slot being written, and sees the new
// one only through the atomic store of the longer header.
func (ls *lockSpace) register(owner int) {
	next := append(*ls.glob.Load(), owner)
	ls.glob.Store(&next)
}

// owner translates a local transaction index to its lock-manager owner
// id.
func (ls *lockSpace) owner(t int) int { return (*ls.glob.Load())[t] }

func (ls *lockSpace) Lock(t int, e model.Entity, mode model.Mode) error {
	return ls.m.Lock(ls.owner(t), e, mode)
}
func (ls *lockSpace) Unlock(t int, e model.Entity) error { return ls.m.Unlock(ls.owner(t), e) }
func (ls *lockSpace) ReleaseAll(t int)                   { ls.m.ReleaseAll(ls.owner(t)) }

type runner struct {
	// pe is the engine this runner is one partition of: its
	// configuration, footprint monitor, MPL slots, event-tag source,
	// re-run group and table of spanning rows are every partition's.
	pe   *PartitionedEngine
	sys  *model.System
	mgr  *lockSpace
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
	// everything else — the recovery core, the aggregate metrics, fatal,
	// the transaction list itself (grown by OpenSession via sys.Add) —
	// is touched only under a full drain. fatal is additionally *read*
	// on the fast path, which is safe because its writers hold every
	// stripe including the reader's.
	rec    *recovery.Core
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
	// fatal records an internal invariant breach (monitor Check/Step
	// disagreement, a failed persist); the run stops admitting events
	// and reports it.
	fatal error
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

// fatal reports the first member's recorded invariant breach (drain
// held).
func (sp span) fatal() error {
	for _, r := range sp {
		if r.fatal != nil {
			return r.fatal
		}
	}
	return nil
}

// setFatal records err on every member that has none yet, so a breach
// in a spanning row halts every partition it touched (drain held).
func (sp span) setFatal(err error) {
	for _, r := range sp {
		if r.fatal == nil {
			r.fatal = err
		}
	}
}

// txn is one transaction row as the row machine drives it: span lists
// the partitions whose gates it drains and whose logs its events land
// in, ascending — the home partition of a partition-local body, every
// partition of the engine for a body spanning them or declaring a global
// footprint — and locs[i] is the row's local index in span[i]. The
// owner replica span[0] keeps the row's generation, attempts and abort
// cause, is charged its metrics and is its lock-manager identity; status
// writes reach every replica. A txn holds no state of its own, so any
// copy drives the same row.
type txn struct {
	span span
	locs []int
}

// rowTxn returns the row of local index t.
func (r *runner) rowTxn(t int) *txn {
	if x := r.pe.spanning[r.mgr.owner(t)]; x != nil {
		return x
	}
	return &txn{span: r.self, locs: []int{t}}
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
		mgr:       newLockSpace(pe.mgr),
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
	for {
		_, again, delay := x.attempt()
		if !again {
			return
		}
		time.Sleep(delay)
	}
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
// current generation. It reports whether x committed, and otherwise
// whether to retry and after what delay.
func (x *txn) attempt() (committed, again bool, delay time.Duration) {
	o, t := x.own()
	var buf [maxStripeBuf]int
	tset := o.txnStripes(buf[:0], t)
	o.gate.lockSet(tset)
	if o.status[t] != txActive || o.fatal != nil {
		o.gate.unlockSet(tset)
		return false, false, 0
	}
	gen := o.gen[t]
	// The transaction list is grown by OpenSession under a full drain,
	// so the declared body must be read under a stripe.
	tx := o.sys.Txns[t]
	o.gate.unlockSet(tset)
	return x.finish(gen, tx.Steps)
}

// finish executes steps — the rest of x's attempt gen — and commits,
// reporting as attempt does.
func (x *txn) finish(gen int, steps []model.Step) (committed, again bool, delay time.Duration) {
	for _, st := range steps {
		if ok, again, delay := x.execStep(gen, st); !ok {
			return false, again, delay
		}
	}
	return x.commit(gen)
}

// execStep performs one declared step of x's attempt gen: the lock-table
// action for lock steps, then gate admission. ok reports whether the
// step was admitted; otherwise (again, delay) is the retry policy for
// the attempt, as runTxn interprets it.
func (x *txn) execStep(gen int, step model.Step) (ok, again bool, delay time.Duration) {
	if step.Op.IsLock() {
		o, t := x.own()
		t0 := time.Now()
		err := o.mgr.Lock(t, step.Ent, step.Op.LockMode())
		o.waitNs.Add(int64(time.Since(t0)))
		if err != nil {
			again, delay = x.lockFailed(gen, err)
			return false, again, delay
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
func (x *txn) admit(gen int, st model.Step) (ok, again bool, delay time.Duration) {
	if o, t := x.own(); len(x.span) == 1 && !o.drainReq.Load() {
		ev := model.Ev{T: model.TID(t), S: st}
		var buf [maxStripeBuf]int
		if set, fast := o.gate.setFor(buf[:0], ev, o.pe.fpMon.Footprint(ev)); fast {
			switch out, err := o.admitFast(set, t, gen, ev); out {
			case fastAdmitted:
				return true, false, 0
			case fastFatal:
				again, delay = x.bailSlow(err)
				return false, again, delay
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

// admitFast tries to admit ev entirely under its footprint stripes.
// Every check that can fail without side effects falls back to the slow
// path, which re-evaluates from scratch — so a veto observed here is
// never acted on directly, and the abort happens atomically with the
// authoritative slow-path re-check.
func (r *runner) admitFast(set []int, t, gen int, ev model.Ev) (fastOutcome, error) {
	r.gate.lockSet(set)
	if r.fatal != nil || r.gen[t] != gen {
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
		if err := r.mgr.Unlock(t, ev.S.Ent); err != nil {
			r.gate.unlockSet(set)
			return fastFallback, nil
		}
	}
	if err := mon.Step(ev); err != nil {
		r.gate.unlockSet(set)
		return fastFatal, fmt.Errorf("runtime: monitor accepted Check but rejected Step: %w", err)
	}
	r.sequence(ev)
	r.gate.unlockSet(set)
	return fastAdmitted, nil
}

// sequence assigns ev its log position. Called while ev's stripes are
// held, so two conflicting events (which share a stripe) are sequenced
// in execution order.
func (r *runner) sequence(ev model.Ev) {
	r.seqMu.Lock()
	r.pending = append(r.pending, ev)
	r.pendTags = append(r.pendTags, r.pe.tags.Add(1)-1)
	if len(r.pending) >= r.pe.cfg.CheckpointEvery {
		r.drainReq.Store(true)
	}
	r.seqMu.Unlock()
}

// flushPending feeds the sequenced batch to the recovery core (which
// may take a checkpoint at the batch boundary). Caller holds a full
// drain, so the core's single-owner discipline is preserved.
func (r *runner) flushPending() {
	r.seqMu.Lock()
	if len(r.pending) > 0 {
		// flushPending always runs under a full drain.
		r.persistFailedDrained(r.rec.AppendAppliedTagged(r.pending, r.pendTags))
		r.pending = r.pending[:0]
		r.pendTags = r.pendTags[:0]
	}
	r.drainReq.Store(false)
	r.seqMu.Unlock()
}

// admitSlow is the authoritative admission path: under the span's
// drain it runs the complete serialized-gate logic — stale check,
// definedness, the policy Check on every member's monitor (the verdict
// is their conjunction), the unlock table action, and the append into
// every member's recovery core under one sequence tag (which steps the
// monitors and takes checkpoints). Aborts and fatal errors are handled
// atomically here. With GateStripes = 1 every event of a one-partition
// span takes this path and the runtime is the pre-striping serialized
// gate.
func (x *txn) admitSlow(gen int, st model.Step) (ok, again bool, delay time.Duration) {
	x.span.drain()
	if stale, out := x.staleDrained(gen); stale {
		return false, out.again, out.delay
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
		again, delay = x.abortDrained()
		return false, again, delay
	}
	for i, r := range x.span {
		if err := r.rec.Monitor().Check(x.ev(i, st)); err != nil {
			o.met.PolicyAborts++
			o.abortCause[t] = err
			again, delay = x.abortDrained()
			return false, again, delay
		}
	}
	if st.Op.IsUnlock() {
		if err := o.mgr.Unlock(t, st.Ent); err != nil {
			// Releasing an un-held entity: a malformed workload, not an
			// abortable conflict.
			again, delay = x.bailDrained(fmt.Errorf("runtime: %w", err))
			return false, again, delay
		}
	}
	tag := o.pe.tags.Add(1) - 1
	for i, r := range x.span {
		if !r.commitEventDrained(x.ev(i, st), tag) {
			again, delay = x.bailDrained(nil)
			return false, again, delay
		}
	}
	x.span.undrain()
	return true, false, 0
}

// lockFailed handles a lock-acquisition error: deadlock victims abort
// the attempt, anything else (re-locking a held entity — a malformed
// workload) is fatal. A stale generation wins over either, as in the
// serialized gate.
func (x *txn) lockFailed(gen int, err error) (bool, time.Duration) {
	x.span.drain()
	if stale, out := x.staleDrained(gen); stale {
		return out.again, out.delay
	}
	if !errors.Is(err, lockmgr.ErrDeadlock) {
		return x.bailDrained(fmt.Errorf("runtime: %w", err))
	}
	// Deadlock victim (intra- or cross-shard, intra- or cross-partition).
	o, t := x.own()
	o.met.DeadlockAborts++
	o.abortCause[t] = err
	return x.abortDrained()
}

// commit finalizes x: its last event is already sequenced, so only the
// bookkeeping and stray-lock shedding remain, done under the drain so a
// concurrent cascade cannot interleave between the status flip and the
// teardown. committed reports whether x actually reached txCommitted —
// false when the attempt went stale under the drain (the session API
// needs the distinction; runTxn only follows again/delay).
func (x *txn) commit(gen int) (committed, again bool, delay time.Duration) {
	x.span.drain()
	if stale, out := x.staleDrained(gen); stale {
		return false, out.again, out.delay
	}
	o, t := x.own()
	o.met.Commits++
	// The commit is acknowledged only after the status record is durably
	// appended in every replica (with Fsync on), so an acked commit
	// survives a crash.
	x.setStatusDrained(txCommitted)
	if x.span.fatal() != nil {
		x.span.undrain()
		o.mgr.ReleaseAll(t)
		return false, false, 0
	}
	// Well-formed transactions have released everything; drop strays (so
	// a workload bug cannot wedge the rest of the run) while still
	// draining — after the drain ends a cascade may un-commit and
	// re-spawn x, and a stray teardown would tear the new attempt down.
	o.mgr.ReleaseAll(t)
	if o.pe.cfg.TruncateLog {
		for _, r := range x.span {
			r.maybeTruncateDrained()
		}
	}
	x.span.undrain()
	return true, false, 0
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
		// The core latches a failed rotation instead of returning it.
		r.persistFailedDrained(r.rec.PersistErr())
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
		if x := r.pe.spanning[r.mgr.owner(int(ev.T))]; x == nil || x.span[0] == r {
			n++
		}
	}
	return n
}

type retryOut struct {
	again bool
	delay time.Duration
}

// staleDrained checks whether x's attempt was invalidated by a
// concurrent cascade (or the engine hit a fatal error). Called with the
// span drained; on stale it releases the drain, sheds any lock the
// attempt acquired inside the race window after the cascade's
// ReleaseAll, and reports how to continue.
func (x *txn) staleDrained(gen int) (bool, retryOut) {
	o, t := x.own()
	if x.span.fatal() != nil {
		x.span.undrain()
		o.mgr.ReleaseAll(t)
		return true, retryOut{again: false}
	}
	if o.gen[t] == gen {
		return false, retryOut{}
	}
	again := o.status[t] == txActive
	delay := o.backoff(o.attempts[t])
	x.span.undrain()
	// The aborter already erased our events, charged the retry and
	// released our locks; only locks acquired after that teardown can
	// remain, and they were never observed by the monitor.
	o.mgr.ReleaseAll(t)
	return true, retryOut{again: again, delay: delay}
}

// bailDrained stops x after a fatal error, recording err (nil: the
// error a member already recorded) on every member of the span that has
// none. Called with the span drained; releases it.
func (x *txn) bailDrained(err error) (bool, time.Duration) {
	if err == nil {
		err = x.span.fatal()
	}
	x.span.setFatal(err)
	x.span.undrain()
	o, t := x.own()
	o.mgr.ReleaseAll(t)
	return false, 0
}

// bailSlow is bailDrained for callers not yet draining (the fast path's
// post-side-effect failures).
func (x *txn) bailSlow(err error) (bool, time.Duration) {
	x.span.drain()
	return x.bailDrained(err)
}

// commitEventDrained applies ev to the monitor and structural state and
// appends it to the log under the given sequence tag, all through the
// recovery core. Called with a full drain held after a successful
// Check; reports false (recording a fatal error) if the monitor reneges
// on its Check or the append cannot be persisted.
func (r *runner) commitEventDrained(ev model.Ev, tag uint64) bool {
	if err := r.rec.AppendTagged(ev, tag); err != nil {
		var perr *recovery.PersistError
		if errors.As(err, &perr) {
			r.fatal = fmt.Errorf("runtime: persistence failed: %w", err)
		} else {
			r.fatal = fmt.Errorf("runtime: monitor accepted Check but rejected Step: %w", err)
		}
		return false
	}
	return true
}

// persistFailedDrained records a persister failure (nil: none) as the
// runner's fatal error unless one is already recorded: the engine can no
// longer honor its durability contract and stops admitting work. Called
// with a full drain held.
func (r *runner) persistFailedDrained(err error) {
	if err != nil && r.fatal == nil {
		r.fatal = fmt.Errorf("runtime: persistence failed: %w", err)
	}
}

// setStatusDrained sets x's status in every replica, durably where it
// changed (span drained). The owner's status — the one a restore
// believes — is written last, and none after a failed write: a status
// record carries the events and compactions its store buffered before
// it, so once the owner's status is on disk every replica's events for
// x are too. A crash midway leaves the owner's old status, and restore
// reconciles the mirrors back to it.
func (x *txn) setStatusDrained(s txnStatus) {
	var err error
	for i := len(x.span) - 1; i >= 0; i-- {
		r, t := x.span[i], x.locs[i]
		if r.status[t] == s {
			continue
		}
		r.status[t] = s
		if err == nil {
			err = r.rec.PersistStatus(t, s)
			r.persistFailedDrained(err)
		}
	}
}

// abortDrained aborts x's current attempt: erase its events (cascading
// as needed), charge the retry, tear down its locks. Called with the
// span drained; returns with the drain released.
func (x *txn) abortDrained() (bool, time.Duration) {
	eraseDrained(x.span, x)
	x.chargeDrained()
	o, t := x.own()
	again := o.status[t] == txActive
	delay := o.backoff(o.attempts[t])
	x.span.undrain()
	o.mgr.ReleaseAll(t)
	return again, delay
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
			ok, c := r.rec.Compact(lv[i])
			if ok {
				// The core latches a failed compaction record instead of
				// returning it; a restore would resurrect the victims' events.
				r.persistFailedDrained(r.rec.PersistErr())
				break
			}
			if lv[i][c] {
				// Compact never re-reports a transaction already in the set;
				// seeing one is an invariant breach, not a livelock to spin on.
				sp.setFatal(fmt.Errorf("runtime: abort cascade cannot converge on T%d", c+1))
				return
			}
			v := r.rowTxn(c)
			if len(v.span) > len(sp) {
				// A partition-local abort cascaded onto a spanning
				// transaction: local bodies hold no structural events and no
				// donations, so their events never invalidate a spanning
				// one's. This is an invariant breach — mutating one replica
				// here would diverge the partitions.
				sp.setFatal(fmt.Errorf("runtime: local abort cascade reached cross-partition transaction T%d", c+1))
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
	o.abortCause[t] = fmt.Errorf("cascade victim: a surviving event of T%d no longer replays after the abort", o.mgr.owner(t)+1)
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
	o.mgr.ReleaseAll(t)
	if respawn && o.status[t] == txActive {
		o.pe.wg.Add(1)
		go x.runTxn()
	}
}
