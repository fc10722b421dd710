// Package runtime executes transactions as real goroutines against the
// sharded concurrent lock manager under a locking-policy monitor, in
// two modes: Run executes a complete pre-generated workload batch-style
// (every transaction driven by its own goroutine to commit or
// abandonment), and Engine serves a *long-lived, open-ended* population
// — clients Open sessions by declaring a transaction body and drive its
// steps one at a time (Session.Step/Commit/Abort), with lease timeouts
// reaping abandoned sessions. The network lock service lockd
// (locksafe/internal/server, cmd/lockd) is a thin transport over the
// Engine API. It is the concurrent counterpart of the virtual-time
// execution engine (locksafe/internal/engine): the same abort/retry
// discipline, the same cascading-abort rule (a surviving event that no
// longer replays — for example a wake member of an aborted altruistic
// donor — is aborted too), and comparable metrics, but measured on real
// cores and wall-clock time instead of a deterministic simulation.
//
// Locking goes through lockmgr.Manager, so grant order, upgrades and
// deadlock detection (including cross-shard sweeps) are the shared
// lock-table core's. Policy rules are consulted through a *footprint-
// striped admission gate*: each event's monitor declares (via
// model.Monitor.Footprint) which transactions' bookkeeping and which
// entities' state evaluating the event touches, and the gate maps that
// footprint onto hash-addressed stripe locks. Footprint-disjoint events
// evaluate Check/Step concurrently under their stripes, while
// overlapping events serialize on a shared stripe and global-footprint
// events (plus structural updates, aborts, commits and checkpoints)
// drain every stripe. A sequencer assigns log order before an event's
// stripes are released, so conflicting events — which always share a
// stripe — appear in the log in their execution order and the logged
// schedule is legal; footprint-disjoint events commute, so any log order
// reproduces the same monitor state. The sequenced batch is fed to the
// recovery core at drain points, preserving its single-owner discipline.
// Run verifies the committed schedule is serializable before returning.
//
// With Config.GateStripes = 1 every admission drains the single stripe
// and the gate is behavior-identical to the serialized monitor gate this
// pipeline replaced — the equivalence property test pins that, and E15
// measures what striping buys on footprint-disjoint workloads.
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
// Sessions ride the same machinery: opening one appends the declared
// transaction to its partition's system under a full gate drain (growing
// the monitors and the recovery core via their Grow methods),
// Session.Step goes through exactly the batch loop's lock-acquisition
// and admission paths, and a committed session un-committed by a cascade
// is re-run by the engine itself from its declared body. DESIGN.md's
// "Service layer" section gives the argument that this preserves the
// gate-equivalence invariants; TestSessionGateEquivalence pins it end to
// end.
//
// There is one session engine, PartitionedEngine (NewSessionEngine,
// NewDurableSessionEngine): max(1, Config.Partitions) entity-hash
// partitions, each a complete Engine (own striped gate, sequencer,
// recovery core), sharing only the lock manager. Sessions whose declared
// bodies are partition-local — with one partition, all of them — run
// entirely on their home partition; bodies spanning partitions and
// global-footprint events go through a cross-partition drain that
// quiesces every partition — see partition.go and DESIGN.md
// ("Partitioned engines"). TestPartitionEquivalenceRandomTraces pins
// 1-, 2- and 8-partition digests identical to the batch reference's.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
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
	// Backoff is the base retry delay; the k-th retry waits k*Backoff,
	// capped at BackoffCap and shrunk by up to BackoffJitter.
	// 0 selects the default (200µs); negative means no delay.
	Backoff time.Duration
	// BackoffCap bounds the linear retry delay — without it a long abort
	// streak walks the delay out without limit and, worse, every client
	// on the same streak walks it identically, synchronizing retry
	// storms. 0 selects the default (100×Backoff); negative means no cap
	// (the pre-cap behavior, for ablation).
	BackoffCap time.Duration
	// BackoffJitter randomizes each delay down by up to this fraction
	// (the k-th retry sleeps uniformly in [(1-J)·d, d] for d the capped
	// linear delay), desynchronizing clients that aborted together.
	// 0 selects the default (0.5); negative means none; values above 1
	// are clamped to 1.
	BackoffJitter float64
	// BackoffRand supplies the jitter's uniform [0,1) draws (nil means
	// the process-global math/rand source). Inject for deterministic
	// delay tests.
	BackoffRand func() float64
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
	// the reference mode of the E15 experiment and the gate equivalence
	// tests — and the sensible choice for a policy whose footprints are
	// always global (DTR), where every admission would otherwise pay a
	// full drain of GateStripes mutexes to buy no concurrency.
	GateStripes int
	// Lease is the session lease of a long-lived Engine: how long a
	// Session may sit idle between requests before the engine aborts it,
	// releases its locks and abandons it (Metrics.LeaseExpired). The
	// lease clock runs only between session requests — a session parked
	// inside a lock acquisition is waiting on the system, not the
	// client, and is never expired mid-request. 0 disables leases.
	// Batch Run ignores the field.
	Lease time.Duration
	// Clock overrides the time source used for lease accounting (nil
	// means time.Now). With a non-nil Clock the engine starts no
	// background reaper: the test or embedding server advances the clock
	// and calls the engine's Reap itself, which makes lease expiry fully
	// deterministic.
	Clock func() time.Time
	// Partitions is the session engine's partition count
	// (NewSessionEngine): the entity space is hashed into this many
	// partitions, each a full Engine with its own gate, sequencer and
	// recovery core; sessions whose declared body stays inside one
	// partition run there with zero cross-partition coordination, and
	// the rest go through the cross-partition drain. 0 means 1: one
	// partition of the same engine, on which every body is local. Batch
	// Run ignores the field.
	Partitions int
	// DataDir enables durability: each partition's recovery core writes
	// an append-only WAL (plus checkpoint snapshots) under this
	// directory, and NewDurableSessionEngine restores the committed
	// schedule from it on start. Empty means memory-only. One partition
	// persists into DataDir itself, n > 1 into DataDir/p<i>; a directory
	// written with a different partition count is refused (ErrLayout).
	// Batch Run and NewSessionEngine ignore the field.
	DataDir string
	// Fsync syncs the WAL after every append batch. Required for the
	// "commit acked implies commit recovered" guarantee; without it a
	// crash can lose acknowledged tail records (torn tails still recover
	// cleanly).
	Fsync bool
	// WrapPersister, when non-nil, wraps the disk store before it is
	// attached to the recovery core — the crash-injection hook for
	// durability tests (e.g. recovery.CrashPersister). Ignored when
	// DataDir is empty.
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
	if c.BackoffCap == 0 {
		c.BackoffCap = 100 * c.Backoff
	}
	switch {
	case c.BackoffJitter == 0:
		c.BackoffJitter = 0.5
	case c.BackoffJitter < 0:
		c.BackoffJitter = 0
	case c.BackoffJitter > 1:
		c.BackoffJitter = 1
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
	// subset of GaveUp). Always zero in batch runs.
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
// which Run verifies to be serializable before returning.
type Result struct {
	Metrics  Metrics
	Schedule model.Schedule // events of committed transactions, in log order
}

type txnStatus uint8

const (
	txActive txnStatus = iota
	txCommitted
	txAbandoned
)

// maxStripeBuf is the stack buffer for per-admission stripe sets; the
// monitors' footprints cover at most a primary transaction/entity plus a
// bounded neighborhood.
const maxStripeBuf = 8

// lockSpace is a runner's view of its lock manager. A standalone runner
// (batch Run) owns its manager and addresses it by local transaction
// index. The partitions of a PartitionedEngine instead *share* one
// manager — cross-partition deadlock cycles threading a global
// transaction through two partitions' locals are only visible to a
// detector that sees every edge — and translate their local transaction
// indices to engine-wide owner ids through glob. The mapping is
// append-only: registrations append under the partition's full gate
// drain and publish the longer slice header, and lock calls (which run
// before any stripe is held) read it with an atomic load.
type lockSpace struct {
	m    *lockmgr.Manager
	glob atomic.Pointer[[]int] // local txn index -> owner id; nil = identity
}

func newLockSpace(shards int) *lockSpace { return &lockSpace{m: lockmgr.NewSharded(shards)} }

// sharedLockSpace wraps an existing manager in translation mode: owner
// ids come from the glob mapping from the first registration on.
func sharedLockSpace(m *lockmgr.Manager) *lockSpace {
	ls := &lockSpace{m: m}
	empty := []int{}
	ls.glob.Store(&empty)
	return ls
}

// register appends the owner id of the next local transaction index.
// No-op in identity mode. Callers in translation mode hold the
// partition's full drain, which serializes registrations. The append
// writes spare capacity of the published table in place: a reader
// indexes strictly below the length of the header it loaded, so it never
// touches the slot being written, and sees the new one only through the
// atomic store of the longer header.
func (ls *lockSpace) register(owner int) {
	p := ls.glob.Load()
	if p == nil {
		return
	}
	next := append(*p, owner)
	ls.glob.Store(&next)
}

// owner translates a local transaction index to its lock-manager owner
// id.
func (ls *lockSpace) owner(t int) int {
	if p := ls.glob.Load(); p != nil {
		return (*p)[t]
	}
	return t
}

func (ls *lockSpace) Lock(t int, e model.Entity, mode model.Mode) error {
	return ls.m.Lock(ls.owner(t), e, mode)
}
func (ls *lockSpace) Unlock(t int, e model.Entity) error { return ls.m.Unlock(ls.owner(t), e) }
func (ls *lockSpace) ReleaseAll(t int)                   { ls.m.ReleaseAll(ls.owner(t)) }

type runner struct {
	sys  *model.System
	cfg  Config
	mgr  *lockSpace
	gate *gate
	// fpMon is a dedicated monitor instance consulted only for
	// Footprint, which is pure (static configuration + the event), so
	// it can be called before any stripe is held. The *live* monitor
	// object is replaced by compaction and must not be touched unlocked.
	fpMon model.Monitor

	sem chan struct{} // MPL admission; nil = unbounded
	wg  sync.WaitGroup

	// brand is the backoff jitter source (cfg.BackoffRand or the
	// process-global math/rand).
	brand func() float64

	// seqMu is the sequencer: it assigns log order by appending to
	// pending while the admitting goroutine still holds its stripes.
	// Conflicting events always share a stripe, so their pending order
	// is their execution order; the batch is flushed into the recovery
	// core at drain points.
	seqMu   sync.Mutex
	pending []model.Ev
	// pendTags carries pending's per-event tags in lockstep: global
	// sequence numbers drawn from tagSrc at sequencing time, so the
	// per-partition logs of a PartitionedEngine can be merged back into
	// one global execution order. Standalone runners own their tagSrc
	// and the tags are simply 0,1,2,…
	pendTags []uint64
	tagSrc   *atomic.Uint64
	// drainReq asks the next admission to drain the gate and flush the
	// sequencer (checkpoint pacing).
	drainReq atomic.Bool
	// waitNs accumulates lock-wait time from the fast path; folded into
	// met.Wait when the run ends.
	waitNs atomic.Int64

	// The fields below are stripe-protected. Per-transaction entries
	// (status, gen, attempts, abortCause) are read under any stripe set
	// covering that transaction and written only under a full drain;
	// everything else — the recovery core, the aggregate metrics, fatal,
	// the transaction list itself (grown by Engine.open via sys.Add) —
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
	// mirror marks rows registered on behalf of a cross-partition
	// (global) transaction by a PartitionedEngine: their lifecycle is
	// owned by the cross-partition drain, never by this runner's local
	// paths. A local abort cascading onto a mirror row would mean a
	// partition-local event invalidated a global one — impossible while
	// classification is sound (local transactions own no structural
	// events and no donations), so eraseDrained treats it as a fatal
	// invariant breach rather than mutating one replica of a global
	// transaction.
	mirror []bool
	met    Metrics
	// truncMark paces log truncation (Config.TruncateLog): the next
	// commit at or past this log length attempts a prefix truncation.
	truncMark int
	// fatal records an internal invariant breach (monitor Check/Step
	// disagreement); the run stops admitting events and reports it.
	fatal error
}

// Run executes the system's transactions as goroutines and returns
// metrics and the committed schedule.
func Run(sys *model.System, cfg Config) (*Result, error) {
	return newRunner(sys, cfg).run()
}

func (r *runner) run() (*Result, error) {
	start := time.Now()
	r.wg.Add(len(r.sys.Txns))
	for t := range r.sys.Txns {
		go r.runTxn(t)
	}
	r.wg.Wait()
	// Single-threaded from here on; drain for the helpers' discipline.
	r.gate.drain()
	r.flushPending()
	r.gate.undrain()
	r.met.Elapsed = time.Since(start)
	r.met.Wait = time.Duration(r.waitNs.Load())
	if r.fatal != nil {
		return nil, r.fatal
	}
	r.met.Events = r.rec.Len() + r.rec.Stats().Truncated
	r.met.Replayed = r.rec.Stats().Replayed
	// Abandoned transactions' events were erased at their final abort, so
	// the log is exactly the committed schedule.
	sched := r.rec.Events()
	if !sched.Serializable(r.sys) {
		return nil, fmt.Errorf("runtime: committed schedule is NOT serializable under policy %q", r.cfg.Policy.Name())
	}
	return &Result{Metrics: r.met, Schedule: sched}, nil
}

func newRunner(sys *model.System, cfg Config) *runner {
	return newRunnerShared(sys, cfg, nil)
}

// sharedParts is the wiring a PartitionedEngine injects into its
// partition engines: one lock manager (cross-partition deadlock cycles
// need a single detector), one global event-tag source (per-partition
// logs merge by tag), and one MPL semaphore (a session occupies one
// slot engine-wide, wherever it runs).
type sharedParts struct {
	mgr  *lockmgr.Manager
	tags *atomic.Uint64
	sem  chan struct{}
}

func newRunnerShared(sys *model.System, cfg Config, sh *sharedParts) *runner {
	cfg = cfg.withDefaults()
	r := &runner{
		sys:        sys,
		cfg:        cfg,
		gate:       newGate(cfg.GateStripes),
		fpMon:      cfg.Policy.NewMonitor(sys),
		rec:        recovery.New(len(sys.Txns), sys.Init, cfg.Policy.NewMonitor(sys), cfg.CheckpointEvery),
		status:     make([]txnStatus, len(sys.Txns)),
		gen:        make([]int, len(sys.Txns)),
		attempts:   make([]int, len(sys.Txns)),
		abortCause: make([]error, len(sys.Txns)),
		mirror:     make([]bool, len(sys.Txns)),
		truncMark:  4 * cfg.CheckpointEvery,
	}
	if sh != nil {
		r.mgr = sharedLockSpace(sh.mgr)
		r.tagSrc = sh.tags
		r.sem = sh.sem
	} else {
		r.mgr = newLockSpace(cfg.Shards)
		r.tagSrc = new(atomic.Uint64)
		if cfg.MPL > 0 {
			r.sem = make(chan struct{}, cfg.MPL)
		}
	}
	r.brand = cfg.BackoffRand
	if r.brand == nil {
		r.brand = rand.Float64
	}
	return r
}

// runTxn drives one transaction to commit or abandonment, retrying with
// linear backoff after each abort.
func (r *runner) runTxn(t int) {
	defer r.wg.Done()
	if r.sem != nil {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
	}
	for {
		again, delay := r.attempt(t)
		if !again {
			return
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
}

// backoff returns the k-th retry's delay: linear in k, capped at
// BackoffCap, then jittered down by up to BackoffJitter so transactions
// aborted by the same conflict do not re-collide in lockstep.
func (r *runner) backoff(k int) time.Duration {
	d := time.Duration(k) * r.cfg.Backoff
	if d <= 0 {
		return 0
	}
	if cap := r.cfg.BackoffCap; cap > 0 && d > cap {
		d = cap
	}
	if j := r.cfg.BackoffJitter; j > 0 {
		d = time.Duration(float64(d) * (1 - j*r.brand()))
	}
	return d
}

// txnStripes returns the stripe set covering transaction t's bookkeeping.
func (r *runner) txnStripes(buf []int, t int) []int {
	if r.gate.size() == 1 {
		return append(buf, 0)
	}
	return append(buf, r.gate.stripeOfTxn(t))
}

// attempt executes one full pass over t's declared steps. It reports
// whether to retry and after what delay.
func (r *runner) attempt(t int) (bool, time.Duration) {
	var buf [maxStripeBuf]int
	tset := r.txnStripes(buf[:0], t)
	r.gate.lockSet(tset)
	if r.status[t] != txActive || r.fatal != nil {
		r.gate.unlockSet(tset)
		return false, 0
	}
	gen := r.gen[t]
	// The transaction list is grown by Engine.open under a full drain,
	// so the declared body must be read under a stripe.
	tx := r.sys.Txns[t]
	r.gate.unlockSet(tset)

	for pos := 0; pos < tx.Len(); pos++ {
		ok, again, delay := r.execStep(t, gen, tx.Steps[pos])
		if !ok {
			return again, delay
		}
	}
	_, again, delay := r.commit(t, gen)
	return again, delay
}

// execStep performs one declared step of t's attempt gen: the lock-table
// action for lock steps, then gate admission. ok reports whether the
// step was admitted; otherwise (again, delay) is the retry policy for
// the attempt, exactly as the batch loop interprets it.
func (r *runner) execStep(t, gen int, step model.Step) (ok, again bool, delay time.Duration) {
	ev := model.Ev{T: model.TID(t), S: step}
	if step.Op.IsLock() {
		t0 := time.Now()
		err := r.mgr.Lock(t, step.Ent, step.Op.LockMode())
		r.waitNs.Add(int64(time.Since(t0)))
		if err != nil {
			again, delay = r.lockFailed(t, gen, err)
			return false, again, delay
		}
	}
	return r.admit(t, gen, ev)
}

// admit passes one event through the gate: the fast path evaluates it
// under its footprint stripes; anything that cannot complete there —
// global footprints, structural updates, a due sequencer flush, a stale
// generation, a policy veto, an undefined data step — re-runs on the
// slow path under a full drain, where the complete legacy gate logic
// (including aborting) applies atomically.
func (r *runner) admit(t, gen int, ev model.Ev) (ok, again bool, delay time.Duration) {
	var buf [maxStripeBuf]int
	if !r.drainReq.Load() {
		if set, fast := r.gate.setFor(buf[:0], ev, r.fpMon.Footprint(ev)); fast {
			switch out, err := r.admitFast(set, t, gen, ev); out {
			case fastAdmitted:
				return true, false, 0
			case fastFatal:
				again, delay = r.bailSlow(t, err)
				return false, again, delay
			case fastFallback:
				// fall through to the slow path; nothing happened
			}
		}
	}
	return r.admitSlow(t, gen, ev)
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
	r.pendTags = append(r.pendTags, r.tagSrc.Add(1)-1)
	if len(r.pending) >= r.cfg.CheckpointEvery {
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
		err := r.rec.AppendAppliedTagged(r.pending, r.pendTags)
		r.pending = r.pending[:0]
		r.pendTags = r.pendTags[:0]
		// A persister failure means the engine can no longer honor its
		// durability contract; stop admitting work. Safe to record here:
		// flushPending always runs under a full drain.
		if err != nil && r.fatal == nil {
			r.fatal = fmt.Errorf("runtime: persistence failed: %w", err)
		}
	}
	r.drainReq.Store(false)
	r.seqMu.Unlock()
}

// admitSlow is the authoritative admission path: under a full drain it
// runs the complete serialized-gate logic — stale check, definedness,
// policy Check, the unlock table action, and the recovery-core append
// (which steps the monitor and takes checkpoints). Aborts and fatal
// errors are handled atomically here. With GateStripes = 1 every event
// takes this path and the runtime is the pre-striping serialized gate.
func (r *runner) admitSlow(t, gen int, ev model.Ev) (ok, again bool, delay time.Duration) {
	r.gate.drain()
	r.flushPending()
	if stale, out := r.staleDrained(t, gen); stale {
		return false, out.again, out.delay
	}
	if ev.S.Op.IsData() && !r.rec.State().Defined(ev.S) {
		// The workload raced ahead of a creator transaction: retry later.
		r.met.ImproperAborts++
		r.abortCause[t] = fmt.Errorf("improper step %s: undefined in the structural state", ev)
		again, delay = r.abortDrained(t)
		return false, again, delay
	}
	if err := r.rec.Monitor().Check(ev); err != nil {
		r.met.PolicyAborts++
		r.abortCause[t] = err
		again, delay = r.abortDrained(t)
		return false, again, delay
	}
	if ev.S.Op.IsUnlock() {
		if err := r.mgr.Unlock(t, ev.S.Ent); err != nil {
			// Releasing an un-held entity: a malformed workload, not an
			// abortable conflict.
			again, delay = r.bailDrained(t, fmt.Errorf("runtime: %w", err))
			return false, again, delay
		}
	}
	if !r.commitEventDrained(ev) {
		again, delay = r.bailDrained(t, nil)
		return false, again, delay
	}
	r.gate.undrain()
	return true, false, 0
}

// lockFailed handles a lock-acquisition error: deadlock victims abort
// the attempt, anything else (re-locking a held entity — a malformed
// workload) is fatal. A stale generation wins over either, as in the
// serialized gate.
func (r *runner) lockFailed(t, gen int, err error) (bool, time.Duration) {
	r.gate.drain()
	r.flushPending()
	if stale, out := r.staleDrained(t, gen); stale {
		return out.again, out.delay
	}
	if !errors.Is(err, lockmgr.ErrDeadlock) {
		return r.bailDrained(t, fmt.Errorf("runtime: %w", err))
	}
	// Deadlock victim (intra- or cross-shard).
	r.met.DeadlockAborts++
	r.abortCause[t] = err
	return r.abortDrained(t)
}

// commit finalizes t: its last event is already sequenced, so only the
// bookkeeping and stray-lock shedding remain, done under a drain so a
// concurrent cascade cannot interleave between the status flip and the
// teardown. committed reports whether t actually reached txCommitted —
// false when the attempt went stale under the drain (the session API
// needs the distinction; the batch loop only follows again/delay).
func (r *runner) commit(t, gen int) (committed, again bool, delay time.Duration) {
	r.gate.drain()
	r.flushPending()
	if stale, out := r.staleDrained(t, gen); stale {
		return false, out.again, out.delay
	}
	r.status[t] = txCommitted
	r.met.Commits++
	// The commit is acknowledged only after the status record is durably
	// appended (with Fsync on), so an acked commit survives a crash.
	r.persistStatusDrained(t, recovery.StatusCommitted)
	if r.fatal != nil {
		out := retryOut{}
		r.gate.undrain()
		r.mgr.ReleaseAll(t)
		return false, out.again, out.delay
	}
	// Well-formed transactions have released everything; drop strays (so
	// a workload bug cannot wedge the rest of the run) while still
	// draining — after the drain ends a cascade may un-commit and
	// re-spawn t, and a stray teardown would tear the new attempt down.
	r.mgr.ReleaseAll(t)
	if r.cfg.TruncateLog {
		r.maybeTruncateDrained()
	}
	r.gate.undrain()
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
// live monitor (through the core) and the footprint monitor, so their
// rows stop at the floor like the log stops at the boundary. Called with
// a full drain held, sequencer flushed.
func (r *runner) maybeTruncateDrained() {
	if r.rec.Len() < r.truncMark {
		return
	}
	if r.rec.Truncate(func(t int) bool { return r.status[t] != txActive }) > 0 {
		r.sys.Retire(r.rec.Floor())
		r.rec.Grow(len(r.sys.Txns))
		r.fpMon.Grow()
	}
	r.truncMark = r.rec.Len() + 4*r.cfg.CheckpointEvery
}

type retryOut struct {
	again bool
	delay time.Duration
}

// staleDrained checks whether t's attempt was invalidated by a concurrent
// cascade (or the run hit a fatal error). Called with a full drain held;
// on stale it releases the drain, sheds any lock the attempt acquired
// inside the race window after the cascade's ReleaseAll, and reports how
// to continue.
func (r *runner) staleDrained(t, gen int) (bool, retryOut) {
	if r.fatal != nil {
		r.gate.undrain()
		r.mgr.ReleaseAll(t)
		return true, retryOut{again: false}
	}
	if r.gen[t] == gen {
		return false, retryOut{}
	}
	again := r.status[t] == txActive
	delay := r.backoff(r.attempts[t])
	r.gate.undrain()
	// The aborter already erased our events, charged the retry and
	// released our locks; only locks acquired after that teardown can
	// remain, and they were never observed by the monitor.
	r.mgr.ReleaseAll(t)
	return true, retryOut{again: again, delay: delay}
}

// bailDrained stops t after a fatal error (recording err unless one is
// already recorded or err is nil). Called with a full drain held;
// releases it.
func (r *runner) bailDrained(t int, err error) (bool, time.Duration) {
	if r.fatal == nil && err != nil {
		r.fatal = err
	}
	r.gate.undrain()
	r.mgr.ReleaseAll(t)
	return false, 0
}

// bailSlow is bailDrained for callers not yet draining (the fast path's
// post-side-effect failures).
func (r *runner) bailSlow(t int, err error) (bool, time.Duration) {
	r.gate.drain()
	r.flushPending()
	return r.bailDrained(t, err)
}

// commitEventDrained applies ev to the monitor and structural state and
// appends it to the log, all through the recovery core. Called with a
// full drain held after a successful Check; reports false (recording a
// fatal error) if the monitor reneges on its Check.
func (r *runner) commitEventDrained(ev model.Ev) bool {
	if err := r.rec.AppendTagged(ev, r.tagSrc.Add(1)-1); err != nil {
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

// persistStatusDrained records a transaction status transition into the
// durable stream, going fatal on failure. Called with a full drain held.
func (r *runner) persistStatusDrained(t int, status byte) {
	if err := r.rec.PersistStatus(t, status); err != nil && r.fatal == nil {
		r.fatal = fmt.Errorf("runtime: persistence failed: %w", err)
	}
}

// persistOpenDrained records a session's transaction declaration (and
// resume credentials) into the durable stream, going fatal on failure.
// Called with a full drain held.
func (r *runner) persistOpenDrained(o recovery.OpenRec) {
	if err := r.rec.PersistOpen(o); err != nil && r.fatal == nil {
		r.fatal = fmt.Errorf("runtime: persistence failed: %w", err)
	}
}

// statusByte maps the runner's transaction status to the recovery
// package's durable status code.
func statusByte(s txnStatus) byte {
	switch s {
	case txCommitted:
		return recovery.StatusCommitted
	case txAbandoned:
		return recovery.StatusAbandoned
	default:
		return recovery.StatusActive
	}
}

// abortDrained aborts t's current attempt: erase its events (cascading
// as needed), charge the retry, tear down its locks. Called with a full
// drain held; returns with the drain released.
func (r *runner) abortDrained(t int) (bool, time.Duration) {
	r.eraseDrained(map[int]bool{t: true})
	r.chargeDrained(t)
	again := r.status[t] == txActive
	delay := r.backoff(r.attempts[t])
	r.gate.undrain()
	r.mgr.ReleaseAll(t)
	return again, delay
}

// chargeDrained bumps t's generation and retry count, abandoning it past
// MaxRetries. Called with a full drain held.
func (r *runner) chargeDrained(t int) {
	r.gen[t]++
	r.attempts[t]++
	if r.attempts[t] > r.cfg.MaxRetries && r.status[t] == txActive {
		r.status[t] = txAbandoned
		r.met.GaveUp++
		r.persistStatusDrained(t, recovery.StatusAbandoned)
	}
}

// eraseDrained removes the victims' events from the log through the
// recovery core's checkpointed compaction: only the suffix after the
// last snapshot at or before the victims' first event is replayed. A
// surviving event that no longer replays identifies a cascade victim
// (for example a wake member of an aborted altruistic donor): it is torn
// down too — un-committing and re-spawning it if it had already finished
// — and compaction retries with the grown victim set, restarting from
// the earliest checkpoint the removals invalidate. Victims only grow, so
// the loop converges. Called with a full drain held (the sequencer must
// already be flushed).
func (r *runner) eraseDrained(victims map[int]bool) {
	for {
		ok, cascade := r.rec.Compact(victims)
		if ok {
			return
		}
		if victims[cascade] {
			// Compact never re-reports a transaction already in the set;
			// seeing one is an invariant breach, not a livelock to spin on.
			r.fatal = fmt.Errorf("runtime: abort cascade cannot converge on T%d", cascade+1)
			return
		}
		if r.mirror[cascade] {
			// A partition-local abort cascaded onto a cross-partition
			// transaction's mirror row: local events can never invalidate
			// global ones (see the mirror field), so this is an invariant
			// breach — mutating one replica here would diverge the
			// partitions.
			r.fatal = fmt.Errorf("runtime: local abort cascade reached cross-partition transaction T%d", cascade+1)
			return
		}
		victims[cascade] = true
		r.cascadeVictimDrained(cascade)
	}
}

// cascadeVictimDrained performs the bookkeeping teardown of one local
// cascade victim: charge the retry, un-commit and re-spawn if it had
// already finished, release its locks (waking it with a cancellation if
// parked). Called with a full drain held — by eraseDrained's loop and
// by the partitioned engine's cross-partition compaction when a local
// transaction falls victim to a global abort.
func (r *runner) cascadeVictimDrained(cascade int) {
	r.met.CascadeAborts++
	r.abortCause[cascade] = fmt.Errorf("cascade victim: a surviving event of T%d no longer replays after the abort", cascade+1)
	respawn := false
	if r.status[cascade] == txCommitted {
		// The cascade reached an already-committed transaction (e.g.
		// a wake member whose altruistic donor aborts after the
		// member finished). Un-commit and re-run it, as the engine
		// does. The un-commit is persisted *before* the compact record
		// that erases the victim's events lands, so a crash between
		// them recovers the transaction as active, never as a
		// committed transaction with no events.
		r.status[cascade] = txActive
		r.met.Commits--
		r.persistStatusDrained(cascade, recovery.StatusActive)
		respawn = true
	}
	r.chargeDrained(cascade)
	// Tear down the victim's locks and wake it if parked
	// (ErrCancelled); a running victim notices its stale generation
	// at its next gate entry.
	r.mgr.ReleaseAll(cascade)
	if respawn && r.status[cascade] == txActive {
		r.wg.Add(1)
		go r.runTxn(cascade)
	}
}
