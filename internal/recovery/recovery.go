// Package recovery is the shared checkpointed-recovery core of the two
// execution substrates: it owns the log of executed surviving events, the
// per-transaction event indices, periodic monitor/structural-state
// checkpoints on a doubling schedule, and victim compaction — erasing an
// aborted transaction's events and re-verifying that the surviving
// history still replays.
//
// In the paper's terms the log is the executed prefix of a schedule, the
// structural state is the set of entities it leaves in existence (§2),
// and the monitor is the policy automaton that admitted each event. An
// abort must remove the victim's events and check the survivors still
// form an admissible schedule: a surviving event that is no longer
// defined (its creator vanished) or that the policy monitor now vetoes
// (for example a wake member of an aborted altruistic donor, §5)
// identifies a cascade victim. The paper's model permits rebuilding this
// from scratch — O(log) per abort, O(events²) on abort-heavy runs; real
// engines checkpoint. The Core replays only the suffix after the last
// snapshot at or before the victims' first event.
//
// Invariants:
//
//   - Between calls, Monitor() and State() are exactly the monitor and
//     structural state produced by replaying the current log from the
//     initial state.
//   - Checkpoint n is the monitor/state after the first n log events;
//     ckpts[0] is the initial state and is never discarded.
//   - Compact only removes events; victims only grow across a cascade
//     (the caller re-invokes Compact with the grown set), so the cascade
//     loop converges.
//   - Per-transaction bookkeeping is a window above a settled floor, like
//     the log: evIdx covers the transactions [evBase, txns), and Truncate
//     raises evBase past every transaction that is settled and owns no
//     retained event. Only the live monitor follows the population (Grow);
//     a checkpoint monitor is a frozen fork and is grown when Compact
//     forks it again, which is the only time it is read.
//
// Both internal/engine (virtual-time simulation) and internal/runtime
// (goroutine execution under the monitor gate) are thin clients of this
// package; neither keeps private recovery machinery. The Core is not
// safe for concurrent use — the engine is single-threaded and the
// runtime serializes access under its monitor gate.
//
// The Core is memory-only. The durable half of the package is the Store
// (disk.go), and the Core's owner is its one writer: the runtime writes
// each event, compaction, rotation offer, open and status to its
// Persister right after the in-memory change that decides it, so every
// failed write comes back to the owner as a returned error.
package recovery

import (
	"sort"

	"locksafe/internal/model"
)

// checkpoint is a snapshot of the world state after the first n log
// events, used to bound replay work on abort.
type checkpoint struct {
	n       int
	state   model.State
	monitor model.Monitor
}

// maxCheckpoints bounds retained snapshots: when exceeded, density is
// halved and the interval doubled, keeping memory O(maxCheckpoints)
// regardless of run length.
const maxCheckpoints = 64

// DefaultEvery is the default checkpoint interval: the number of appended
// events between monitor/state snapshots. Smaller values make aborts
// cheaper and the hot path more expensive.
const DefaultEvery = 128

// Stats counts the work the core has performed, for the E14 recovery
// experiment and the substrates' metrics.
type Stats struct {
	// Checkpoints is the number of snapshots taken (hot-path and
	// replay-time), not counting the initial state.
	Checkpoints int
	// Compactions counts Compact calls that replayed a suffix (calls
	// whose victims had no surviving events are free and not counted).
	// The runtime writes a compaction record exactly when it grows.
	Compactions int
	// Replayed is the total number of surviving events re-verified
	// across all compactions — the recovery cost the checkpoints bound.
	Replayed int
	// Truncated is the total number of log-prefix events discarded by
	// Truncate over the Core's lifetime.
	Truncated int
}

// Core owns an execution's event log, checkpoints and victim compaction.
// Create one with New, record executed events with Append, and erase
// aborted transactions with Compact.
type Core struct {
	// every is the current snapshot interval; it starts at every0, the
	// value given to New, doubles whenever the checkpoint list is thinned
	// and is restored toward every0 by a successful Truncate.
	every, every0 int
	// full disables suffix replay: Compact rebuilds from the initial
	// state and takes no replay-time checkpoints, reproducing the naive
	// full-replay recovery. Reference mode for tests and E14.
	full bool

	log model.Schedule
	// tags carries one opaque uint64 per log event, in lockstep with log
	// through Compact and Truncate. Single-core callers never see them;
	// the partitioned engine stamps a shared sequence number on every
	// event so per-partition logs can be merged back into one global
	// execution order.
	tags []uint64
	// nextTag is the tag auto-assigned to the next untagged append; it
	// stays strictly above every tag ever recorded.
	nextTag uint64
	// evIdx[t-evBase] lists the log positions of transaction t's events,
	// ascending; transactions below evBase own none (see Truncate).
	evBase int
	evIdx  [][]int
	ckpts  []checkpoint

	state   model.State
	monitor model.Monitor

	stats Stats
}

// New returns a Core for txns transactions starting from the given
// initial structural state and a freshly constructed policy monitor
// (which New takes ownership of). every is the checkpoint interval;
// values < 1 select DefaultEvery.
func New(txns int, init model.State, monitor model.Monitor, every int) *Core {
	if every < 1 {
		every = DefaultEvery
	}
	c := &Core{
		every:   every,
		every0:  every,
		evIdx:   make([][]int, txns),
		state:   init.Clone(),
		monitor: monitor,
	}
	c.ckpts = []checkpoint{{n: 0, state: c.state.Clone(), monitor: monitor.Fork()}}
	return c
}

// SetFullReplay switches the Core to the naive recovery discipline:
// Compact replays the entire surviving log from the initial state and no
// checkpoints beyond the initial one are retained. It exists so the old
// behavior stays measurable (E14) and pinnable (equivalence tests); new
// code should not enable it.
func (c *Core) SetFullReplay(on bool) {
	c.full = on
	if on {
		c.ckpts = c.ckpts[:1]
	}
}

// State returns the live structural state: the result of applying every
// logged event to the initial state. Callers may read and probe it
// (Defined) but must mutate it only through Append.
func (c *Core) State() model.State { return c.state }

// Monitor returns the live policy monitor, positioned after the last
// logged event. Callers may probe it (Check) but must advance it only
// through Append.
func (c *Core) Monitor() model.Monitor { return c.monitor }

// Len returns the number of surviving logged events.
func (c *Core) Len() int { return len(c.log) }

// Events returns the surviving log in execution order. The slice is live:
// it is valid only until the next Append or Compact and must not be
// mutated.
func (c *Core) Events() model.Schedule { return c.log }

// Tags returns the per-event tags in lockstep with Events(): Tags()[i]
// is the tag recorded for Events()[i]. Untagged appends receive
// monotonically increasing defaults, so for a single Core the tags are
// simply log positions; the partitioned engine overrides them with a
// shared global sequence. The slice is live under the same rules as
// Events().
func (c *Core) Tags() []uint64 { return c.tags }

// Stats reports the cumulative recovery work counters.
func (c *Core) Stats() Stats { return c.stats }

// Checkpoints returns the number of currently retained snapshots,
// including the initial state.
func (c *Core) Checkpoints() int { return len(c.ckpts) }

// Grow re-synchronizes the Core with the population of the system it
// executes, after transactions were appended (System.Add) or retired
// (System.Retire): the per-transaction event indices gain empty rows up
// to txns, the new total, and the live monitor is grown. Retained
// checkpoint monitors are not touched — Compact grows the one it rolls
// back to, so an open costs one amortised append here, not one per
// checkpoint. Like every other mutator, Grow requires exclusive
// ownership.
func (c *Core) Grow(txns int) {
	for c.evBase+len(c.evIdx) < txns {
		c.evIdx = append(c.evIdx, nil)
	}
	c.monitor.Grow()
}

// Floor returns the first transaction the Core still indexes: every
// transaction below it was settled and owned no retained event at the
// last Truncate, so it can never again be named by Compact. The caller
// passes it to System.Retire.
func (c *Core) Floor() int { return c.evBase }

// index records that log position idx holds an event of transaction t.
func (c *Core) index(t model.TID, idx int) {
	c.evIdx[int(t)-c.evBase] = append(c.evIdx[int(t)-c.evBase], idx)
}

// Append records one executed event: it advances the monitor (returning
// the monitor's veto, if any, with the Core unchanged), applies the
// event's step to the structural state, appends to the log and takes a
// periodic checkpoint. The caller has already established admissibility
// (Monitor().Check, State().Defined), so an error here is an invariant
// breach on the caller's side.
func (c *Core) Append(ev model.Ev) error {
	return c.AppendTagged(ev, c.nextTag)
}

// AppendTagged is Append with an explicit event tag (see Tags).
func (c *Core) AppendTagged(ev model.Ev, tag uint64) error {
	if err := c.monitor.Step(ev); err != nil {
		return err
	}
	c.state.Apply(ev.S)
	idx := len(c.log)
	c.log = append(c.log, ev)
	c.tags = append(c.tags, tag)
	if tag >= c.nextTag {
		c.nextTag = tag + 1
	}
	c.index(ev.T, idx)
	c.maybeCheckpoint()
	return nil
}

// maybeCheckpoint snapshots the live monitor and state at the current
// log position if at least the snapshot interval has elapsed since the
// last checkpoint (and full replay is off), thinning past the retention
// bound.
func (c *Core) maybeCheckpoint() {
	if c.full || len(c.log)-c.ckpts[len(c.ckpts)-1].n < c.every {
		return
	}
	c.stats.Checkpoints++
	c.ckpts = append(c.ckpts, checkpoint{
		n:       len(c.log),
		state:   c.state.Clone(),
		monitor: c.monitor.Fork(),
	})
	if len(c.ckpts) > maxCheckpoints {
		c.thin()
	}
}

// AppendAppliedTagged records a batch of executed events whose monitor Step
// and structural-state Apply the caller has *already* performed, in the
// batch's order, under its own concurrency discipline — the striped
// runtime gate evaluates footprint-disjoint events in parallel and
// sequences them into batches, feeding the core only at drain points.
// The core appends to the log and the per-transaction indices without
// touching the live monitor or state; the caller is responsible for the
// package invariant that Monitor() and State() equal a replay of the
// resulting log (for footprint-disjoint events the Steps commute, so any
// execution order reproduces the batch order's result).
//
// The caller must be quiescent for the duration of the call (single
// owner, no concurrent Steps). A checkpoint is taken at the end of the
// batch if at least the snapshot interval has elapsed since the last one
// — mid-batch positions cannot be snapshotted, because the live monitor
// is already past them, so the cadence is approximate where Append's is
// exact.
//
// tags are the per-event tags (see Tags): nil (auto-assign) or the same
// length as evs. The returned error is always nil: the in-memory append
// cannot fail, and the core writes nothing to disk (its owner does). The
// result stays because the benchmark module compiles against it.
func (c *Core) AppendAppliedTagged(evs []model.Ev, tags []uint64) error {
	for i, ev := range evs {
		idx := len(c.log)
		c.log = append(c.log, ev)
		tag := c.nextTag
		if tags != nil {
			tag = tags[i]
		}
		c.tags = append(c.tags, tag)
		if tag >= c.nextTag {
			c.nextTag = tag + 1
		}
		c.index(ev.T, idx)
	}
	if len(evs) > 0 {
		c.maybeCheckpoint()
	}
	return nil
}

// thin halves the snapshot density (keeping the initial state and the
// most recent snapshot) and doubles the interval for future snapshots,
// bounding retained memory over long runs.
func (c *Core) thin() {
	last := c.ckpts[len(c.ckpts)-1]
	kept := c.ckpts[:1] // ckpts[0] is the initial state
	for i := 2; i < len(c.ckpts)-1; i += 2 {
		kept = append(kept, c.ckpts[i])
	}
	if kept[len(kept)-1].n != last.n {
		kept = append(kept, last)
	}
	c.ckpts = kept
	c.every *= 2
}

// Compact removes the victims' events from the log incrementally: world
// state is rolled back to the latest checkpoint at or before the victims'
// first event and only the surviving suffix is replayed, instead of the
// whole history. It returns ok=false and the owner of the first surviving
// event that no longer replays (a cascade victim), leaving the log
// untouched; the caller adds that victim to the set (it can only grow)
// and calls Compact again.
func (c *Core) Compact(victims map[int]bool) (ok bool, cascade int) {
	first := len(c.log)
	for v := range victims {
		if v < c.evBase {
			continue // retired: it owns no retained event
		}
		if idxs := c.evIdx[v-c.evBase]; len(idxs) > 0 && idxs[0] < first {
			first = idxs[0]
		}
	}
	if first == len(c.log) {
		return true, 0 // the victims contributed no surviving events
	}

	ci := len(c.ckpts) - 1
	for c.ckpts[ci].n > first {
		ci--
	}
	ck := c.ckpts[ci]
	state := ck.state.Clone()
	monitor := ck.monitor.Fork()
	monitor.Grow() // the checkpoint predates later opens and retirements
	suffix := make(model.Schedule, 0, len(c.log)-ck.n)
	sufTags := make([]uint64, 0, len(c.log)-ck.n)
	// Snapshot at the usual interval while replaying, so a later abort in
	// the same region does not replay it from ck again.
	lastCkptN := ck.n
	var fresh []checkpoint
	for x, ev := range c.log[ck.n:] {
		if victims[int(ev.T)] {
			continue
		}
		c.stats.Replayed++
		if ev.S.Op.IsData() && !state.Defined(ev.S) {
			return false, int(ev.T)
		}
		if err := monitor.Step(ev); err != nil {
			return false, int(ev.T)
		}
		state.Apply(ev.S)
		suffix = append(suffix, ev)
		sufTags = append(sufTags, c.tags[ck.n+x])
		if !c.full && ck.n+len(suffix)-lastCkptN >= c.every {
			lastCkptN = ck.n + len(suffix)
			fresh = append(fresh, checkpoint{n: lastCkptN, state: state.Clone(), monitor: monitor.Fork()})
		}
	}
	c.stats.Compactions++
	c.stats.Checkpoints += len(fresh)

	// Commit the compaction: rewrite the log suffix, re-index the moved
	// events and replace the checkpoints the removals invalidated.
	c.ckpts = append(c.ckpts[:ci+1], fresh...)
	for len(c.ckpts) > maxCheckpoints {
		c.thin()
	}
	c.log = append(c.log[:ck.n], suffix...)
	c.tags = append(c.tags[:ck.n], sufTags...)
	for i := range c.evIdx {
		// Each index list is ascending: truncate at the first replayed
		// position rather than rescanning the whole run.
		c.evIdx[i] = c.evIdx[i][:sort.SearchInts(c.evIdx[i], ck.n)]
	}
	for x := ck.n; x < len(c.log); x++ {
		c.index(c.log[x].T, x)
	}
	c.state = state
	c.monitor = monitor
	return true, 0
}

// Truncate discards the longest log prefix that can no longer matter:
// it picks the highest retained checkpoint position B such that every
// transaction owning an event before B has *all* of its events before B
// and is settled per the caller's predicate (committed or fully
// aborted, never again a compaction victim), then drops log[:B] and
// every checkpoint below B. The B snapshot becomes the new base
// "initial state", so the package invariant — Monitor()/State() equal a
// replay of the retained log from the base checkpoint — is preserved,
// and so is Compact's reach: any future victim set's first event lies
// at or above B (unsettled transactions own no truncated events, and a
// replay failure during compaction always names the owner of a
// replayed — hence retained — event, which by the clean-separation rule
// owns nothing below B either).
//
// A successful truncation also raises the floor (see Floor) to the lowest
// transaction that is unsettled or still owns a retained event, dropping
// the index rows below it, and restores the snapshot interval toward the
// configured one while the retained checkpoints, taken twice as densely,
// would still fit in half the retention bound — a long straddler doubles
// the interval (thin) and, once it settles, this is what undoes that.
//
// settled(t) must be stable for the duration of the call. Returns the
// number of events discarded (0 when no checkpoint qualifies). After a
// truncation Events() is a suffix of the full history: end-of-run
// verification applies to the retained suffix only, and replaying it
// from a *fresh* monitor is no longer meaningful — replay starts from
// the base checkpoint.
func (c *Core) Truncate(settled func(t int) bool) int {
	for ci := len(c.ckpts) - 1; ci >= 1; ci-- {
		b := c.ckpts[ci].n
		if b == 0 {
			break
		}
		clean := true
		for k, idxs := range c.evIdx {
			if len(idxs) == 0 || idxs[0] >= b {
				continue
			}
			if idxs[len(idxs)-1] >= b || !settled(c.evBase+k) {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		// Copy the retained suffixes into fresh backing arrays so the
		// truncated prefix is actually released.
		c.log = append(model.Schedule(nil), c.log[b:]...)
		c.tags = append([]uint64(nil), c.tags[b:]...)
		for k, idxs := range c.evIdx {
			if len(idxs) > 0 && idxs[0] < b {
				c.evIdx[k] = nil
				continue
			}
			for i := range idxs {
				idxs[i] -= b
			}
		}
		drop := 0
		for drop < len(c.evIdx) && len(c.evIdx[drop]) == 0 && settled(c.evBase+drop) {
			drop++
		}
		c.evIdx = c.evIdx[drop:]
		c.evBase += drop
		kept := append([]checkpoint(nil), c.ckpts[ci:]...)
		for i := range kept {
			kept[i].n -= b
		}
		c.ckpts = kept
		for n := 2 * len(kept); c.every > c.every0 && n <= maxCheckpoints/2; n *= 2 {
			c.every /= 2
		}
		c.stats.Truncated += b
		return b
	}
	return 0
}
