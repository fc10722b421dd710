package runtime

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the durable side of the session engine: its constructor,
// the on-disk layout (PartitionDir, checkLayout) and the restore — each
// partition's recovered history replayed into its runner, then one pass
// over every row whatever its span — the engine-wide rows rebuilt from
// the open records, mirror statuses reconciled to the owner's,
// recovered-active attempts erased and their sessions parked or
// abandoned — and the merged log re-verified serializable before the
// engine accepts work. DESIGN.md ("The restore contract") states what is
// guaranteed and the write-side orderings in runtime.go, session.go and
// partition.go it rests on.

// newToken mints a session resume token: 64 random bits, forced
// nonzero. Every open record carries one, a run's included, so zero
// never appears in the WAL.
func newToken() uint64 {
	var b [8]byte
	_, _ = rand.Read(b[:]) // since Go 1.24 it never returns an error
	return binary.LittleEndian.Uint64(b[:]) | 1
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

// NewDurableSessionEngine returns a running session engine of
// max(1, cfg.Partitions) partitions persisting into cfg.DataDir, after
// restoring whatever durable history the directory already holds. With
// an empty DataDir the engine is memory-only and nothing is restored.
func NewDurableSessionEngine(init model.State, cfg Config) (SessionEngine, *RestoreInfo, error) {
	pe := newPartitionedCore(init, cfg)
	info := &RestoreInfo{Clean: true}
	if cfg.DataDir != "" {
		var err error
		if info, err = pe.restoreDirs(cfg); err != nil {
			return nil, nil, err
		}
	}
	pe.startReaper()
	return pe, info, nil
}

// ErrLayout: the data directory holds a history written with a
// different Config.Partitions. Entities are homed by hash modulo the
// partition count, so such a history cannot be served.
var ErrLayout = errors.New("data directory was written with a different partition count")

func partName(p int) string { return "p" + strconv.Itoa(p) }

// PartitionDir returns the durable directory of partition p of n under
// a data directory: the directory itself for a one-partition engine,
// its subdirectory p<p> otherwise. The on-disk layout is decided here
// and checked by checkLayout.
func PartitionDir(dataDir string, n, p int) string {
	if n == 1 {
		return dataDir
	}
	return filepath.Join(dataDir, partName(p))
}

// checkLayout refuses a data directory that holds a non-empty history
// where an n-partition engine does not look — in the directory itself
// for n > 1, in p<i> subdirectories for n = 1 or in a different number
// of them for n > 1 — instead of silently serving an empty or re-homed
// database. It writes nothing. A fresh directory, and one whose first
// start crashed before any open was logged, pass.
func checkLayout(dataDir string, n int) error {
	ents, err := os.ReadDir(dataDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	present, dirs := 0, 0 // p<i> directories, and one past the highest i
	for _, e := range ents {
		if i, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "p")); err == nil && e.IsDir() && e.Name() == partName(i) {
			present++
			dirs = max(dirs, i+1)
		}
	}
	// check refuses dir, a store of the layout `written` partitions use,
	// if it logged an open.
	check := func(dir string, written int) error {
		rec, err := recovery.Restore(dir)
		switch {
		case err != nil:
			return fmt.Errorf("runtime: reading %s: %w", dir, err)
		case len(rec.Opens) == 0:
			return nil
		case written == n:
			return fmt.Errorf("runtime: %w: %s holds a %d-partition history, but some partition directories are missing", ErrLayout, dataDir, n)
		}
		return fmt.Errorf("runtime: %w: %s holds a %d-partition history and cannot be opened with %d", ErrLayout, dataDir, written, n)
	}
	if n > 1 {
		if err := check(dataDir, 1); err != nil {
			return err
		}
		if dirs == 0 || (dirs == n && present == n) {
			return nil
		}
	}
	for i := 0; i < dirs; i++ {
		if err := check(filepath.Join(dataDir, partName(i)), dirs); err != nil {
			return err
		}
	}
	return nil
}

// restoreDirs opens and attaches every partition's durable store and
// rebuilds the engine from the combined history. Called before the
// engine accepts any work (no reaper, no sessions). A refused start fails
// the engine and closes the stores it opened, unsealed: the history on
// disk is evidence, left as it was.
func (pe *PartitionedEngine) restoreDirs(cfg Config) (_ *RestoreInfo, err error) {
	n := len(pe.parts)
	if err := checkLayout(cfg.DataDir, n); err != nil {
		return nil, err
	}
	info := &RestoreInfo{Clean: true}
	pe.parts.drain()
	defer pe.parts.undrain()
	defer func() {
		if err != nil {
			pe.fail(err)
			_ = pe.closeStores() // poisoned, each returns the failure itself
		}
	}()

	recs := make([]recovery.Recovered, n)
	var maxTag uint64
	for p, r := range pe.parts {
		st, rec, err := recovery.Open(PartitionDir(cfg.DataDir, n, p), recovery.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("runtime: opening durable store for partition %d: %w", p, err)
		}
		// Attached before its replay, which feeds the core and writes
		// nothing: the erasures below must themselves be durable, or a
		// second restart would resurrect the erased events.
		r.pers, r.store = st, st
		if cfg.WrapPersister != nil {
			r.pers = cfg.WrapPersister(st)
		}
		recs[p] = rec
		info.Clean = info.Clean && rec.Clean
		info.Torn = info.Torn || rec.Torn
		maxTag = max(maxTag, rec.MaxTag())
		if err := r.replayRecoveredDrained(rec); err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
	}
	pe.tags.Store(maxTag)

	if err := pe.restoreRowsDrained(recs, info); err != nil {
		return nil, err
	}
	if err := pe.failed(); err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}

	// Verify the merged global schedule against the engine-wide system.
	merged := pe.mergedDrained()
	if !merged.Serializable(pe.sysDrained()) {
		return nil, fmt.Errorf("runtime: restore: %w: merged recovered schedule is not serializable under policy %q", recovery.ErrCorrupt, pe.cfg.Policy.Name())
	}
	// What the restore itself decided — reconciled and abandoned
	// statuses, erasures — is on disk before the engine answers anyone.
	for p, r := range pe.parts {
		if err := r.barrier(); err != nil {
			return nil, fmt.Errorf("runtime: restore: partition %d: %w", p, err)
		}
	}
	info.Events = len(merged)
	info.Commits = pe.statsDrained().Commits
	return info, nil
}

// replayRecoveredDrained rebuilds the runner's transaction population
// (each row's lock-manager owner is its session id o.G), statuses and
// event log from a recovered history. Called with a full drain held. It
// feeds the core and the row tables directly, never through the
// runner's writes, so nothing it reads is written again. The events go
// through Core.AppendTagged one at a time, not through the sequencer,
// whose flush would append the whole history as one batch with one
// checkpoint at its end: the first compaction after a restart would
// then replay from the initial state.
func (r *runner) replayRecoveredDrained(rec recovery.Recovered) error {
	for i, o := range rec.Opens {
		tx := model.Txn{Name: o.Name, Steps: o.Steps}
		if tx.Len() > 0 {
			if err := checkDeclared(tx); err != nil {
				return fmt.Errorf("runtime: restore: %w: open %d: %v", recovery.ErrCorrupt, i, err)
			}
		}
		if o.G < 0 {
			return fmt.Errorf("runtime: restore: %w: open %d has G=%d", recovery.ErrCorrupt, i, o.G)
		}
		if t := r.addTxnDrained(tx, o.G); t != i {
			return fmt.Errorf("runtime: restore: %w: open %d landed at row %d", recovery.ErrCorrupt, i, t)
		}
	}
	for t, st := range rec.Status {
		if t < 0 || t >= len(r.sys.Txns) || st > txAbandoned {
			return fmt.Errorf("runtime: restore: %w: status %d for transaction %d", recovery.ErrCorrupt, st, t)
		}
		r.status[t] = st
	}
	for i, ev := range rec.Events {
		// Bounds only — no definedness check: a partition's log
		// legitimately holds a spanning transaction's events for entities
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

// restoreRowsDrained is the one place a recovered row is judged,
// whatever its span (every partition drained, persisters attached). It
// rebuilds the session-id table from the per-partition open records,
// reconciles a spanning row's mirror statuses to its owner's and charges
// each row's outcome once, to its owner replica. A row recovered active
// lost its in-flight attempt with the process: the attempts are erased
// together (cascading as a live abort would — a committed cascade victim
// is un-committed, durably, and re-spawned engine-side), then each
// session is restored parked with its persisted token and lease
// deadline, or abandoned if that deadline has passed or the row is a
// run's, whose token no client ever learned.
func (pe *PartitionedEngine) restoreRowsDrained(recs []recovery.Recovered, info *RestoreInfo) error {
	// byG[g] lists (partition, local index, mirror) for every row of
	// session id g, in ascending partition order.
	type replica struct {
		p, lt  int
		mirror bool
	}
	maxG := -1
	byG := map[int][]replica{}
	for p, rec := range recs {
		for lt, o := range rec.Opens {
			byG[o.G] = append(byG[o.G], replica{p: p, lt: lt, mirror: o.Mirror})
			maxG = max(maxG, o.G)
		}
	}

	var actives []*txn
	var opens []recovery.OpenRec // opens[i] is actives[i]'s open record
	for g := 0; g <= maxG; g++ {
		refs := byG[g]
		if len(refs) == 0 {
			// A lost open: the crash hit between the id assignment and the
			// first durable registration. No partition holds the row, no
			// events exist; a placeholder keeps the id space dense so later
			// ids stay aligned.
			pe.rows = append(pe.rows, rowRef{p: -1})
			continue
		}
		o := recs[refs[0].p].Opens[refs[0].lt]
		x := &txn{span: pe.parts[refs[0].p].self, locs: []int{refs[0].lt}, sid: g}
		if len(refs) > 1 || refs[0].mirror {
			// Spanning: every ref must be a mirror, one per partition (refs
			// are in ascending partition order, so a second row of one
			// partition follows its first).
			for i, ref := range refs {
				if !ref.mirror || (i > 0 && refs[i-1].p == ref.p) {
					return fmt.Errorf("runtime: restore: %w: global id %d has inconsistent rows", recovery.ErrCorrupt, g)
				}
			}
			if len(pe.parts) == 1 {
				// spanOf never spans more than a one-partition engine has.
				return fmt.Errorf("runtime: restore: %w: global id %d is a mirror row in a one-partition history", recovery.ErrCorrupt, g)
			}
			if len(refs) < len(pe.parts) {
				// A partial registration: the crash hit inside the open's
				// loop, before the open was acknowledged — no events exist.
				// Abandon the rows that do exist, durably.
				for _, ref := range refs {
					r := pe.parts[ref.p]
					if r.status[ref.lt] != txAbandoned {
						r.status[ref.lt] = txAbandoned
						pe.persistFailed(r.pers.AppendStatus(ref.lt, txAbandoned))
					}
				}
				pe.parts[0].met.GaveUp++
				pe.rows = append(pe.rows, rowRef{p: -1})
				continue
			}
			x = &txn{span: pe.parts, locs: make([]int, len(pe.parts)), sid: g}
			for _, ref := range refs {
				x.locs[ref.p] = ref.lt
			}
			pe.spanning[g] = x
		}
		pe.rows = append(pe.rows, rowRef{p: refs[0].p, t: x.locs[0]})

		// The owner row is the arbiter: status writes reach it last, after
		// every mirror's status has carried that replica's events to disk.
		// Reconcile the mirrors that got ahead of it, durably.
		owner, t := x.own()
		status := owner.status[t]
		x.setStatusDrained(status)
		switch status {
		case txCommitted:
			owner.met.Commits++
		case txAbandoned:
			owner.met.GaveUp++
		case txActive:
			actives = append(actives, x)
			opens = append(opens, o)
		}
	}

	eraseDrained(pe.parts, actives...)
	now := pe.now().UnixNano()
	for i, x := range actives {
		r, t := x.own()
		o := opens[i]
		expired := o.Deadline != 0 && o.Deadline <= now
		if expired || o.Run {
			// The lease ran out while the process was down, or the row is
			// a run, whose client waited on its outcome and never held its
			// token: no one will resume it. Abandon, durably.
			r.met.GaveUp++
			if expired {
				r.met.LeaseExpired++
			}
			x.setStatusDrained(txAbandoned)
			continue
		}
		st := &sessState{token: o.Token}
		st.deadline.Store(o.Deadline)
		st.parked.Store(true)
		pe.adopt(*x, r.sys.Txns[t], st, r.gen[t], false)
		info.Sessions++
	}
	return nil
}
