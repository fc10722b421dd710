package runtime

import (
	"fmt"
	"path/filepath"
	"strconv"

	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

// This file is the durable partitioned engine: each partition persists
// into its own subdirectory (DataDir/p<i>) with its own WAL and
// snapshots, and the restore stitches the partitions back together —
// rebuilding the engine-wide system from the per-partition open
// records, arbitrating the status of cross-partition transactions
// across their mirror rows, and verifying the *merged* log serializable
// against the engine-wide system.
//
// Cross-partition crash consistency rests on two orderings on the write
// side: mirror registrations and status syncs walk the partitions in
// ascending order (so a crash leaves a prefix updated, and the
// lowest-index partition holding a row is the freshest witness), and a
// cascade un-commit is persisted before the compaction record that
// erases the victim's events. The restore then:
//
//   - treats a global id missing from every partition as a lost open (a
//     placeholder row, abandoned);
//   - treats a mirror present in only some partitions as a crash inside
//     the registration loop: the transaction never acknowledged its
//     open and has no events, so it is abandoned everywhere it exists;
//   - reconciles divergent mirror statuses to the arbiter's (partition
//     with the lowest index holding the row), durably;
//   - abandons cross-partition transactions recovered active: a global
//     session is resumable only within the process that parked it,
//     while *local* sessions are restored parked by their home
//     partitions exactly as on a standalone engine.

// NewDurableSessionEngine returns the durable session engine selected
// by cfg.Partitions, restoring cfg.DataDir first. With an empty DataDir
// it is exactly NewSessionEngine (memory-only, byte-identical).
func NewDurableSessionEngine(init model.State, cfg Config) (SessionEngine, *RestoreInfo, error) {
	if cfg.withDefaults().Partitions <= 1 {
		e, info, err := NewDurableEngine(init, cfg)
		if err != nil {
			return nil, nil, err
		}
		return e, info, nil
	}
	pe, info, err := NewDurablePartitionedEngine(init, cfg)
	if err != nil {
		return nil, nil, err
	}
	return pe, info, nil
}

// PartitionDir returns the durable directory of partition p under a
// data directory, the layout NewDurablePartitionedEngine uses.
func PartitionDir(dataDir string, p int) string {
	return filepath.Join(dataDir, "p"+strconv.Itoa(p))
}

// NewDurablePartitionedEngine returns a running partitioned engine
// persisting each partition into cfg.DataDir/p<i>, after restoring
// whatever durable history the directories already hold.
func NewDurablePartitionedEngine(init model.State, cfg Config) (*PartitionedEngine, *RestoreInfo, error) {
	pe := newPartitionedCore(init, cfg)
	if cfg.DataDir == "" {
		pe.startReaper()
		return pe, &RestoreInfo{Clean: true}, nil
	}
	info, err := pe.restoreDirs(cfg)
	if err != nil {
		return nil, nil, err
	}
	pe.startReaper()
	return pe, info, nil
}

// restoreDirs opens every partition's durable store, rebuilds the
// engine from the combined history and attaches the stores.
func (pe *PartitionedEngine) restoreDirs(cfg Config) (*RestoreInfo, error) {
	recs := make([]recovery.Recovered, pe.n)
	pers := make([]recovery.Persister, pe.n)
	for p := 0; p < pe.n; p++ {
		st, rec, err := recovery.Open(PartitionDir(cfg.DataDir, p), recovery.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("runtime: opening durable store for partition %d: %w", p, err)
		}
		recs[p], pers[p] = rec, st
		if cfg.WrapPersister != nil {
			pers[p] = cfg.WrapPersister(st)
		}
	}
	// As in the standalone restore, a failure below leaves the stores
	// unsealed on purpose: the history is evidence.
	return pe.restore(recs, pers)
}

// restore rebuilds the partitioned engine from the per-partition
// recovered histories and attaches the persisters. Called before the
// engine accepts any work.
func (pe *PartitionedEngine) restore(recs []recovery.Recovered, pers []recovery.Persister) (*RestoreInfo, error) {
	info := &RestoreInfo{Clean: true}
	for _, rec := range recs {
		info.Clean = info.Clean && rec.Clean
		info.Torn = info.Torn || rec.Torn
	}

	pe.drainAll()
	defer pe.undrainAll()

	// Replay each partition: rows (owner-translated to global ids),
	// statuses, events.
	var maxTag uint64
	for p := 0; p < pe.n; p++ {
		if err := pe.parts[p].r.replayRecoveredDrained(recs[p], true); err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
		if t := recs[p].MaxTag(); t > maxTag {
			maxTag = t
		}
		pe.parts[p].maxTID.Store(int64(len(pe.parts[p].r.sys.Txns)))
	}
	pe.tags.Store(maxTag)

	// Attach the persisters before any erasure (see Engine.restore).
	for p := 0; p < pe.n; p++ {
		pe.parts[p].r.rec.SetPersister(pers[p])
	}

	if err := pe.rebuildGlobalDrained(recs, info); err != nil {
		return nil, err
	}

	// Settle each partition's local transactions: erase recovered-active
	// attempts, park or abandon their sessions. Mirror rows are skipped
	// and settled globally above.
	for p := 0; p < pe.n; p++ {
		if err := pe.parts[p].settleRestoredDrained(recs[p].Opens, info); err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
	}

	// Verify the merged global schedule against the engine-wide system.
	merged := pe.mergedDrained()
	pe.gmu.Lock()
	sys := pe.sysSnapshotLocked()
	pe.gmu.Unlock()
	if !merged.Serializable(sys) {
		return nil, fmt.Errorf("runtime: restore: %w: merged recovered schedule is not serializable under policy %q", recovery.ErrCorrupt, pe.cfg.Policy.Name())
	}
	if f := pe.anyFatalDrained(); f != nil {
		return nil, fmt.Errorf("runtime: restore: %w", f)
	}
	info.Events = len(merged)
	pe.gmu.Lock()
	info.Commits = pe.gmet.Commits
	pe.gmu.Unlock()
	for p := 0; p < pe.n; p++ {
		info.Commits += pe.parts[p].r.met.Commits
	}
	return info, nil
}

// rebuildGlobalDrained reconstructs the engine-wide system and the
// global bookkeeping rows from the per-partition open records, then
// settles every cross-partition transaction (cross-partition drain
// held, persisters attached).
func (pe *PartitionedEngine) rebuildGlobalDrained(recs []recovery.Recovered, info *RestoreInfo) error {
	// witness[g] lists (partition, local index, mirror) for every row of
	// global id g, in ascending partition order.
	type rowRef struct {
		p, lt  int
		mirror bool
	}
	maxG := -1
	byG := map[int][]rowRef{}
	for p := 0; p < pe.n; p++ {
		for lt, o := range recs[p].Opens {
			byG[o.G] = append(byG[o.G], rowRef{p: p, lt: lt, mirror: o.Mirror})
			if o.G > maxG {
				maxG = o.G
			}
		}
	}

	for g := 0; g <= maxG; g++ {
		refs := byG[g]
		switch {
		case len(refs) == 0:
			// A lost open: the crash hit between the global id assignment
			// and the first durable registration. No partition holds the
			// row, no events exist; a placeholder keeps the global id
			// space dense so later ids stay aligned.
			pe.fullSys.Add(model.Txn{Name: "(lost)"})
			pe.addRowLocked(-1)
			pe.gstatus[g] = txAbandoned
			continue

		case len(refs) == 1 && !refs[0].mirror:
			// A local transaction, owned whole by its home partition.
			ref := refs[0]
			o := recs[ref.p].Opens[ref.lt]
			pe.fullSys.Add(model.Txn{Name: o.Name, Steps: o.Steps})
			pe.addRowLocked(ref.p)
			pe.locs[g] = []int{ref.lt}
			// Its status lives in the partition; the global row of a
			// local transaction is unused, as in live operation.
			continue
		}

		// Cross-partition: every ref must be a mirror, one per partition.
		seen := map[int]bool{}
		for _, ref := range refs {
			if !ref.mirror || seen[ref.p] {
				return fmt.Errorf("runtime: restore: %w: global id %d has inconsistent rows", recovery.ErrCorrupt, g)
			}
			seen[ref.p] = true
		}
		o := recs[refs[0].p].Opens[refs[0].lt]
		pe.fullSys.Add(model.Txn{Name: o.Name, Steps: o.Steps})
		pe.addRowLocked(-1)

		if len(refs) < pe.n {
			// A partial mirror: the crash hit inside the registration
			// loop, before the open was acknowledged — no events exist.
			// Abandon the rows that do exist, durably.
			for _, ref := range refs {
				r := pe.parts[ref.p].r
				if r.status[ref.lt] != txAbandoned {
					r.status[ref.lt] = txAbandoned
					r.persistStatusDrained(ref.lt, recovery.StatusAbandoned)
				}
			}
			pe.gstatus[g] = txAbandoned
			pe.gmet.GaveUp++
			continue
		}

		locs := make([]int, pe.n)
		for _, ref := range refs {
			locs[ref.p] = ref.lt
		}
		pe.locs[g] = locs

		// Arbitrate the status: syncs walk partitions in ascending
		// order, so the lowest-index replica is the freshest. Reconcile
		// the stragglers, durably.
		status := pe.parts[0].r.status[locs[0]]
		pe.gstatus[g] = status
		for p := 1; p < pe.n; p++ {
			r := pe.parts[p].r
			if r.status[locs[p]] != status {
				r.status[locs[p]] = status
				r.persistStatusDrained(locs[p], statusByte(status))
			}
		}
		switch status {
		case txCommitted:
			pe.gmet.Commits++
		case txAbandoned:
			pe.gmet.GaveUp++
		}
	}

	// Settle cross-partition transactions recovered active: their
	// session died with the process and globals are not restored parked
	// (see PartitionedEngine.Resume), so erase their events engine-wide — cascades
	// and all — and abandon them. The original set is snapshotted apart
	// from the (growable) victims map: an un-committed cascade victim is
	// re-spawned engine-driven and must not be abandoned here.
	var orig []int
	unsettled := map[int]bool{}
	for g := 0; g <= maxG; g++ {
		if pe.home[g] == -1 && len(pe.locs[g]) == pe.n && pe.gstatus[g] == txActive {
			orig = append(orig, g)
			unsettled[g] = true
		}
	}
	if len(unsettled) > 0 {
		pe.eraseAllDrained(unsettled)
		for _, g := range orig {
			// The re-spawn goroutines read the global bookkeeping under
			// gmu, so from here on the restore takes it too.
			pe.gmu.Lock()
			active := pe.fatal == nil && pe.gstatus[g] == txActive
			if active {
				pe.gstatus[g] = txAbandoned
				pe.gmet.GaveUp++
			}
			pe.gmu.Unlock()
			if active {
				pe.syncMirrorsDrained(g)
			}
		}
	}
	if f := pe.anyFatalDrained(); f != nil {
		return fmt.Errorf("runtime: restore: %w", f)
	}
	return nil
}
