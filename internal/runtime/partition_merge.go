package runtime

import (
	"fmt"
	"time"

	"locksafe/internal/model"
)

// This file is the engine-wide view of a PartitionedEngine: the
// per-partition logs, states and metrics merged back into one, for
// Stats, Inspect and the verification at Close.

// mergedDrained rebuilds the global execution order from the
// per-partition logs: a k-way merge ascending by shared sequence tag,
// with each event's partition-local owner translated back to its
// engine-wide id and a global event's n replicas (equal tags) collapsed
// to one. Per-partition logs are strictly tag-ascending by
// construction, so the merge is linear. Cross-partition drain held (or
// the engine single-threaded).
func (pe *PartitionedEngine) mergedDrained() model.Schedule {
	n := len(pe.parts)
	logs := make([]model.Schedule, n)
	tags := make([][]uint64, n)
	total := 0
	for p, part := range pe.parts {
		logs[p] = part.rec.Events()
		tags[p] = part.rec.Tags()
		total += len(logs[p])
	}
	idx := make([]int, n)
	out := make(model.Schedule, 0, total)
	for {
		best := -1
		var bt uint64
		for p := 0; p < n; p++ {
			if idx[p] < len(logs[p]) && (best == -1 || tags[p][idx[p]] < bt) {
				best, bt = p, tags[p][idx[p]]
			}
		}
		if best == -1 {
			return out
		}
		ev := logs[best][idx[best]]
		out = append(out, model.Ev{T: model.TID(pe.parts[best].owners[ev.T]), S: ev.S})
		for p := 0; p < n; p++ {
			for idx[p] < len(logs[p]) && tags[p][idx[p]] == bt {
				idx[p]++
			}
		}
	}
}

// statsDrained sums the per-partition metrics — each row's are charged
// to its owner replica, and so are its events, retained or truncated
// (every partition drained).
func (pe *PartitionedEngine) statsDrained() Metrics {
	var m Metrics
	for _, part := range pe.parts {
		pm := part.met
		m.Commits += pm.Commits
		m.GaveUp += pm.GaveUp
		m.DeadlockAborts += pm.DeadlockAborts
		m.PolicyAborts += pm.PolicyAborts
		m.ImproperAborts += pm.ImproperAborts
		m.CascadeAborts += pm.CascadeAborts
		m.LeaseExpired += pm.LeaseExpired
		st := part.rec.Stats()
		m.Replayed += st.Replayed
		m.Events += part.ownedEvents(part.rec.Events()) + part.truncOwned
		m.Wait += time.Duration(part.waitNs.Load())
	}
	m.Elapsed = time.Since(pe.start)
	return m
}

// Stats returns a consistent engine-wide metrics snapshot.
func (pe *PartitionedEngine) Stats() Metrics {
	pe.parts.drain()
	m := pe.statsDrained()
	pe.parts.undrain()
	return m
}

// mergedStateDrained builds the engine-wide structural state: each
// entity's existence is taken from its home partition, the
// authoritative replica — other replicas may miss inserts and deletes
// that were local to another partition (cross-partition drain held).
func (pe *PartitionedEngine) mergedStateDrained() model.State {
	out := model.NewState()
	for p, part := range pe.parts {
		for e := range part.rec.State() {
			if model.PartitionOf(e, len(pe.parts)) == p {
				out[e] = struct{}{}
			}
		}
	}
	return out
}

// sysDrained builds the engine-wide system the merged log is verified
// against: session id g's declared body, read from its owner replica,
// or an empty one for an open that never registered a row (every
// partition drained).
func (pe *PartitionedEngine) sysDrained() *model.System {
	pe.gmu.Lock()
	defer pe.gmu.Unlock()
	sys := &model.System{Init: pe.init, Txns: make([]model.Txn, len(pe.rows))}
	for g, ref := range pe.rows {
		if ref.p >= 0 {
			sys.Txns[g] = pe.parts[ref.p].sys.Txns[ref.t]
		}
	}
	return sys
}

// Inspect returns the diagnostic snapshot over the *merged* log: the
// global execution order, the replicated structural state, the monitor
// key of a full-system monitor replayed over the merged log (the
// partitioned analogue of "the live monitor equals a replay of the
// log"), and the merged log's serializability verdict. O(log); a
// debugging and verification facility, not a metrics poll (use Stats for
// that). With TruncateLog the merged log is a suffix and the replayed
// monitor key is not meaningful; it is reported as "(truncated)".
func (pe *PartitionedEngine) Inspect() Inspection {
	pe.parts.drain()
	merged := pe.mergedDrained()
	sys := pe.sysDrained()
	truncated := false
	for _, part := range pe.parts {
		if part.rec.Stats().Truncated > 0 {
			truncated = true
		}
	}
	key := "(truncated)"
	if !truncated {
		mon := pe.cfg.Policy.NewMonitor(sys)
		key = ""
		for _, ev := range merged {
			if err := mon.Step(ev); err != nil {
				key = fmt.Sprintf("(merged log does not replay: %v)", err)
				break
			}
		}
		if key == "" {
			key = mon.Key()
		}
	}
	ins := Inspection{
		Log:          merged.String(),
		State:        fmt.Sprintf("%v", pe.mergedStateDrained()),
		MonitorKey:   key,
		Serializable: merged.Serializable(sys),
		Metrics:      pe.statsDrained(),
	}
	pe.parts.undrain()
	ins.OpenSessions = pe.OpenSessions()
	return ins
}

// Close shuts the engine down: new sessions and session operations are
// refused, every still-open session is force-aborted (erasing its
// events, so the final log is exactly the committed schedule),
// engine-driven re-runs are waited out, the durable stores are closed
// (closeStores) and the merged schedule is verified serializable against
// the engine-wide system. Returns the merged metrics and schedule.
func (pe *PartitionedEngine) Close() (*Result, error) {
	if !pe.shutdown() {
		return nil, ErrClosed
	}
	defer pe.lifecycle.Unlock()
	pe.wg.Wait()
	// Session operations are excluded by the lifecycle write lock and the
	// re-runs are done, but Stats/Inspect stay reachable (a draining
	// server still answers polls), so the final state is read under the
	// drain like every other access.
	pe.parts.drain()
	merged := pe.mergedDrained()
	met := pe.statsDrained()
	sys := pe.sysDrained()
	pe.parts.undrain()
	fatal := pe.failed()
	if err := pe.closeStores(); err != nil && fatal == nil {
		fatal = fmt.Errorf("runtime: sealing durable store: %w", err)
	}
	if fatal != nil {
		return nil, fatal
	}
	if !merged.Serializable(sys) {
		return nil, fmt.Errorf("runtime: merged committed schedule is NOT serializable under policy %q", pe.cfg.Policy.Name())
	}
	return &Result{Metrics: met, Schedule: merged}, nil
}

// closeStores closes every attached store and returns the first error. A
// healthy engine's seal their WALs clean; a failed one's write nothing.
func (pe *PartitionedEngine) closeStores() error {
	var first error
	for _, r := range pe.parts {
		if r.pers != nil {
			if err := r.pers.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
