package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	"locksafe/internal/workload"
)

// E14Row is one configuration of the recovery-scaling study.
type E14Row struct {
	// Mode is "checkpointed" (suffix replay from periodic snapshots) or
	// "full-replay" (the pre-recovery-core discipline: rebuild from the
	// initial state).
	Mode string
	// Events is the log length at the abort.
	Events int
	// Replayed is the number of surviving events re-verified to recover.
	Replayed int
	// Checkpoints is the number of retained snapshots.
	Checkpoints int
}

// E14Recovery is the abort-heavy recovery-scaling study enabled by the
// shared checkpointed-recovery core (internal/recovery). It counts
// replay work on the core, deterministically: build a log of N events,
// erase the most recent transaction, and count the events re-verified
// under checkpointed suffix replay vs the naive full replay the runtime
// used before the recovery core. Full replay walks the whole surviving
// log — O(N) per abort, O(N²) on abort-heavy runs — while checkpointed
// recovery is bounded by the checkpoint suffix regardless of N. Both
// counts are asserted; what an abort costs in seconds is bench/'s
// shuffle-abort workload (runtime.replayed_per_abort,
// recovery.compact_us_p50).
func E14Recovery(sizes []int) ([]E14Row, Report) {
	if len(sizes) == 0 {
		sizes = []int{1000, 2000, 4000, 8000}
	}
	var rows []E14Row
	var b strings.Builder
	var failed string

	fmt.Fprintf(&b, "%-13s %9s %9s %12s\n", "mode", "events", "replayed", "checkpoints")
	var prevFull int
	for _, n := range sizes {
		ck, full := e14CoreRows(n)
		rows = append(rows, ck, full)
		for _, r := range []E14Row{ck, full} {
			fmt.Fprintf(&b, "%-13s %9d %9d %12d\n", r.Mode, r.Events, r.Replayed, r.Checkpoints)
		}
		// The asserted asymptotic shape: full replay walks the whole
		// surviving log and grows with N; checkpointed replay stays
		// bounded by the (doubling-schedule) suffix. The first failure
		// wins.
		if full.Replayed != full.Events-3 && failed == "" {
			failed = fmt.Sprintf("full replay at %d events re-verified %d, want %d", n, full.Replayed, full.Events-3)
		}
		if full.Replayed <= prevFull && failed == "" {
			failed = fmt.Sprintf("full-replay cost must grow with the log (%d after %d)", full.Replayed, prevFull)
		}
		prevFull = full.Replayed
		if (ck.Replayed >= full.Replayed/2 || ck.Replayed > 1024) && failed == "" {
			failed = fmt.Sprintf("checkpointed replay not suffix-bounded: %d of %d events", ck.Replayed, ck.Events)
		}
	}

	fmt.Fprintf(&b, "\nShape: an abort must erase the victim's events and re-verify that the\n")
	fmt.Fprintf(&b, "surviving history still replays. Rebuilding from the initial state costs\n")
	fmt.Fprintf(&b, "the whole log per abort (replayed grows with events); replaying from\n")
	fmt.Fprintf(&b, "the last checkpoint at or before the victim's first event costs only the\n")
	fmt.Fprintf(&b, "suffix, bounded by the doubling checkpoint schedule no matter how long\n")
	fmt.Fprintf(&b, "the run gets.\n")
	return rows, Report{ID: "E14", Title: "abort-heavy recovery scaling (checkpointed vs full replay)", Text: b.String(), Failed: failed}
}

// e14CoreRows builds a log of ~n events (independent three-step
// transactions under a two-phase monitor), erases the most recent
// transaction under each recovery discipline, and reports the replay
// counts.
func e14CoreRows(n int) (ck, full E14Row) {
	m := n / 3
	ents := make([]model.Entity, m)
	txns := make([]model.Txn, m)
	events := make(model.Schedule, 0, 3*m)
	for i := 0; i < m; i++ {
		e := model.Entity(fmt.Sprintf("r%d", i))
		ents[i] = e
		steps := []model.Step{model.LX(e), model.W(e), model.UX(e)}
		txns[i] = model.Txn{Steps: steps}
		for _, st := range steps {
			events = append(events, model.Ev{T: model.TID(i), S: st})
		}
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)

	measure := func(fullReplay bool) E14Row {
		c := recovery.New(m, sys.Init, policy.TwoPhase{}.NewMonitor(sys), 0)
		c.SetFullReplay(fullReplay)
		for _, ev := range events {
			if err := c.Append(ev); err != nil {
				panic(fmt.Sprintf("e14: append: %v", err)) // fixture bug, not a measurement
			}
		}
		logLen := c.Len()
		if ok, _ := c.Compact(map[int]bool{m - 1: true}); !ok {
			panic("e14: compacting an independent transaction cascaded")
		}
		mode := "checkpointed"
		if fullReplay {
			mode = "full-replay"
		}
		return E14Row{
			Mode:        mode,
			Events:      logLen,
			Replayed:    c.Stats().Replayed,
			Checkpoints: c.Checkpoints(),
		}
	}
	return measure(false), measure(true)
}

// AbortHeavySystem builds an abort-heavy mix that does not depend on
// scheduler luck: `committers` committing transactions (opposing lock
// orders, so deadlocks may add to the churn on multi-core machines)
// interleaved with churn transactions — one per two committers — that
// violate two-phase locking on every attempt (lock after unlock) and
// therefore abort, forcing recovery, until MaxRetries abandons them.
// Every churn abort erases logged events and re-verifies the survivors,
// which is exactly the work checkpointed recovery bounds. It is the
// workload of BenchmarkRuntimeAbortHeavy.
func AbortHeavySystem(seed int64, committers int) *model.System {
	rng := rand.New(rand.NewSource(seed))
	shared := make([]model.Entity, 6)
	for i := range shared {
		shared[i] = model.Entity(fmt.Sprintf("e%d", i))
	}
	all := append([]model.Entity(nil), shared...)
	var txns []model.Txn
	for i := 0; i < committers; i++ {
		perm := append([]model.Entity(nil), shared...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(perm)})
		if i%2 == 0 {
			// Private entities, so the churner conflicts with nobody and
			// its aborts measure recovery cost, not lock waits.
			c := model.Entity(fmt.Sprintf("c%d", i))
			d := model.Entity(fmt.Sprintf("d%d", i))
			all = append(all, c, d)
			txns = append(txns, model.Txn{Steps: []model.Step{
				model.LX(c), model.W(c), model.UX(c),
				model.LX(d), model.W(d), model.UX(d), // 2PL veto: lock after unlock
			}})
		}
	}
	return model.NewSystem(model.NewState(all...), txns...)
}
