package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

func TestConfigSentinels(t *testing.T) {
	// Zero values select the documented defaults.
	c := Config{}.withDefaults()
	if c.MaxRetries != 40 {
		t.Fatalf("MaxRetries default = %d, want 40", c.MaxRetries)
	}
	if c.Backoff != 200*time.Microsecond {
		t.Fatalf("Backoff default = %v, want 200µs", c.Backoff)
	}
	if c.GateStripes < 1 {
		t.Fatalf("GateStripes default = %d", c.GateStripes)
	}
	// Negative sentinels select literal zero — inexpressible before.
	c = Config{MaxRetries: -1, Backoff: -1}.withDefaults()
	if c.MaxRetries != 0 {
		t.Fatalf("MaxRetries=-1 resolved to %d, want 0", c.MaxRetries)
	}
	if c.Backoff != 0 {
		t.Fatalf("Backoff=-1 resolved to %v, want 0", c.Backoff)
	}
	// Positive values pass through.
	c = Config{MaxRetries: 7, Backoff: time.Millisecond, GateStripes: 1}.withDefaults()
	if c.MaxRetries != 7 || c.Backoff != time.Millisecond || c.GateStripes != 1 {
		t.Fatalf("explicit values mangled: %d, %v, %d stripes", c.MaxRetries, c.Backoff, c.GateStripes)
	}
}

// TestBackoffCapJitter pins the retry-delay schedule: linear in the
// attempt number, capped at 100x the base, then jittered downward by up
// to half (a deterministic draw is injected) — the fix for unbounded
// k*base growth under long retry storms.
func TestBackoffCapJitter(t *testing.T) {
	sys := model.NewSystem(model.NewState())
	mk := func(cfg Config, draw float64) *runner {
		r := referencePartition(sys, cfg)
		r.brand = func() float64 { return draw }
		return r
	}

	r := mk(Config{Backoff: time.Millisecond}, 0)
	if d := r.backoff(3); d != 3*time.Millisecond {
		t.Fatalf("backoff(3) = %v, want 3ms (no jitter drawn)", d)
	}
	if d := r.backoff(500); d != 100*time.Millisecond {
		t.Fatalf("backoff(500) = %v, want the 100x cap", d)
	}
	// A full jitter draw removes half the delay.
	r = mk(Config{Backoff: time.Millisecond}, 1)
	if d := r.backoff(4); d != 2*time.Millisecond {
		t.Fatalf("jittered backoff(4) = %v, want 2ms (half removed)", d)
	}
	if d := r.backoff(500); d != 50*time.Millisecond {
		t.Fatalf("jittered backoff(500) = %v, want half the 100x cap", d)
	}

	// Backoff=-1 (literal zero) never sleeps.
	r = mk(Config{Backoff: -1}, 1)
	if d := r.backoff(50); d != 0 {
		t.Fatalf("zero-backoff schedule slept %v", d)
	}
}

// TestNoRetriesIsExpressible pins the behavioral half of the sentinel
// fix: MaxRetries=-1 really means "abandon on the first abort", which
// the old zero-means-default convention could not say.
func TestNoRetriesIsExpressible(t *testing.T) {
	// Locking after unlocking violates two-phase rules on every attempt.
	sys := model.NewSystem(model.NewState("a", "b"), model.Txn{Steps: []model.Step{
		model.LX("a"), model.W("a"), model.UX("a"),
		model.LX("b"), model.W("b"), model.UX("b"),
	}})
	res, err := runBatch(sys, Config{Policy: policy.TwoPhase{}, MaxRetries: -1, Backoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.PolicyAborts != 1 || m.GaveUp != 1 || m.Commits != 0 {
		t.Fatalf("PolicyAborts=%d GaveUp=%d Commits=%d, want 1/1/0 (no retries)", m.PolicyAborts, m.GaveUp, m.Commits)
	}
}

// driveTrace feeds a legal proper schedule through a runner's gate one
// event at a time, single-threaded, so the admission pipeline's
// decisions are deterministic and comparable across gate
// configurations. Aborted transactions (policy veto, injected abort,
// cascade staleness) are dropped — their remaining events are skipped —
// mirroring how the recovery equivalence tests drive traces. When
// commit is true, transactions whose events all admit are committed.
// Returns a digest of every observable the gate influences.
func driveTrace(t *testing.T, sys *model.System, sched model.Schedule, cfg Config, rng *rand.Rand, commit bool) string {
	t.Helper()
	r := referencePartition(sys, cfg)
	dropped := make([]bool, len(sys.Txns))
	fed := make([]int, len(sys.Txns))
	total := make([]int, len(sys.Txns))
	for i, tx := range sys.Txns {
		total[i] = tx.Len()
	}
	finish := func(tn int) {
		if !commit || dropped[tn] || fed[tn] != total[tn] {
			return
		}
		if !r.rowTxn(tn).commit(r.gen[tn]) {
			t.Fatal("single-threaded commit cannot be stale")
		}
	}
	for _, ev := range sched {
		tn := int(ev.T)
		if dropped[tn] {
			continue
		}
		// Injected abort: exercise erase/charge under the drain exactly
		// as a deadlock abort would.
		if rng.Intn(12) == 0 {
			x := r.rowTxn(tn)
			x.span.drain()
			r.met.DeadlockAborts++
			x.abortDrained()
			dropped[tn] = true
			continue
		}
		if ev.S.Op.IsLock() {
			if err := r.pe.mgr.Lock(tn, ev.S.Ent, ev.S.Op.LockMode()); err != nil {
				t.Fatalf("single-threaded lock on a legal schedule failed: %v", err)
			}
		}
		if !r.rowTxn(tn).admit(r.gen[tn], ev.S) {
			// Vetoed (and aborted) or stale after a cascade: drop.
			dropped[tn] = true
			continue
		}
		fed[tn]++
		finish(tn)
	}
	if r.fatal != nil {
		t.Fatalf("fatal: %v", r.fatal)
	}
	r.gate.drain()
	r.flushPending()
	r.gate.undrain()

	m := r.met
	return fmt.Sprintf("log:\n%s\nstate:%v key:%q serializable:%v\n"+
		"commits:%d gaveup:%d dead:%d pol:%d imp:%d casc:%d\ngen:%v attempts:%v status:%v",
		r.rec.Events(), r.rec.State(), r.rec.Monitor().Key(), r.rec.Events().Serializable(sys),
		m.Commits, m.GaveUp, m.DeadlockAborts, m.PolicyAborts, m.ImproperAborts, m.CascadeAborts,
		r.gen, r.attempts, r.status)
}

// TestGateEquivalenceRandomTraces is the pinning property test for the
// striped-gate refactor: on randomized traces — with policy vetoes,
// injected aborts and (in the altruistic arm) erase-time cascades — the
// serialized gate (one stripe) and a striped gate with many stripes
// must be observably identical: same surviving logs,
// structural states, monitor keys, serializability verdicts, abort
// accounting and per-transaction generations.
func TestGateEquivalenceRandomTraces(t *testing.T) {
	cfgs := []Config{
		{GateStripes: 1},
		{GateStripes: 8},
	}
	arms := []struct {
		name   string
		pol    policy.Policy
		wl     workload.Config
		commit bool
	}{
		// Structure-free workloads, committing: no cascades can arise,
		// so committed transactions never need re-spawning and the
		// drive stays single-threaded.
		{"unrestricted", policy.Unrestricted{}, func() workload.Config {
			c := workload.DefaultConfig()
			c.PStructural = 0
			return c
		}(), true},
		{"2PL", policy.TwoPhase{}, func() workload.Config {
			c := workload.DefaultConfig()
			c.PStructural = 0
			return c
		}(), true},
		// Altruistic over structural workloads, not committing: erase
		// cascades (wake members, vanished creators) stay deterministic
		// because un-spawned transactions are never re-spawned.
		{"altruistic", policy.Altruistic{}, workload.DefaultConfig(), false},
	}
	for _, arm := range arms {
		for seed := int64(0); seed < 25; seed++ {
			sys, sched := workload.Random(rand.New(rand.NewSource(seed)), arm.wl)
			if len(sched) == 0 {
				continue
			}
			var base string
			for i, gc := range cfgs {
				gc.Policy = arm.pol
				gc.CheckpointEvery = 3 // small, so flushes and checkpoints happen
				got := driveTrace(t, sys, sched, gc, rand.New(rand.NewSource(seed*31+7)), arm.commit)
				if i == 0 {
					base = got
					continue
				}
				if got != base {
					t.Fatalf("%s seed %d: gate config %+v diverges from the serialized gate:\n--- got ---\n%s\n--- want ---\n%s",
						arm.name, seed, gc, got, base)
				}
			}
		}
	}
}

// TestGateStripeSetCoversEvent pins the defensive union: whatever a
// monitor's footprint says, the admission stripes cover the event's own
// transaction and entity, so conflicting events always share a stripe.
func TestGateStripeSetCoversEvent(t *testing.T) {
	g := newGate(8)
	ev := model.Ev{T: 3, S: model.W("e1")}
	var buf [maxStripeBuf]int
	set, fast := g.setFor(buf[:0], ev, model.Footprint{}) // empty footprint
	if !fast {
		t.Fatal("empty footprint must not drain")
	}
	want := map[int]bool{g.stripeOfTxn(3): true, model.PartitionOf("e1", g.size()): true}
	if len(set) != len(want) {
		t.Fatalf("set = %v, want the %d stripes %v", set, len(want), want)
	}
	if !sort.IntsAreSorted(set) {
		t.Fatalf("set %v not sorted", set)
	}
	for _, i := range set {
		if !want[i] {
			t.Fatalf("set = %v contains stray stripe %d", set, i)
		}
	}
	if _, fast := g.setFor(buf[:0], ev, model.GlobalFootprint()); fast {
		t.Fatal("global footprint must drain")
	}
	if _, fast := newGate(1).setFor(buf[:0], ev, model.Footprint{}); fast {
		t.Fatal("single-stripe gate must always drain")
	}
}

// TestGateStripedStress hammers the gate, serialized (stripes=1) and
// striped, from many goroutines with heavily overlapping footprints —
// shared hot entities, structural creators racing readers (improper
// aborts + slow path), deadlock-prone lock orders — under -race in CI.
// The committed schedule must be serializable (Close verifies it) and
// the commit/give-up accounting must balance.
func TestGateStripedStress(t *testing.T) {
	ents := entities(8)
	rng := rand.New(rand.NewSource(23))
	var txns []model.Txn
	// Conflicting two-phase transactions in shuffled lock orders.
	for i := 0; i < 10; i++ {
		perm := append([]model.Entity(nil), ents...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(perm[:4])})
	}
	// Creators and readers of fresh entities: Insert/Delete take the
	// drain path, readers racing ahead abort improperly and retry.
	for i := 0; i < 3; i++ {
		e := model.Entity(fmt.Sprintf("fresh%d", i))
		txns = append(txns,
			model.Txn{Steps: []model.Step{model.LX(e), model.I(e), model.UX(e)}},
			model.Txn{Steps: []model.Step{model.LX(e), model.R(e), model.UX(e)}},
		)
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	for _, stripes := range []int{1, 2, 8} {
		res, err := runBatch(sys, Config{
			Policy: policy.TwoPhase{}, Shards: 8, GateStripes: stripes,
			Backoff: 20 * time.Microsecond, MaxRetries: 600, CheckpointEvery: 8,
		})
		if err != nil {
			t.Fatalf("stripes=%d: %v", stripes, err)
		}
		m := res.Metrics
		if m.Commits+m.GaveUp != len(txns) {
			t.Fatalf("stripes=%d: Commits(%d) + GaveUp(%d) != %d", stripes, m.Commits, m.GaveUp, len(txns))
		}
		if m.Commits == 0 {
			t.Fatalf("stripes=%d: nothing committed", stripes)
		}
	}
}

// TestGateStripedAltruisticStress mixes global-footprint admissions
// (altruistic LX) with local ones (UX, data) so fast and slow paths
// interleave under contention.
func TestGateStripedAltruisticStress(t *testing.T) {
	ents := entities(6)
	var txns []model.Txn
	for i := 0; i < 10; i++ {
		var steps []model.Step
		for _, e := range ents {
			steps = append(steps, model.LX(e), model.W(e), model.UX(e))
		}
		txns = append(txns, model.Txn{Steps: steps})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	res, err := runBatch(sys, Config{
		Policy: policy.Altruistic{}, Shards: 4, GateStripes: 8,
		Backoff: 20 * time.Microsecond, MaxRetries: 600, CheckpointEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Commits+m.GaveUp != len(txns) || m.Commits == 0 {
		t.Fatalf("accounting: Commits=%d GaveUp=%d of %d", m.Commits, m.GaveUp, len(txns))
	}
}

// TestGateConfigsAgreeEndToEnd runs a conflict-free (disjoint-entity)
// workload through real goroutines under every gate configuration: with
// nothing to conflict on, every transaction must commit first try under
// each gate, and every committed schedule is serializable (verified
// by Close).
func TestGateConfigsAgreeEndToEnd(t *testing.T) {
	const txns = 8
	var ts []model.Txn
	var all []model.Entity
	for i := 0; i < txns; i++ {
		var own []model.Entity
		for k := 0; k < 3; k++ {
			own = append(own, model.Entity(fmt.Sprintf("d%d_%d", i, k)))
		}
		all = append(all, own...)
		ts = append(ts, model.Txn{Steps: workload.TwoPhaseSteps(own)})
	}
	sys := model.NewSystem(model.NewState(all...), ts...)
	for _, cfg := range []Config{
		{GateStripes: 1},
		{GateStripes: 8},
	} {
		cfg.Policy = policy.TwoPhase{}
		cfg.Shards = 8
		res, err := runBatch(sys, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		m := res.Metrics
		if m.Commits != txns || m.GaveUp != 0 || m.Aborts() != 0 {
			t.Fatalf("%+v: Commits=%d GaveUp=%d Aborts=%d, want %d/0/0", cfg, m.Commits, m.GaveUp, m.Aborts(), txns)
		}
		if len(res.Schedule) != txns*3*3 {
			t.Fatalf("%+v: schedule has %d events", cfg, len(res.Schedule))
		}
	}
}
