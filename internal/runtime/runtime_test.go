package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

func entities(n int) []model.Entity {
	out := make([]model.Entity, n)
	for i := range out {
		out[i] = model.Entity(fmt.Sprintf("e%d", i))
	}
	return out
}

// runBatch runs sys's transactions to completion on a fresh session
// engine (see runSessions).
func runBatch(sys *model.System, cfg Config) (*Result, error) {
	return runSessions(NewSessionEngine(sys.Init, cfg), sys)
}

// runSessions opens every body of sys as a session of e, in order — so
// session id t is body t — and drives each with Session.Run on its own
// goroutine; Close then verifies the committed schedule serializable. A
// session abandoned after its retry budget is an outcome, not an error.
func runSessions(e SessionEngine, sys *model.System) (*Result, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(sys.Txns))
	for t, tx := range sys.Txns {
		s, err := e.OpenSession(tx)
		if err != nil {
			errs[t] = err
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Run(); !errors.Is(err, ErrAbandoned) {
				errs[t] = err
			}
		}()
	}
	wg.Wait()
	res, err := e.Close()
	return res, errors.Join(append(errs, err)...)
}

func checkPartition(t *testing.T, res *Result, txns int) {
	t.Helper()
	m := res.Metrics
	if m.Commits+m.GaveUp != txns {
		t.Fatalf("Commits(%d) + GaveUp(%d) != txns(%d)", m.Commits, m.GaveUp, txns)
	}
	if m.Commits == 0 {
		t.Fatal("nothing committed")
	}
	if m.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
	if m.Commits > 0 && m.Events == 0 {
		t.Fatal("commits without surviving events")
	}
}

func TestRun2PLContention(t *testing.T) {
	ents := entities(4)
	var txns []model.Txn
	for i := 0; i < 8; i++ {
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(ents)})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	for _, shards := range []int{1, 4} {
		res, err := runBatch(sys, Config{Policy: policy.TwoPhase{}, Shards: shards, Backoff: 50 * time.Microsecond})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkPartition(t, res, len(txns))
		// Identical lock-order transactions cannot deadlock... but they
		// can conflict; every committed schedule must carry all events.
		if res.Metrics.Commits == len(txns) && len(res.Schedule) != len(txns)*len(ents)*3 {
			t.Fatalf("shards=%d: schedule has %d events", shards, len(res.Schedule))
		}
	}
}

func TestRunDeadlockProneWorkload(t *testing.T) {
	// Opposing lock orders across goroutines: deadlocks happen and are
	// resolved by abort/retry rather than hanging the run.
	ents := entities(6)
	var txns []model.Txn
	for i := 0; i < 10; i++ {
		perm := append([]model.Entity(nil), ents...)
		rng := rand.New(rand.NewSource(int64(i)))
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(perm[:4])})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	res, err := runBatch(sys, Config{Policy: policy.TwoPhase{}, Shards: 8, Backoff: 50 * time.Microsecond, MaxRetries: 200})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(txns))
}

func TestRunDTRChain(t *testing.T) {
	ents := entities(6)
	var txns []model.Txn
	for i := 0; i < 8; i++ {
		txns = append(txns, model.Txn{Steps: workload.DTRChainSteps(ents)})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	res, err := runBatch(sys, Config{Policy: policy.DTR{}, Shards: 4, Backoff: 50 * time.Microsecond, MaxRetries: 200})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(txns))
}

func TestRunAltruistic(t *testing.T) {
	ents := entities(6)
	var txns []model.Txn
	for i := 0; i < 8; i++ {
		var steps []model.Step
		for _, e := range ents {
			steps = append(steps, model.LX(e), model.W(e), model.UX(e))
		}
		txns = append(txns, model.Txn{Steps: steps})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	res, err := runBatch(sys, Config{Policy: policy.Altruistic{}, Shards: 4, Backoff: 50 * time.Microsecond, MaxRetries: 400})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(txns))
}

func TestRunMPLOneSerializes(t *testing.T) {
	// With one transaction active at a time there is no contention at
	// all: everything commits first try.
	ents := entities(4)
	var txns []model.Txn
	for i := 0; i < 6; i++ {
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(ents)})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	res, err := runBatch(sys, Config{Policy: policy.TwoPhase{}, MPL: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits != len(txns) || res.Metrics.Aborts() != 0 {
		t.Fatalf("MPL=1: Commits=%d Aborts=%d, want %d and 0", res.Metrics.Commits, res.Metrics.Aborts(), len(txns))
	}
}

func TestRunPolicyVetoGivesUp(t *testing.T) {
	// Locking after unlocking violates two-phase rules on every attempt:
	// the transaction must be abandoned, not retried forever.
	sys := model.NewSystem(model.NewState("a", "b"), model.Txn{Steps: []model.Step{
		model.LX("a"), model.W("a"), model.UX("a"),
		model.LX("b"), model.W("b"), model.UX("b"),
	}})
	res, err := runBatch(sys, Config{Policy: policy.TwoPhase{}, MaxRetries: 3, Backoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.GaveUp != 1 || m.Commits != 0 {
		t.Fatalf("GaveUp=%d Commits=%d, want 1 and 0", m.GaveUp, m.Commits)
	}
	if m.PolicyAborts != 4 { // initial attempt + MaxRetries retries
		t.Fatalf("PolicyAborts = %d, want 4", m.PolicyAborts)
	}
	if len(res.Schedule) != 0 {
		t.Fatalf("abandoned transaction left %d events in the schedule", len(res.Schedule))
	}
}

// TestCascadeUnCommitsAndRespawns drives eraseDrained directly: T1
// inserted x and T2 (already committed) read it; aborting T1 must
// cascade into T2, un-commit it, and re-run it — whereupon the re-run
// finds x undefined and eventually gives up.
func TestCascadeUnCommitsAndRespawns(t *testing.T) {
	sys := model.NewSystem(model.NewState(),
		model.Txn{Name: "T1", Steps: []model.Step{model.LX("x"), model.I("x"), model.UX("x")}},
		model.Txn{Name: "T2", Steps: []model.Step{model.LX("x"), model.R("x"), model.UX("x")}},
	)
	r := referencePartition(sys, Config{MaxRetries: 2, Backoff: time.Microsecond})
	// Hand-build the state as if T1 ran its first two steps and T2 ran to
	// commit inside them.
	r.gate.drain()
	for _, ev := range []model.Ev{
		{T: 0, S: model.LX("x")},
		{T: 0, S: model.I("x")},
		{T: 0, S: model.UX("x")},
		{T: 1, S: model.LX("x")},
		{T: 1, S: model.R("x")},
		{T: 1, S: model.UX("x")},
	} {
		if err := r.rec.AppendTagged(ev, r.pe.tags.Add(1)-1); err != nil {
			t.Fatal(err)
		}
	}
	r.status[1] = txCommitted
	r.met.Commits = 1

	// T1 aborts.
	eraseDrained(span{r}, r.rowTxn(0))
	r.rowTxn(0).chargeDrained()
	r.gate.undrain()

	// The cascade must have re-spawned T2; wait for it to run out.
	r.pe.wg.Wait()

	r.gate.drain()
	defer r.gate.undrain()
	if r.met.CascadeAborts != 1 {
		t.Fatalf("CascadeAborts = %d, want 1", r.met.CascadeAborts)
	}
	if r.met.Commits != 0 {
		t.Fatalf("Commits = %d, want 0 (T2 un-committed)", r.met.Commits)
	}
	if r.met.GaveUp != 1 || r.status[1] != txAbandoned {
		t.Fatalf("GaveUp = %d status = %d; T2's re-run must abandon (x never exists)", r.met.GaveUp, r.status[1])
	}
	if r.rec.Len() != 0 {
		t.Fatalf("log still has %d events", r.rec.Len())
	}
	if r.met.ImproperAborts == 0 {
		t.Fatal("T2's re-run should have recorded improper aborts")
	}
}

// TestRecoveryModeEraseEquivalence is the white-box half of the recovery
// pinning: the same hand-built log erased through checkpointed suffix
// replay and through the old full-replay discipline must leave identical
// logs, victim generations, retry charges and metrics. Deterministic —
// everything happens under the gate with no goroutines in flight.
func TestRecoveryModeEraseEquivalence(t *testing.T) {
	sys := model.NewSystem(model.NewState(),
		model.Txn{Name: "T1", Steps: []model.Step{model.LX("x"), model.I("x"), model.UX("x")}},
		model.Txn{Name: "T2", Steps: []model.Step{model.LX("x"), model.R("x"), model.UX("x")}},
		model.Txn{Name: "T3", Steps: []model.Step{model.LX("y"), model.I("y"), model.UX("y")}},
	)
	log := []model.Ev{
		{T: 0, S: model.LX("x")},
		{T: 0, S: model.I("x")},
		{T: 2, S: model.LX("y")},
		{T: 0, S: model.UX("x")},
		{T: 1, S: model.LX("x")},
		{T: 2, S: model.I("y")},
		{T: 1, S: model.R("x")},
		{T: 1, S: model.UX("x")},
		{T: 2, S: model.UX("y")},
	}
	build := func(full bool) *runner {
		r := referencePartition(sys, Config{MaxRetries: 10, Backoff: time.Microsecond, CheckpointEvery: 2})
		r.rec.SetFullReplay(full)
		r.gate.drain()
		for _, ev := range log {
			if err := r.rec.AppendTagged(ev, r.pe.tags.Add(1)-1); err != nil {
				t.Fatal(err)
			}
		}
		return r // drain still held
	}
	ck, full := build(false), build(true)
	// Erasing T1 cascades into T2 (its READ of x no longer replays) but
	// must leave T3 untouched.
	eraseDrained(span{ck}, ck.rowTxn(0))
	eraseDrained(span{full}, full.rowTxn(0))
	if ck.fatal != nil || full.fatal != nil {
		t.Fatalf("fatal: %v / %v", ck.fatal, full.fatal)
	}
	if a, b := ck.rec.Events().String(), full.rec.Events().String(); a != b {
		t.Fatalf("surviving logs differ:\n%s\n%s", a, b)
	}
	if ck.met.CascadeAborts != 1 || full.met.CascadeAborts != 1 {
		t.Fatalf("CascadeAborts = %d / %d, want 1", ck.met.CascadeAborts, full.met.CascadeAborts)
	}
	for i := range sys.Txns {
		if ck.gen[i] != full.gen[i] || ck.attempts[i] != full.attempts[i] {
			t.Fatalf("T%d: gen/attempts diverge: %d/%d vs %d/%d", i+1, ck.gen[i], ck.attempts[i], full.gen[i], full.attempts[i])
		}
	}
	if ck.gen[2] != 0 {
		t.Fatal("T3 must not be cascaded")
	}
	ck.gate.undrain()
	full.gate.undrain()
}

// TestRecoveryModesEndToEnd runs an abort-heavy workload through both
// recovery disciplines: both must complete with full accounting and a
// serializable committed schedule (verified by Close), and both must
// record the replay work they performed.
func TestRecoveryModesEndToEnd(t *testing.T) {
	ents := entities(6)
	var txns []model.Txn
	for i := 0; i < 10; i++ {
		perm := append([]model.Entity(nil), ents...)
		rng := rand.New(rand.NewSource(int64(i)))
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(perm[:4])})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	for _, full := range []bool{false, true} {
		pe := newPartitionedCore(sys.Init, Config{
			Policy: policy.TwoPhase{}, Shards: 4, Backoff: 50 * time.Microsecond,
			MaxRetries: 200, CheckpointEvery: 4,
		})
		pe.parts[0].rec.SetFullReplay(full)
		res, err := runSessions(pe, sys)
		if err != nil {
			t.Fatalf("full=%v: %v", full, err)
		}
		checkPartition(t, res, len(txns))
		// Replayed is nondeterministic (it depends on which attempts
		// abort and how much log they had behind them); the accounting
		// itself is pinned by the recovery package's tests.
	}
}

// TestRunStress exercises the full concurrent stack under -race: many
// goroutines, many shards, conflicting random workloads, MPL admission.
func TestRunStress(t *testing.T) {
	ents := entities(10)
	rng := rand.New(rand.NewSource(7))
	var txns []model.Txn
	for i := 0; i < 14; i++ {
		k := 3 + rng.Intn(3)
		perm := append([]model.Entity(nil), ents...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		pick := append([]model.Entity(nil), perm[:k]...)
		sort.Slice(pick, func(a, b int) bool { return pick[a] < pick[b] })
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(pick)})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	res, err := runBatch(sys, Config{Policy: policy.TwoPhase{}, Shards: 8, MPL: 6, Backoff: 20 * time.Microsecond, MaxRetries: 500})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(txns))
	if res.Metrics.Throughput() <= 0 {
		t.Fatal("throughput not recorded")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{Commits: 10, DeadlockAborts: 1, PolicyAborts: 2, ImproperAborts: 3, CascadeAborts: 4, Elapsed: 2 * time.Second}
	if m.Aborts() != 10 {
		t.Fatalf("Aborts = %d", m.Aborts())
	}
	if m.Throughput() != 5 {
		t.Fatalf("Throughput = %v", m.Throughput())
	}
	if (Metrics{}).Throughput() != 0 {
		t.Fatal("zero-elapsed throughput must be 0")
	}
}
