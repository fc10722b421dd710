package locksafe_test

// One benchmark per deterministic experiment (E1–E12, E14; see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results), plus
// micro-benchmarks of the core machinery: replay, serializability-graph
// construction, the two safety deciders, policy monitors, the execution
// engine, the sharded lock manager and the goroutine transaction
// runtime. The service end to end is measured by bench/, not here.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locksafe/internal/checker"
	"locksafe/internal/engine"
	"locksafe/internal/experiments"
	"locksafe/internal/lockmgr"
	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	txnruntime "locksafe/internal/runtime"
	"locksafe/internal/workload"
)

func BenchmarkE1CanonicalShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E1CanonicalShapes(); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE2Figure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E2Figure2(); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE3DDAGWalkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E3DDAGWalkthrough(); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE4AltruisticWalkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E4AltruisticWalkthrough(); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE5DTRWalkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E5DTRWalkthrough(); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE6Differential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E6Differential(25, int64(i)); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE7PolicySafety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E7PolicySafety(4, int64(i)); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE8Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, r := experiments.E8Performance(1); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE9Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E9Scalability(int64(i)); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

// --- micro-benchmarks ---

func benchSystem() *model.System {
	sys, _ := workload.Random(rand.New(rand.NewSource(11)), workload.DefaultConfig())
	return sys
}

func BenchmarkReplay(b *testing.B) {
	sys, sched := workload.Random(rand.New(rand.NewSource(11)), workload.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sched.LegalAndProper(sys) {
			b.Fatal("fixture broke")
		}
	}
}

func BenchmarkSerializabilityGraph(b *testing.B) {
	sys, sched := workload.Random(rand.New(rand.NewSource(11)), workload.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sched.Graph(sys).Acyclic() && sched.Graph(sys).FindCycle() == nil {
			b.Fatal("inconsistent graph")
		}
	}
}

func BenchmarkBruteChecker(b *testing.B) {
	sys := benchSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Brute(sys, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalChecker(b *testing.B) {
	sys := benchSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Canonical(sys, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalFigure2(b *testing.B) {
	sys := workload.Figure2System()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := checker.Canonical(sys, nil)
		if err != nil || res.Safe {
			b.Fatal("Figure 2 must be unsafe")
		}
	}
}

func BenchmarkDDAGMonitor(b *testing.B) {
	sc := workload.Figure3()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := policy.DDAG{}.NewMonitor(sc.SysGranted)
		for _, ev := range sc.Granted {
			if err := mon.Step(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAltruisticMonitor(b *testing.B) {
	sc := workload.Figure4()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := policy.Altruistic{}.NewMonitor(sc.Sys)
		for _, ev := range sc.Events {
			if err := mon.Step(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDTRMonitor(b *testing.B) {
	sc := workload.Figure5()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := policy.DTR{}.NewMonitor(sc.Sys)
		for _, ev := range sc.Events {
			if err := mon.Step(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineDDAG(b *testing.B) {
	cfg := workload.DefaultDDAGConfig()
	cfg.Txns = 8
	sys, _ := workload.DDAGSystem(rand.New(rand.NewSource(3)), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(sys, engine.Config{Policy: policy.DDAG{}, MPL: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine2PLContention(b *testing.B) {
	ents := []model.Entity{"a", "b", "c", "d"}
	var txns []model.Txn
	for i := 0; i < 8; i++ {
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(ents)})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(sys, engine.Config{Policy: policy.TwoPhase{}, MPL: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGen(b *testing.B) {
	cfg := workload.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		sys, _ := workload.Random(rng, cfg)
		if len(sys.Txns) == 0 {
			b.Fatal("empty system")
		}
	}
}

func BenchmarkE10SharedDDAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E10SharedDDAG(5, int64(i)); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkDDAGSXCounterexample(b *testing.B) {
	sys := workload.DDAGSXCounterexample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := checker.Brute(sys, &checker.Options{Monitor: policy.DDAGSX{}.NewMonitor(sys)})
		if err != nil || res.Safe {
			b.Fatal("counterexample must be unsafe")
		}
	}
}

// BenchmarkLockMgrSharded measures lock/unlock pairs against the manager
// from all cores: with one shard every pair serializes on one mutex, so
// the per-shard-count comparison is the sharding refactor's headline
// number (recorded in EXPERIMENTS.md).
func BenchmarkLockMgrSharded(b *testing.B) {
	pool := make([]model.Entity, 256)
	for i := range pool {
		pool[i] = model.Entity(fmt.Sprintf("k%d", i))
	}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := lockmgr.NewSharded(shards)
			var owners atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				owner := int(owners.Add(1))
				i := owner * 37
				for pb.Next() {
					e := pool[i%len(pool)]
					i++
					// Single-entity holds cannot deadlock; conflicts just
					// queue and drain FIFO.
					if err := m.Lock(owner, e, model.Exclusive); err == nil {
						_ = m.Unlock(owner, e)
					}
				}
			})
		})
	}
}

// runSessions runs sys's transactions to completion on a fresh session
// engine: every body is opened as a session in order and driven by
// Session.Run on its own goroutine, then Close verifies the committed
// schedule serializable. A session abandoned after its retry budget is
// an outcome, not an error.
func runSessions(sys *model.System, cfg txnruntime.Config) (*txnruntime.Result, error) {
	e := txnruntime.NewSessionEngine(sys.Init, cfg)
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
			if err := s.Run(); !errors.Is(err, txnruntime.ErrAbandoned) {
				errs[t] = err
			}
		}()
	}
	wg.Wait()
	res, err := e.Close()
	return res, errors.Join(append(errs, err)...)
}

// BenchmarkRuntime2PLContention is the concurrent counterpart of
// BenchmarkEngine2PLContention: the same workload shape executed by real
// goroutines against the sharded manager.
func BenchmarkRuntime2PLContention(b *testing.B) {
	ents := []model.Entity{"a", "b", "c", "d"}
	var txns []model.Txn
	for i := 0; i < 8; i++ {
		txns = append(txns, model.Txn{Steps: workload.TwoPhaseSteps(ents)})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSessions(sys, txnruntime.Config{
			Policy: policy.TwoPhase{}, Shards: 4, Backoff: 20 * time.Microsecond, MaxRetries: 500,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeDTRChain runs the DTR crabbing pipeline on the
// goroutine runtime.
func BenchmarkRuntimeDTRChain(b *testing.B) {
	ents := []model.Entity{"e0", "e1", "e2", "e3", "e4", "e5"}
	var txns []model.Txn
	for i := 0; i < 8; i++ {
		txns = append(txns, model.Txn{Steps: workload.DTRChainSteps(ents)})
	}
	sys := model.NewSystem(model.NewState(ents...), txns...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSessions(sys, txnruntime.Config{
			Policy: policy.DTR{}, Shards: 4, Backoff: 20 * time.Microsecond, MaxRetries: 500,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, r := experiments.E14Recovery([]int{600, 1200}); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

// BenchmarkRecoveryCompact measures one abort's recovery on a ~4096-event
// log shaped like a real run — a bounded set of long transactions, the
// victim's events near the tail: checkpointed suffix replay vs the naive
// full replay the runtime used before the shared recovery core. The
// per-op gap is the headline number of the recovery refactor (recorded
// in EXPERIMENTS.md); it grows with log length.
func BenchmarkRecoveryCompact(b *testing.B) {
	const txnCount, rounds = 16, 85 // 16 × 85 × 3 ≈ 4080 events
	ents := make([]model.Entity, txnCount)
	events := make(model.Schedule, 0, txnCount*rounds*3)
	for t := 0; t < txnCount; t++ {
		e := model.Entity(fmt.Sprintf("r%d", t))
		ents[t] = e
		for r := 0; r < rounds; r++ {
			events = append(events,
				model.Ev{T: model.TID(t), S: model.LX(e)},
				model.Ev{T: model.TID(t), S: model.W(e)},
				model.Ev{T: model.TID(t), S: model.UX(e)})
		}
	}
	init := model.NewState(ents...)
	for _, mode := range []struct {
		name string
		full bool
	}{{"checkpointed", false}, {"full-replay", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := recovery.New(txnCount, init, model.PermissiveMonitor{}, 0)
				c.SetFullReplay(mode.full)
				for _, ev := range events {
					if err := c.Append(ev); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				// The victim is the last transaction: its events occupy the
				// log tail, the common case for a freshly aborted attempt.
				if ok, _ := c.Compact(map[int]bool{txnCount - 1: true}); !ok {
					b.Fatal("compact cascaded")
				}
			}
		})
	}
}

// BenchmarkRuntimeAbortHeavy runs the abort-heavy churn workload
// (transactions that abort every attempt, forcing recovery) through the
// goroutine runtime. What checkpointing saves per abort is counted by
// E14 and timed on the core by BenchmarkRecoveryCompact.
func BenchmarkRuntimeAbortHeavy(b *testing.B) {
	sys := experiments.AbortHeavySystem(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runSessions(sys, txnruntime.Config{
			Policy: policy.TwoPhase{}, Shards: 4, Backoff: 5 * time.Microsecond,
			MaxRetries: 40,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// gateBenchSystem is the disjoint shape: every transaction two-phase
// walks its own private entities, so all admissions are
// footprint-disjoint and the gate is the only shared resource — the
// striping refactor's headline configuration (recorded in
// EXPERIMENTS.md).
func gateBenchSystem() *model.System {
	const txns, perTxn = 8, 16
	var ts []model.Txn
	var all []model.Entity
	for i := 0; i < txns; i++ {
		var own []model.Entity
		for j := 0; j < perTxn; j++ {
			own = append(own, model.Entity(fmt.Sprintf("g%d_%d", i, j)))
		}
		all = append(all, own...)
		ts = append(ts, model.Txn{Steps: workload.TwoPhaseSteps(own)})
	}
	return model.NewSystem(model.NewState(all...), ts...)
}

func benchGate(b *testing.B, cfg txnruntime.Config) {
	sys := gateBenchSystem()
	cfg.Policy = policy.TwoPhase{}
	cfg.Shards = 16
	cfg.Backoff = 20 * time.Microsecond
	cfg.MaxRetries = 500
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runSessions(sys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.Commits != len(sys.Txns) {
			b.Fatalf("only %d commits", res.Metrics.Commits)
		}
	}
}

// BenchmarkGateStriped measures the footprint-striped admission pipeline
// on the disjoint workload; BenchmarkGateSerialized is the same workload
// through the legacy single-mutex monitor gate. Their ratio is the gate
// refactor's headline number.
func BenchmarkGateStriped(b *testing.B) {
	for _, stripes := range []int{4, 16} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			benchGate(b, txnruntime.Config{GateStripes: stripes})
		})
	}
}

func BenchmarkGateSerialized(b *testing.B) {
	benchGate(b, txnruntime.Config{GateStripes: 1})
}

func BenchmarkE11Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, r := experiments.E11Ablation(3); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}

func BenchmarkE12SharedReaders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.E12SharedReaders(1); r.Failed != "" {
			b.Fatal(r.Failed)
		}
	}
}
