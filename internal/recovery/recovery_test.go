package recovery_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	"locksafe/internal/workload"
)

func TestAppendMaintainsLiveState(t *testing.T) {
	sys := model.NewSystem(model.NewState("a"),
		model.NewTxn("T1", model.LX("b"), model.I("b"), model.UX("b")),
	)
	c := recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 0)
	for _, ev := range []model.Ev{
		{T: 0, S: model.LX("b")},
		{T: 0, S: model.I("b")},
		{T: 0, S: model.UX("b")},
	} {
		if err := c.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if !c.State().Has("b") || !c.State().Has("a") {
		t.Fatalf("state %v must contain a and b", c.State())
	}
}

// TestStructuralCascade: T0 inserts x, T1 reads it. Erasing T0 must
// report T1 as a cascade victim (its READ is no longer defined), and the
// grown victim set must empty the log.
func TestStructuralCascade(t *testing.T) {
	sys := model.NewSystem(model.NewState(),
		model.NewTxn("T1", model.LX("x"), model.I("x"), model.UX("x")),
		model.NewTxn("T2", model.LX("x"), model.R("x"), model.UX("x")),
	)
	for _, full := range []bool{false, true} {
		c := recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 1)
		c.SetFullReplay(full)
		for _, ev := range []model.Ev{
			{T: 0, S: model.LX("x")},
			{T: 0, S: model.I("x")},
			{T: 0, S: model.UX("x")},
			{T: 1, S: model.LX("x")},
			{T: 1, S: model.R("x")},
			{T: 1, S: model.UX("x")},
		} {
			if err := c.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		victims := map[int]bool{0: true}
		ok, cascade := c.Compact(victims)
		if ok || cascade != 1 {
			t.Fatalf("full=%v: Compact = (%v, %d), want cascade on T2", full, ok, cascade)
		}
		victims[1] = true
		if ok, _ := c.Compact(victims); !ok {
			t.Fatalf("full=%v: grown victim set must compact", full)
		}
		if c.Len() != 0 {
			t.Fatalf("full=%v: log still has %d events", full, c.Len())
		}
		if c.State().Has("x") {
			t.Fatalf("full=%v: x must not survive the cascade", full)
		}
	}
}

// depMonitor admits T1's events only after it has seen an event of T0 —
// a miniature of the altruistic wake dependency, used to drive the
// monitor-veto cascade branch deterministically.
type depMonitor struct{ seen [2]bool }

func (m *depMonitor) Check(ev model.Ev) error {
	if ev.T == 1 && !m.seen[0] {
		return errors.New("T2 depends on T1")
	}
	return nil
}

func (m *depMonitor) Step(ev model.Ev) error {
	if err := m.Check(ev); err != nil {
		return err
	}
	if int(ev.T) < len(m.seen) {
		m.seen[int(ev.T)] = true
	}
	return nil
}

func (m *depMonitor) Fork() model.Monitor { cp := *m; return &cp }
func (m *depMonitor) Grow()               {} // fixed two-transaction fixture
func (m *depMonitor) Key() string         { return fmt.Sprint(m.seen) }

// Footprint is global: the cross-transaction dependency reads the shared
// seen flags.
func (m *depMonitor) Footprint(model.Ev) model.Footprint { return model.GlobalFootprint() }

// TestMonitorVetoCascade drives the policy-veto branch of Compact: after
// the dependency-carrying transaction is erased, the dependent's events
// no longer pass the monitor and it cascades.
func TestMonitorVetoCascade(t *testing.T) {
	init := model.NewState("a", "b")
	for _, full := range []bool{false, true} {
		c := recovery.New(2, init, &depMonitor{}, 1)
		c.SetFullReplay(full)
		for _, ev := range []model.Ev{
			{T: 0, S: model.LX("a")},
			{T: 1, S: model.LX("b")},
			{T: 1, S: model.W("b")},
			{T: 0, S: model.UX("a")},
			{T: 1, S: model.UX("b")},
		} {
			if err := c.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		victims := map[int]bool{0: true}
		ok, cascade := c.Compact(victims)
		if ok || cascade != 1 {
			t.Fatalf("full=%v: Compact = (%v, %d), want monitor-veto cascade on T2", full, ok, cascade)
		}
		victims[1] = true
		if ok, _ := c.Compact(victims); !ok || c.Len() != 0 {
			t.Fatalf("full=%v: grown victim set must empty the log", full)
		}
	}
}

// compactAll runs the cascade loop to convergence, returning the cascade
// victims in discovery order. victims is mutated (it grows), exactly as
// the substrates use it.
func compactAll(t *testing.T, c interface {
	Compact(map[int]bool) (bool, int)
}, victims map[int]bool) []int {
	t.Helper()
	var cascades []int
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("cascade loop did not converge")
		}
		ok, v := c.Compact(victims)
		if ok {
			return cascades
		}
		if victims[v] {
			t.Fatalf("Compact re-reported victim T%d", v+1)
		}
		victims[v] = true
		cascades = append(cascades, v)
	}
}

// diskCore drives a store beside a Core the way the runtime's runner
// does, the Core itself writing nothing: each event after its append, a
// compaction record after each Compact that erased something, a rotation
// offer after each truncation that cut, and a status on demand, which
// waits on the store's barrier as its acknowledgement would. With p
// nil it is a memory-only core. err keeps the first failed write, as the
// runner's fatal error does.
type diskCore struct {
	*recovery.Core
	p   recovery.Persister
	err error
}

func (d *diskCore) write(err error) error {
	if err != nil && d.err == nil {
		d.err = err
	}
	return err
}

func (d *diskCore) Append(ev model.Ev) error {
	if err := d.Core.Append(ev); err != nil || d.p == nil {
		return err
	}
	tags := d.Tags()
	return d.write(d.p.AppendEvents([]model.Ev{ev}, tags[len(tags)-1:]))
}

func (d *diskCore) Compact(victims map[int]bool) (bool, int) {
	erased := d.Stats().Compactions
	ok, c := d.Core.Compact(victims)
	if ok && d.p != nil && d.Stats().Compactions > erased {
		d.write(d.p.AppendCompact(slices.Sorted(maps.Keys(victims))))
	}
	return ok, c
}

func (d *diskCore) Truncate(settled func(int) bool) int {
	n := d.Core.Truncate(settled)
	if n > 0 && d.p != nil {
		d.write(d.p.Rotate())
	}
	return n
}

func (d *diskCore) status(tid int, status byte) error {
	if err := d.write(d.p.AppendStatus(tid, status)); err != nil {
		return err
	}
	return d.write(d.p.(*recovery.Store).Sync())
}

// rebuild replays a recovered history into a fresh Core through Append's
// live discipline, so an out-of-range, undefined or vetoed event fails
// it, and the rebuilt Monitor(), State() and checkpoint cadence are what
// an uninterrupted run would have produced.
func rebuild(rec recovery.Recovered, txns int, init model.State, mon model.Monitor, every int) (*recovery.Core, error) {
	c := recovery.New(txns, init, mon, every)
	for i, ev := range rec.Events {
		if int(ev.T) >= txns || ev.S.Op.IsData() && !c.State().Defined(ev.S) {
			return nil, fmt.Errorf("event %d %v: %w", i, ev, recovery.ErrCorrupt)
		}
		if err := c.AppendTagged(ev, rec.Tags[i]); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// TestEquivalenceRandomTraces is the pinning property test for the
// recovery refactor: on randomized legal+proper traces, checkpointed
// suffix replay at several intervals, the naive full replay, and the
// durability dimension — a WAL-backed core, and a WAL-backed core that
// is torn down and restored from disk between phases — must be
// observably identical: same cascade victim sequences, same surviving
// logs, same structural states, same monitor states (via Key) and the
// same serializability verdict — across interleaved append and compact
// phases. One more variant truncates and retires at every opportunity —
// after every append and every compaction, with every transaction that
// has run out of events and will not be picked as a victim settled — and
// must show the same victims and cascades, the same state, and as its
// log exactly the base log minus the prefix it discarded.
func TestEquivalenceRandomTraces(t *testing.T) {
	truncations, retired := 0, 0 // what the truncating variant did, over all seeds
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		if seed >= 40 {
			// More, shorter transactions: with three, two of them victims,
			// little ever settles and the floor rarely moves.
			cfg.Txns, cfg.Steps = 7, 6
		}
		sys, sched := workload.Random(rng, cfg)
		if len(sched) == 0 {
			continue
		}

		type variant struct {
			name    string
			c       *diskCore
			st      *recovery.Store
			restart bool
			// retire, when non-nil, is the variant's own copy of the system:
			// it truncates whenever it can and retires below the core's floor.
			retire *model.System
		}
		mk := func(every int, full bool) *diskCore {
			c := recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), every)
			c.SetFullReplay(full)
			return &diskCore{Core: c}
		}
		mkWAL := func(every int, restart bool) *variant {
			st, _, err := recovery.Open(t.TempDir(), recovery.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c := mk(every, false)
			c.p = st
			name := "wal"
			if restart {
				name = "wal-restart"
			}
			return &variant{name: name, c: c, st: st, restart: restart}
		}
		rsys := model.NewSystem(sys.Init, sys.Txns...)
		vars := []*variant{
			{name: "every=1", c: mk(1, false)},
			{name: "every=3", c: mk(3, false)},
			{name: "every=16", c: mk(16, false)},
			{name: "full-replay", c: mk(128, true)},
			mkWAL(3, false),
			mkWAL(16, true),
			{name: "truncate+retire", retire: rsys,
				c: &diskCore{Core: recovery.New(len(rsys.Txns), rsys.Init, policy.Unrestricted{}.NewMonitor(rsys), 1)}},
		}
		base := vars[0].c

		// The victims of the two compaction rounds are drawn now (the same
		// draws, in the same order, as when they were drawn per round) so
		// that the truncating variant can keep them unsettled, as a runtime
		// keeps an active transaction.
		victimOf := [2]int{rng.Intn(len(sys.Txns)), rng.Intn(len(sys.Txns))}
		lastEv := make([]int, len(sys.Txns)) // index in sched of each transaction's last event
		for i, ev := range sched {
			lastEv[int(ev.T)] = i
		}
		fed, round := 0, 0
		settled := func(tn int) bool {
			for _, v := range victimOf[round:] {
				if v == tn {
					return false
				}
			}
			return lastEv[tn] < fed
		}
		truncate := func() {
			for _, v := range vars {
				if v.retire != nil && v.c.Truncate(settled) > 0 {
					truncations++
					v.retire.Retire(v.c.Floor())
					v.c.Grow(len(v.retire.Txns))
				}
			}
		}

		// restartWAL tears down every restart-flagged variant — as a
		// crash would, without sealing the WAL — and rebuilds it from
		// its directory.
		restartWAL := func(phase string) {
			for _, v := range vars {
				if !v.restart {
					continue
				}
				dir := v.st.Dir()
				v.st.Close()
				st, rec, err := recovery.Open(dir, recovery.Options{})
				if err != nil {
					t.Fatalf("seed %d %s after %s: reopen: %v", seed, v.name, phase, err)
				}
				c, err := rebuild(rec, len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 16)
				if err != nil {
					t.Fatalf("seed %d %s after %s: restore: %v", seed, v.name, phase, err)
				}
				v.c, v.st = &diskCore{Core: c, p: st}, st
			}
		}

		erased := map[int]bool{}
		feed := func(evs model.Schedule) {
			for _, ev := range evs {
				fed++
				if erased[int(ev.T)] {
					continue
				}
				// All cores hold identical states (asserted below), so this
				// skip decision is shared.
				if ev.S.Op.IsData() && !base.State().Defined(ev.S) {
					continue
				}
				for _, v := range vars {
					if err := v.c.Append(ev); err != nil {
						t.Fatalf("seed %d %s: append %v: %v", seed, v.name, ev, err)
					}
				}
				truncate()
			}
		}
		agree := func(phase string) {
			for _, v := range vars[1:] {
				// A truncating variant keeps the base log minus what it cut.
				kept := base.Events()[min(v.c.Stats().Truncated, base.Len()):]
				if got, want := v.c.Events().String(), kept.String(); got != want {
					t.Fatalf("seed %d %s after %s: log\n%s\nwant\n%s", seed, v.name, phase, got, want)
				}
				if !v.c.State().Equal(base.State()) {
					t.Fatalf("seed %d %s after %s: state %v, want %v", seed, v.name, phase, v.c.State(), base.State())
				}
				if got, want := v.c.Monitor().Key(), base.Monitor().Key(); got != want {
					t.Fatalf("seed %d %s after %s: monitor key %q, want %q", seed, v.name, phase, got, want)
				}
				got, want := v.c.Events().Serializable(sys), base.Events().Serializable(sys)
				if v.retire != nil && !want {
					continue // the verdict on a suffix of a non-serializable log is not determined
				}
				if got != want {
					t.Fatalf("seed %d %s after %s: serializability verdict %v, want %v", seed, v.name, phase, got, want)
				}
			}
		}

		half := len(sched) / 2
		feed(sched[:half])
		agree("first half")
		restartWAL("first half")
		agree("restart after first half")

		// Two compaction rounds with an append phase between them, so the
		// second round exercises replay-time checkpoints and truncated
		// event indices.
		for ; round < 2; round++ {
			victim := victimOf[round]
			var baseCascades []int
			for i, v := range vars {
				victims := map[int]bool{victim: true}
				cascades := compactAll(t, v.c, victims)
				if i == 0 {
					baseCascades = cascades
					for x := range victims {
						erased[x] = true
					}
					continue
				}
				if fmt.Sprint(cascades) != fmt.Sprint(baseCascades) {
					t.Fatalf("seed %d %s round %d: cascades %v, want %v", seed, v.name, round, cascades, baseCascades)
				}
			}
			agree(fmt.Sprintf("compaction round %d", round))
			truncate()
			agree(fmt.Sprintf("truncation after compaction round %d", round))
			if round == 0 {
				restartWAL("compaction round 0")
				agree("restart after compaction round 0")
				feed(sched[half:])
				agree("second half")
			}
		}
		for _, v := range vars {
			if v.st == nil {
				continue
			}
			if err := v.c.err; err != nil {
				t.Fatalf("seed %d %s: persist error: %v", seed, v.name, err)
			}
			v.st.Close()
		}
		retired += rsys.Floor()
	}
	t.Logf("truncating variant: %d truncations, %d transactions retired", truncations, retired)
	if truncations < 50 || retired < 80 {
		t.Fatalf("the truncating variant truncated %d times and retired %d transactions over 60 seeds; the dimension is not exercised", truncations, retired)
	}
}

// TestCheckpointedRecoveryIsSuffixBounded pins the asymptotic claim: on a
// long log, erasing a recent transaction replays a bounded suffix under
// checkpointed recovery but nearly the whole log under full replay.
func TestCheckpointedRecoveryIsSuffixBounded(t *testing.T) {
	const txns = 10_000
	init := model.NewState("a")
	events := make(model.Schedule, txns)
	for i := range events {
		events[i] = model.Ev{T: model.TID(i), S: model.W("a")}
	}

	ck := recovery.New(txns, init, model.PermissiveMonitor{}, 1)
	full := recovery.New(txns, init, model.PermissiveMonitor{}, 1)
	full.SetFullReplay(true)
	for _, ev := range events {
		if err := ck.Append(ev); err != nil {
			t.Fatal(err)
		}
		if err := full.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if n := ck.Checkpoints(); n > 65 {
		t.Fatalf("doubling schedule must bound retained checkpoints, got %d", n)
	}

	// Erase the most recent transaction from both.
	if ok, _ := ck.Compact(map[int]bool{txns - 1: true}); !ok {
		t.Fatal("checkpointed compact failed")
	}
	if ok, _ := full.Compact(map[int]bool{txns - 1: true}); !ok {
		t.Fatal("full compact failed")
	}
	ckN, fullN := ck.Stats().Replayed, full.Stats().Replayed
	if fullN != txns-1 {
		t.Fatalf("full replay must walk the whole surviving log: replayed %d, want %d", fullN, txns-1)
	}
	// With interval doubling the effective interval for a 10k log is at
	// most 512, so the replayed suffix stays far below the log length.
	if ckN > 1024 {
		t.Fatalf("checkpointed replay not suffix-bounded: replayed %d of %d", ckN, txns)
	}
	if ck.Len() != full.Len() || ck.Len() != txns-1 {
		t.Fatalf("logs diverge: %d vs %d", ck.Len(), full.Len())
	}
}

// TestAppendAppliedMatchesAppend pins the batched path the striped
// runtime gate uses: stepping the live monitor/state by hand and feeding
// the core through AppendAppliedTagged batches must leave the same log,
// indices (observed through Compact) and live world as per-event Append,
// and later compactions must behave identically on both.
func TestAppendAppliedMatchesAppend(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys, sched := workload.Random(rng, workload.DefaultConfig())
		if len(sched) == 0 {
			continue
		}
		mon := func() model.Monitor { return policy.Unrestricted{}.NewMonitor(sys) }

		ref := recovery.New(len(sys.Txns), sys.Init, mon(), 4)
		bat := recovery.New(len(sys.Txns), sys.Init, mon(), 4)
		var pending model.Schedule
		flush := func() {
			bat.AppendAppliedTagged(pending, nil)
			pending = pending[:0]
		}
		for _, ev := range sched {
			if err := ref.Append(ev); err != nil {
				t.Fatal(err)
			}
			// The batched discipline: the caller advances the live world
			// itself, the core only records.
			if err := bat.Monitor().Step(ev); err != nil {
				t.Fatal(err)
			}
			bat.State().Apply(ev.S)
			pending = append(pending, ev)
			if len(pending) >= 3 {
				flush()
			}
		}
		flush()

		if got, want := bat.Events().String(), ref.Events().String(); got != want {
			t.Fatalf("seed %d: logs diverge:\n%s\nwant\n%s", seed, got, want)
		}
		if !bat.State().Equal(ref.State()) {
			t.Fatalf("seed %d: states diverge", seed)
		}
		if bat.Checkpoints() == 1 && ref.Checkpoints() > 1 {
			t.Fatalf("seed %d: batched path took no checkpoints", seed)
		}

		// Both must compact a victim identically (evIdx equivalence).
		victim := int(sched[len(sched)/2].T)
		refCasc := compactAll(t, ref, map[int]bool{victim: true})
		batCasc := compactAll(t, bat, map[int]bool{victim: true})
		if fmt.Sprint(refCasc) != fmt.Sprint(batCasc) {
			t.Fatalf("seed %d: cascades %v, want %v", seed, batCasc, refCasc)
		}
		if got, want := bat.Events().String(), ref.Events().String(); got != want {
			t.Fatalf("seed %d: post-compact logs diverge:\n%s\nwant\n%s", seed, got, want)
		}
	}
}
