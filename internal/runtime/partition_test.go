package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	"locksafe/internal/workload"
)

// TestPartitionOfStable pins the entity hash: routing is a pure
// function of the entity name and the partition count, so a session's
// home partition never depends on engine state. A data directory written
// with -partitions n homes its entities by this hash, so the literal
// values below (FNV-1a modulo n) must never change.
func TestPartitionOfStable(t *testing.T) {
	if model.PartitionOf("e1", 1) != 0 || model.PartitionOf("e1", 0) != 0 {
		t.Fatal("n<=1 must route everything to partition 0")
	}
	for _, c := range []struct {
		e    model.Entity
		want [4]int // n = 2, 4, 8, 16
	}{
		{"a", [4]int{0, 0, 4, 12}},
		{"b", [4]int{1, 1, 5, 5}},
		{"x", [4]int{1, 3, 7, 7}},
		{"y", [4]int{0, 0, 4, 4}},
		{"e0", [4]int{0, 0, 0, 0}},
		{"e1", [4]int{1, 3, 3, 3}},
		{"e17", [4]int{0, 0, 4, 12}},
		{"k42", [4]int{0, 0, 0, 8}},
		{"entity-with-a-long-name", [4]int{0, 0, 4, 12}},
		{"cl3-9", [4]int{1, 1, 1, 1}},
	} {
		for i, n := range []int{2, 4, 8, 16} {
			if p := model.PartitionOf(c.e, n); p != c.want[i] {
				t.Errorf("PartitionOf(%q, %d) = %d, want %d", c.e, n, p, c.want[i])
			}
		}
	}
	for n := 2; n <= 8; n *= 2 {
		for i := 0; i < 100; i++ {
			e := model.Entity(fmt.Sprintf("e%d", i))
			p := model.PartitionOf(e, n)
			if p < 0 || p >= n {
				t.Fatalf("PartitionOf(%q, %d) = %d out of range", e, n, p)
			}
			if q := model.PartitionOf(e, n); q != p {
				t.Fatalf("PartitionOf(%q, %d) unstable: %d then %d", e, n, p, q)
			}
		}
	}
}

// TestPartitionEquivalenceRandomTraces is the pinning property test for
// the partitioned engine: on randomized traces the serialized gate, the
// striped gate and the partitioned engine at 1, 2 and 8 partitions must
// be observably identical — same merged logs (global events collapsed
// to one copy, local owners translated to engine-wide ids), structural
// states, monitor keys, serializability verdicts and abort accounting.
// The single-threaded drive makes the comparison exact: events are
// admitted in feed order everywhere, so the tag-merged partitioned log
// must equal the single engine's log event for event.
func TestPartitionEquivalenceRandomTraces(t *testing.T) {
	arms := []struct {
		name   string
		pol    policy.Policy
		wl     workload.Config
		commit bool
	}{
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
		// Altruistic over structural workloads: donations (LX) are
		// global footprints, INSERT/DELETE are partition-local, so this
		// arm exercises the cross-partition drain, the authoritative
		// home-replica state, and erase-time cascades through mirrors.
		{"altruistic", policy.Altruistic{}, workload.DefaultConfig(), false},
	}
	for _, arm := range arms {
		for seed := int64(0); seed < 25; seed++ {
			sys, sched := workload.Random(rand.New(rand.NewSource(seed)), arm.wl)
			if len(sched) == 0 {
				continue
			}
			base := Config{Policy: arm.pol, GateStripes: 1, CheckpointEvery: 3}
			ref, err := ReplayTrace(sys, sched, base, arm.commit)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arm.name, seed, err)
			}
			want := ref.Digest()
			for _, parts := range []int{1, 2, 8} {
				cfg := Config{Policy: arm.pol, GateStripes: 8, CheckpointEvery: 3, Partitions: parts}
				got, err := driveSessions(sys, sched, cfg, arm.commit)
				if err != nil {
					t.Fatalf("%s seed %d partitions %d: %v", arm.name, seed, parts, err)
				}
				if got.Digest() != want {
					t.Fatalf("%s seed %d: %d partitions diverge from the serialized gate:\n--- partitioned ---\n%s\n--- serialized ---\n%s",
						arm.name, seed, parts, got.Digest(), want)
				}
			}
		}
	}
}

// statusLog records every durable status record a partition's store is
// asked to append, by local row.
type statusLog struct {
	recovery.Persister
	mu  *sync.Mutex
	got map[int][]byte
}

func (l statusLog) AppendStatus(tid int, status byte) error {
	l.mu.Lock()
	l.got[tid] = append(l.got[tid], status)
	l.mu.Unlock()
	return l.Persister.AppendStatus(tid, status)
}

// TestCascadeUnCommitsAndRespawnsAcrossPartitions is the two-partition
// twin of TestCascadeUnCommitsAndRespawns, on rows spanning both
// partitions: T1 inserted x and T2, already committed, read it; aborting
// T1 must cascade into T2, un-commit it in both replicas — durably, in
// both stores — and re-run it, whereupon the re-run finds x undefined
// and gives up. The re-run is a transaction like any other: under
// MPL 1 it executes no step while an attached session holds the slot.
func TestCascadeUnCommitsAndRespawnsAcrossPartitions(t *testing.T) {
	x, y := partitionedEntities(t) // homed in partitions 0 and 1; x starts absent
	var mu sync.Mutex
	var stores []map[int][]byte
	cfg := Config{
		Policy: policy.Unrestricted{}, Partitions: 2, MPL: 1, MaxRetries: 2, Backoff: time.Microsecond,
		DataDir: t.TempDir(),
		WrapPersister: func(p recovery.Persister) recovery.Persister {
			l := statusLog{Persister: p, mu: &mu, got: map[int][]byte{}}
			stores = append(stores, l.got)
			return l
		},
	}
	eng, _, err := NewDurableSessionEngine(model.NewState(y), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pe := eng.(*PartitionedEngine)
	t1 := model.NewTxn("T1", model.LX(x), model.I(x), model.UX(x), model.LX(y), model.W(y), model.UX(y))
	t2 := model.NewTxn("T2", model.LX(x), model.R(x), model.UX(x), model.LX(y), model.R(y), model.UX(y))
	// Each row is opened as a session and parked at once, which hands its
	// MPL slot back; the test drives the rows itself.
	row := func(tx model.Txn) (txn, int) {
		s, err := pe.OpenSession(tx)
		if err != nil {
			t.Fatal(err)
		}
		s.Interrupt()
		if len(s.x.span) != 2 {
			t.Fatalf("%s spans %d partitions, want 2", tx.Name, len(s.x.span))
		}
		gen := s.x.readRow().gen
		for _, st := range tx.Steps {
			if !s.x.execStep(gen, st) {
				t.Fatalf("%s: step %s refused", tx.Name, st)
			}
		}
		return s.x, gen
	}
	x1, _ := row(t1)
	x2, gen2 := row(t2)
	if !x2.commit(gen2) {
		t.Fatal("T2 did not commit")
	}
	holder, err := pe.OpenSession(rwTxn("H", y))
	if err != nil {
		t.Fatal(err)
	}

	// T1 aborts.
	x1.span.drain()
	x1.abortDrained()

	// The re-run of T2 waits for the holder's slot.
	time.Sleep(20 * time.Millisecond)
	if m := pe.Stats(); m.CascadeAborts != 1 || m.Commits != 0 || m.ImproperAborts != 0 {
		t.Fatalf("with the slot held: cascades=%d commits=%d improper=%d, want 1/0/0 (T2 un-committed, its re-run not started)",
			m.CascadeAborts, m.Commits, m.ImproperAborts)
	}
	holder.Interrupt()
	pe.wg.Wait()

	m := pe.Stats()
	if m.CascadeAborts != 1 || m.Commits != 0 || m.GaveUp != 1 || m.ImproperAborts == 0 {
		t.Fatalf("cascades=%d commits=%d gaveup=%d improper=%d, want 1/0/1/>0 (T2's re-run abandons: x never exists)",
			m.CascadeAborts, m.Commits, m.GaveUp, m.ImproperAborts)
	}
	mu.Lock()
	for p, r := range pe.parts {
		t2row := x2.locs[p]
		want := []byte{recovery.StatusCommitted, recovery.StatusActive, recovery.StatusAbandoned}
		if got := stores[p][t2row]; string(got) != string(want) {
			t.Errorf("partition %d: T2's durable statuses %v, want %v (committed, un-committed, abandoned)", p, got, want)
		}
		r.gate.drain()
		if r.status[t2row] != txAbandoned {
			t.Errorf("partition %d: T2's replica is %d, want abandoned", p, r.status[t2row])
		}
		r.gate.undrain()
	}
	mu.Unlock()
	if _, err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	if _, info, err := NewDurableSessionEngine(model.NewState(y), Config{Policy: policy.Unrestricted{}, Partitions: 2, DataDir: cfg.DataDir}); err != nil || info.Commits != 0 {
		t.Fatalf("restore = %+v, %v; want no commits", info, err)
	}
}

// TestSessionCrossPartitionDeadlock: two sessions spanning both
// partitions lock e0 and e1 in opposite orders. The cycle runs through
// both partitions' entities, so only the shared detector sees it: one
// session gets ErrAborted naming the deadlock, the other commits, and
// the drain verdict is clean.
func TestSessionCrossPartitionDeadlock(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	eng := NewSessionEngine(model.NewState(e0, e1), Config{Policy: policy.TwoPhase{}, Partitions: 2, Backoff: -1})
	var ss [2]*Session
	for i, tx := range []model.Txn{spanTxn("A", e0, e1), spanTxn("B", e1, e0)} {
		s, err := eng.OpenSession(tx)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.x.span) != 2 {
			t.Fatalf("%s spans %d partitions, want 2", tx.Name, len(s.x.span))
		}
		if err := s.Step(tx.Steps[0]); err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	var errs [2]error
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Step(s.tx.Steps[1])
		}()
	}
	wg.Wait()
	victim, survivor := 0, 1
	if errs[0] == nil {
		victim, survivor = 1, 0
	}
	if err := errs[victim]; !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("victim's step = %v, want ErrAborted naming the deadlock", err)
	}
	if errs[survivor] != nil {
		t.Fatalf("both steps failed: %v / %v", errs[0], errs[1])
	}
	if err := ss[survivor].Run(); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := ss[victim].Abort(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Close()
	if err != nil {
		t.Fatalf("drain verdict: %v", err)
	}
	if m := res.Metrics; m.Commits != 1 || m.DeadlockAborts != 1 || m.GaveUp != 1 {
		t.Fatalf("commits=%d deadlocks=%d gaveup=%d, want 1/1/1", m.Commits, m.DeadlockAborts, m.GaveUp)
	}
}
