package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
)

// TestEngineTruncationBoundsLog: with TruncateLog on, a long sequence of
// settled transactions keeps the retained log a bounded suffix while the
// Events metric still counts the full history, and Close still verifies
// the retained suffix.
func TestEngineTruncationBoundsLog(t *testing.T) {
	init := model.NewState("x")
	pe := NewSessionEngine(init, Config{Policy: policy.TwoPhase{}, TruncateLog: true, CheckpointEvery: 2}).(*PartitionedEngine)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		s, err := pe.OpenSession(model.NewTxn("T", model.LX("x"), model.W("x"), model.UX("x")))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	m := pe.Stats()
	if m.Events != 3*rounds {
		t.Fatalf("Events = %d, want %d (truncation must not lose the count)", m.Events, 3*rounds)
	}
	if retained := pe.parts[0].rec.Len(); retained >= 3*rounds/2 {
		t.Fatalf("retained log %d events of %d: truncation never fired", retained, 3*rounds)
	}
	if tr := pe.parts[0].rec.Stats().Truncated; tr == 0 {
		t.Fatal("Stats().Truncated = 0, want > 0")
	}
	res, err := pe.Close()
	if err != nil {
		t.Fatalf("Close after truncation: %v", err)
	}
	if res.Metrics.Commits != rounds {
		t.Fatalf("Commits = %d, want %d", res.Metrics.Commits, rounds)
	}
}

// TestPartitionedTruncation: the same bound holds per partition under
// the partitioned engine, for local and cross-partition traffic mixed.
func TestPartitionedTruncation(t *testing.T) {
	ents := spanningEntities(t, 2)
	init := model.NewState(ents...)
	pe := NewSessionEngine(init, Config{
		Policy: policy.TwoPhase{}, Partitions: 2, TruncateLog: true, CheckpointEvery: 2,
	}).(*PartitionedEngine)
	const rounds = 120
	for i := 0; i < rounds; i++ {
		e := ents[i%2]
		tx := model.NewTxn("L", model.LX(e), model.W(e), model.UX(e))
		if i%5 == 0 { // every fifth transaction spans both partitions
			tx = model.NewTxn("G",
				model.LX(ents[0]), model.LX(ents[1]),
				model.W(ents[0]), model.W(ents[1]),
				model.UX(ents[0]), model.UX(ents[1]))
		}
		s, err := pe.OpenSession(tx)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	truncated := 0
	for _, part := range pe.parts {
		truncated += part.rec.Stats().Truncated
	}
	if truncated == 0 {
		t.Fatal("no partition ever truncated its log")
	}
	res, err := pe.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res.Metrics.Commits != rounds {
		t.Fatalf("Commits = %d, want %d", res.Metrics.Commits, rounds)
	}
}

// TestTruncatedEventsCountedOnce: Stats().Events counts every event
// once whether truncation cut it or not — a cross-partition event cut
// from every partition's log included. A TruncateLog run must read what
// its untruncated twin reads.
func TestTruncatedEventsCountedOnce(t *testing.T) {
	ents := spanningEntities(t, 2)
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			events := func(truncate bool) int {
				pe := NewSessionEngine(model.NewState(ents...), Config{
					Policy: policy.TwoPhase{}, Partitions: parts, TruncateLog: truncate, CheckpointEvery: 2,
				}).(*PartitionedEngine)
				const rounds = 200
				for i := 0; i < rounds; i++ {
					tx := spanTxn("G", ents[0], ents[1])
					if i%2 == 0 {
						tx = rwTxn("L", ents[i/2%2])
					}
					s, err := pe.OpenSession(tx)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Run(); err != nil {
						t.Fatal(err)
					}
				}
				for p, part := range pe.parts {
					if truncate && part.rec.Stats().Truncated == 0 {
						t.Fatalf("partition %d never truncated", p)
					}
				}
				n := pe.Stats().Events
				if _, err := pe.Close(); err != nil {
					t.Fatal(err)
				}
				return n
			}
			want := events(false)
			if got := events(true); got != want {
				t.Fatalf("Events = %d with TruncateLog, %d without", got, want)
			}
		})
	}
}

// spanningEntities returns n entities, one homed in each of n
// partitions, so tests can build bodies that provably span partitions.
func spanningEntities(t *testing.T, n int) []model.Entity {
	t.Helper()
	out := make([]model.Entity, n)
	found := 0
	for i := 0; found < n && i < 10000; i++ {
		e := model.Entity(fmt.Sprintf("e%d", i))
		if p := model.PartitionOf(e, n); out[p] == "" {
			out[p] = e
			found++
		}
	}
	if found != n {
		t.Fatalf("could not find entities covering %d partitions", n)
	}
	return out
}

// TestPartitionCancelReapStress is the cross-partition teardown race
// test: client-paced sessions spanning two partitions are cancelled and
// lease-reaped mid-step — including while parked inside the
// cross-partition drain's lock acquisitions — concurrently with
// partition-local commit traffic. The engine must not deadlock, and the
// session accounting must balance at Close: every session that was ever
// opened ends exactly once, as a commit or a give-up.
func TestPartitionCancelReapStress(t *testing.T) {
	ents := spanningEntities(t, 2)
	init := model.NewState(ents...)
	pe := NewSessionEngine(init, Config{
		Policy:     policy.TwoPhase{},
		Partitions: 2,
		Lease:      25 * time.Millisecond, // real clock: the reaper runs
		MaxRetries: 3,
	}).(*PartitionedEngine)
	var opened atomic.Int64
	var wg sync.WaitGroup
	cross := model.NewTxn("G",
		model.LX(ents[0]), model.LX(ents[1]),
		model.W(ents[0]), model.W(ents[1]),
		model.UX(ents[0]), model.UX(ents[1]))
	deadline := time.Now().Add(400 * time.Millisecond)

	// Local commit traffic on both partitions.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := ents[w%2]
			for time.Now().Before(deadline) {
				s, err := pe.OpenSession(model.NewTxn("L", model.LX(e), model.W(e), model.UX(e)))
				if err != nil {
					return // engine closing
				}
				opened.Add(1)
				_ = s.Run()
			}
		}(w)
	}
	// Cross-partition sessions, stepped partway then cancelled mid-flight
	// (concurrently with the in-flight Step) or abandoned to the reaper.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) {
				s, err := pe.OpenSession(cross)
				if err != nil {
					return
				}
				opened.Add(1)
				switch rng.Intn(3) {
				case 0: // drive to commit (or abort/abandon)
					_ = s.Run()
				case 1: // step partway, cancel concurrently mid-step
					var sw sync.WaitGroup
					sw.Add(1)
					go func() {
						defer sw.Done()
						time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
						s.Cancel()
					}()
					for _, st := range cross.Steps {
						if err := s.Step(st); err != nil {
							break
						}
					}
					sw.Wait()
					s.Cancel() // idempotent: the session may have finished
				default: // step partway, walk away; the lease reaper ends it
					for i, st := range cross.Steps[:1+rng.Intn(3)] {
						if err := s.Step(st); err != nil {
							break
						}
						_ = i
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Wait out the reaper for abandoned sessions, then close.
	for i := 0; pe.OpenSessions() > 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	res, err := pe.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	m := res.Metrics
	if got, want := int64(m.Commits+m.GaveUp), opened.Load(); got != want {
		t.Fatalf("accounting does not balance: commits(%d) + gaveup(%d) = %d, opened %d",
			m.Commits, m.GaveUp, got, want)
	}
	if errs := sessErrsSanity(m); errs != nil {
		t.Fatal(errs)
	}
}

// sessErrsSanity cross-checks metric invariants that must hold whatever
// the interleaving.
func sessErrsSanity(m Metrics) error {
	if m.Commits < 0 || m.GaveUp < 0 || m.Aborts() < 0 {
		return errors.New("negative counters")
	}
	return nil
}
