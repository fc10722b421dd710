package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

// TestTruncationEquivalenceRandomTraces is the retired ≡ never-retired
// arm of the partition equivalence test: the same traces through 1, 2
// and 8 partitions with TruncateLog on must commit and abandon the same
// transactions, count the same aborts, leave the same structural state
// and reach the same verdict as the untruncated reference drive. Each
// system is driven twice: by its random interleaving, where nearly every
// boundary has a straddler, and body by body, where the floor follows
// the commits.
func TestTruncationEquivalenceRandomTraces(t *testing.T) {
	wl := workload.DefaultConfig()
	wl.PStructural = 0
	wl.Txns, wl.Steps, wl.Entities, wl.InitPresent = 12, 60, 8, 8
	truncated := 0
	for _, pol := range []policy.Policy{policy.Unrestricted{}, policy.TwoPhase{}} {
		for seed := int64(0); seed < 25; seed++ {
			sys, sched := workload.Random(rand.New(rand.NewSource(seed)), wl)
			if len(sched) == 0 {
				continue
			}
			for _, trace := range []model.Schedule{sched, model.SerialSystem(sys)} {
				ref, err := ReplayTrace(sys, trace, Config{Policy: pol, GateStripes: 1, CheckpointEvery: 3}, true)
				if err != nil {
					t.Fatalf("%s seed %d: %v", pol.Name(), seed, err)
				}
				want := ref.Outcome()
				for _, parts := range []int{1, 2, 8} {
					cfg := Config{Policy: pol, GateStripes: 8, CheckpointEvery: 3, Partitions: parts, TruncateLog: true}
					ins, err := driveSessions(sys, trace, cfg, true)
					if err != nil {
						t.Fatalf("%s seed %d partitions %d: %v", pol.Name(), seed, parts, err)
					}
					got := ins.Outcome()
					if ins.MonitorKey == "(truncated)" {
						truncated++
					}
					if got != want {
						t.Fatalf("%s seed %d: %d truncating partitions diverge from the untruncated reference:\n--- truncating ---\n%s\n--- reference ---\n%s",
							pol.Name(), seed, parts, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d of 300 drives truncated", truncated)
	if truncated < 100 {
		t.Fatalf("only %d of 300 drives truncated; the arm is not exercised", truncated)
	}
}

// TestResumeBelowFloor: rows retire, outcomes do not. After hundreds of
// sessions have settled and every partition's monitor window has moved
// far above them, Resume of an early sid still answers ErrSessionDone
// naming how the transaction ended, and Close verifies the retained
// suffix.
func TestResumeBelowFloor(t *testing.T) {
	for _, parts := range []int{1, 2, 8} {
		ents := spanningEntities(t, parts)
		pe := NewSessionEngine(model.NewState(ents...), Config{
			// An interval of one body, so that snapshots fall between bodies.
			Policy: policy.TwoPhase{}, Partitions: parts, TruncateLog: true, CheckpointEvery: 3,
		}).(*PartitionedEngine)
		const rounds = 400
		sids := make([]int, rounds)
		tokens := make([]uint64, rounds)
		for i := 0; i < rounds; i++ {
			e := ents[i%parts]
			s, err := pe.OpenSession(model.NewTxn("L", model.LX(e), model.W(e), model.UX(e)))
			if err != nil {
				t.Fatal(err)
			}
			sids[i], tokens[i] = s.SID(), s.Token()
			if i%7 == 3 {
				if err := s.Step(model.LX(e)); err != nil {
					t.Fatal(err)
				}
				err = s.Abort()
			} else {
				err = s.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for p, r := range pe.parts {
			r.gate.drain()
			floor, n, key := r.sys.Floor(), len(r.sys.Txns), r.rec.Monitor().Key()
			r.gate.undrain()
			if floor < n-20 || !strings.HasPrefix(key, fmt.Sprintf("@%d:", floor)) {
				t.Fatalf("%d partitions, partition %d: floor %d of %d transactions, monitor key %q; want the window to start at a floor near the end", parts, p, floor, n, key)
			}
		}
		for _, i := range []int{0, 3, 10, 50} {
			_, err := pe.Resume(sids[i], tokens[i])
			want := "committed"
			if i%7 == 3 {
				want = "was abandoned"
			}
			if !errors.Is(err, ErrSessionDone) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%d partitions: Resume(sid %d) = %v, want ErrSessionDone naming %q", parts, sids[i], err, want)
			}
		}
		res, err := pe.Close()
		if err != nil {
			t.Fatalf("%d partitions: Close: %v", parts, err)
		}
		if want := rounds - (rounds+3)/7; res.Metrics.Commits != want {
			t.Fatalf("%d partitions: Commits = %d, want %d", parts, res.Metrics.Commits, want)
		}
	}
}

// TestAgingFlatByCount runs the benchmark's disjoint bodies from two
// goroutines against an in-process truncating engine and counts, not
// times. Sampled every 1,000 commits up to 20,000: the bytes allocated
// per 1,000 commits late in the run are within 1.5× of early in it (the
// median of the five thousands after commit 1k against the median of the
// five before commit 20k — single thousands differ by the length the log
// happens to have when it is next copied); the live monitor's window is
// at most 512 transactions in the median sample and never more than a
// quarter of those opened — it is not tighter because a boundary only
// separates cleanly when the other client is between bodies, so how often
// the floor moves is luck, and ROADMAP item 1 says what would fix that;
// and Close verifies a bounded suffix in one linear pass. At the parent
// commit the late thousands allocated eleven times the early ones (845 MB
// against 9.3 GB per 1,000 commits; 17 MB here).
func TestAgingFlatByCount(t *testing.T) {
	const (
		clients = 2
		samples = 20
		commits = samples * 1000
	)
	bodies, universe := workload.ClientBodies(rand.New(rand.NewSource(1)), "disjoint", clients, 16, 1, false)
	pe := NewSessionEngine(model.NewState(universe...), Config{
		Policy: policy.TwoPhase{}, Shards: 16, GateStripes: 16, TruncateLog: true,
	}).(*PartitionedEngine)
	r := pe.parts[0]

	var done atomic.Int64
	var allocAt, window [samples + 1]uint64 // written by whoever lands on the thousand
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(body model.Txn) {
			defer wg.Done()
			for done.Load() < commits {
				s, err := pe.OpenSession(body)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Run(); err != nil {
					t.Error(err)
					return
				}
				if n := done.Add(1); n%1000 == 0 && n <= commits {
					var ms goruntime.MemStats
					goruntime.ReadMemStats(&ms)
					allocAt[n/1000] = ms.TotalAlloc
					r.gate.drain()
					window[n/1000] = uint64(len(r.sys.Txns) - r.sys.Floor())
					r.gate.undrain()
				}
			}
		}(bodies[c][0])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	median := func(xs []uint64) uint64 {
		xs = append([]uint64(nil), xs...)
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs[len(xs)/2]
	}
	var per []uint64 // bytes allocated in the thousand ending at sample k+2
	for k := 1; k < samples; k++ {
		per = append(per, allocAt[k+1]-allocAt[k])
	}
	early, late := median(per[:5]), median(per[len(per)-5:])
	t.Logf("allocated per 1,000 commits: %d kB early, %d kB late; monitor window median %d, widest %d transactions",
		early>>10, late>>10, median(window[1:]), slices.Max(window[1:]))
	if float64(late) > 1.5*float64(early) || float64(early) > 1.5*float64(late) {
		t.Errorf("allocation per 1,000 commits moved from %d to %d bytes between the start and the end of the run; want within 1.5x", early, late)
	}
	if med, widest := median(window[1:]), slices.Max(window[1:]); med > 512 || widest > commits/4 {
		t.Errorf("the monitor window was %d transactions in the median sample and %d at its widest; want at most 512 and %d", med, widest, commits/4)
	}
	res, err := pe.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The verdict is one pass: Serializable adds at most two edges per
	// retained event and Acyclic pops each node and visits each edge once
	// (TestSerializableMatchesGraph, TestAcyclicIsLinear), so its cost is
	// bounded by the transactions opened plus the suffix verified.
	if opened := len(r.sys.Txns); len(res.Schedule) > 48*commits/4 || opened > commits+clients {
		t.Errorf("Close verified %d events over %d transactions; want the suffix of at most a quarter of the %d bodies", len(res.Schedule), opened, commits)
	}
}
