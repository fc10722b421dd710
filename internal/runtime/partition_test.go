package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

// TestPartitionOfStable pins the entity hash: routing is a pure
// function of the entity name and the partition count, so a session's
// home partition never depends on engine state.
func TestPartitionOfStable(t *testing.T) {
	if model.PartitionOf("e1", 1) != 0 || model.PartitionOf("e1", 0) != 0 {
		t.Fatal("n<=1 must route everything to partition 0")
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
				if got != want {
					t.Fatalf("%s seed %d: %d partitions diverge from the serialized gate:\n--- partitioned ---\n%s\n--- serialized ---\n%s",
						arm.name, seed, parts, got, want)
				}
			}
		}
	}
}
