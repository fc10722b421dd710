package workload

import (
	"fmt"
	"math/rand"

	"locksafe/internal/model"
)

// This file is the network-mode workload support shared by the E16
// lockd-throughput experiment, `lockbench -net` and the bench module:
// per-client two-phase transaction bodies in the two canonical
// contention shapes.
//
//   - disjoint: every client works a private entity set — zero
//     conflicts, the striping/parallelism best case;
//   - zipf: clients draw their entity sets Zipf-skewed from a shared
//     pool, so footprints and locks collide on the hot head — the
//     realistic contended case.

// DisjointTxns returns one strict two-phase transaction per client,
// client i over its private entities "t<i>_0".."t<i>_<perTxn-1>", plus
// the full entity universe for the initial state. Nothing can conflict,
// so every admission is footprint-disjoint and every lock grant
// immediate.
func DisjointTxns(clients, perTxn int) ([]model.Txn, []model.Entity) {
	var txns []model.Txn
	var all []model.Entity
	for i := 0; i < clients; i++ {
		var own []model.Entity
		for j := 0; j < perTxn; j++ {
			own = append(own, model.Entity(fmt.Sprintf("t%d_%d", i, j)))
		}
		all = append(all, own...)
		txns = append(txns, model.Txn{Name: fmt.Sprintf("C%d", i+1), Steps: TwoPhaseSteps(own)})
	}
	return txns, all
}

// LockOnlySteps builds the strict two-phase walk over the given
// entities with no data operations: lock everything in order, release
// everything. Pure locking traffic is independent of the structural
// state — it neither reads nor writes entities — so these bodies run
// against any lockd instance regardless of its -init configuration;
// lockbench's external network mode uses them.
func LockOnlySteps(ents []model.Entity) []model.Step {
	var steps []model.Step
	for _, e := range ents {
		steps = append(steps, model.LX(e))
	}
	for _, e := range ents {
		steps = append(steps, model.UX(e))
	}
	return steps
}

// ClientBodies builds each network client's transaction sequence for
// one benchmark cell: rounds transactions per client in the named
// workload shape ("disjoint" or "zipf"), plus the entity universe for
// the server's initial state. Disjoint bodies lock perTxn private
// entities; zipf bodies lock perTxn/2 entities drawn Zipf(1.4)-skewed
// from a shared 64-entity pool, redrawn each round. With lockOnly the
// bodies are pure locking traffic (LockOnlySteps), runnable against any
// externally-started lockd regardless of its -init; the bodies are
// transport-mode agnostic — per-step, pipelined and stored-procedure
// clients all drive the same declared text.
func ClientBodies(rng *rand.Rand, wl string, clients, perTxn, rounds int, lockOnly bool) ([][]model.Txn, []model.Entity) {
	bodies := make([][]model.Txn, clients)
	for i := range bodies {
		bodies[i] = make([]model.Txn, 0, rounds)
	}
	var universe []model.Entity
	switch wl {
	case "disjoint":
		txns, all := DisjointTxns(clients, perTxn)
		universe = all
		for i := range bodies {
			one := txns[i]
			if lockOnly {
				one = model.Txn{Name: one.Name, Steps: LockOnlySteps(TxnEntities(one))}
			}
			for r := 0; r < rounds; r++ {
				bodies[i] = append(bodies[i], one)
			}
		}
	case "zipf":
		pool := ZipfPool(64)
		universe = pool
		for r := 0; r < rounds; r++ {
			txns := ZipfTxns(rng, pool, clients, perTxn/2, 1.4)
			for i := range bodies {
				one := txns[i]
				if lockOnly {
					one = model.Txn{Name: one.Name, Steps: LockOnlySteps(TxnEntities(one))}
				}
				bodies[i] = append(bodies[i], one)
			}
		}
	}
	return bodies, universe
}

// TxnEntities lists the distinct entities a transaction locks, in lock
// order.
func TxnEntities(tx model.Txn) []model.Entity {
	var out []model.Entity
	for _, st := range tx.Steps {
		if st.Op.IsLock() {
			out = append(out, st.Ent)
		}
	}
	return out
}

// ZipfPool returns the shared hot-key entity pool of the zipf workload
// shape: poolSize entities "z00".."zNN", rank 0 hottest.
func ZipfPool(poolSize int) []model.Entity {
	pool := make([]model.Entity, poolSize)
	for i := range pool {
		pool[i] = model.Entity(fmt.Sprintf("z%02d", i))
	}
	return pool
}

// ZipfTxns returns one strict two-phase transaction per client, each
// over k entities drawn Zipf(s)-skewed from pool (ZipfSubset, so the
// subsets come back in pool order, which doubles as a deadlock-free
// lock order while the hot head keeps footprints overlapping).
func ZipfTxns(rng *rand.Rand, pool []model.Entity, clients, k int, s float64) []model.Txn {
	var txns []model.Txn
	for i := 0; i < clients; i++ {
		sub := ZipfSubset(rng, pool, k, s)
		txns = append(txns, model.Txn{Name: fmt.Sprintf("C%d", i+1), Steps: TwoPhaseSteps(sub)})
	}
	return txns
}
