package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"locksafe/internal/model"
	"locksafe/internal/workload"
)

// driveMode is how a client drives one declared transaction.
type driveMode int

const (
	// modeRun ships the body once (client.Run); the server drives it.
	modeRun driveMode = iota
	// modeStep opens a session and makes one round trip per step.
	modeStep
	// modePipelined opens a session and pipelines steps and commit.
	modePipelined
)

// workloadDef is one named workload. The names are fixed: later changes
// cite them.
type workloadDef struct {
	Name string
	// Why is the one-line reason BENCHMARK.json carries.
	Why        string
	Mode       driveMode
	Durable    bool
	Partitions int
	// gen builds the per-client scripts and the entity universe of the
	// server's initial state from the seeded rng and nothing else.
	gen func(rng *rand.Rand, clients, perClient int) ([][]model.Txn, []model.Entity)
}

// scriptLen is the number of bodies generated per client. A client that
// runs through its script starts it again, so the benchmark keeps working
// at any commit rate; at today's rates (about 5,000 commits per client in
// a whole run) no script wraps. It is kept small because client and
// server share one heap: the scripts are live data every GC cycle scans.
const scriptLen = 1 << 13

var workloads = []workloadDef{
	{
		Name: "disjoint-run",
		Why:  "private 16-entity bodies in stored-procedure mode: no conflicts and one round trip, so runtime, policy and the recovery core do the work",
		Mode: modeRun, Partitions: 1,
		gen: func(rng *rand.Rand, clients, n int) ([][]model.Txn, []model.Entity) {
			return workload.ClientBodies(rng, "disjoint", clients, 16, n, false)
		},
	},
	{
		Name: "zipf-step",
		Why:  "8 Zipf(1.4) locks from a shared 64-pool, one round trip per step: client, wire, server and lock waits dominate, the engine does little",
		Mode: modeStep, Partitions: 1,
		gen: func(rng *rand.Rand, clients, n int) ([][]model.Txn, []model.Entity) {
			return workload.ClientBodies(rng, "zipf", clients, 16, n, false)
		},
	},
	{
		Name: "disjoint-run-fsync",
		Why:  "disjoint-run against a durable server with fsync on: the recovery store dominates, and the gap to disjoint-run is the price of durability",
		Mode: modeRun, Durable: true, Partitions: 1,
		gen: func(rng *rand.Rand, clients, n int) ([][]model.Txn, []model.Entity) {
			return workload.ClientBodies(rng, "disjoint", clients, 16, n, false)
		},
	},
	{
		Name: "shuffle-abort",
		Why:  "4 shared entities locked in a seeded random order per body: deadlocks, so compaction, lock sweeps and abort/retry run instead of the straight path",
		Mode: modeStep, Partitions: 1,
		gen: shuffleBodies,
	},
	{
		Name: "churn-part2",
		Why:  "INSERT/DELETE batches plus one hot write on 2 partitions, pipelined: structural events force full and cross-partition gate drains",
		Mode: modePipelined, Partitions: 2,
		gen: func(rng *rand.Rand, clients, n int) ([][]model.Txn, []model.Entity) {
			sc, _ := workload.ScenarioByName("churn")
			run := sc.Gen(rng, workload.ScenarioConfig{Clients: clients, Rounds: n})
			scripts := make([][]model.Txn, len(run.Scripts))
			for c, script := range run.Scripts {
				for _, st := range script {
					scripts[c] = append(scripts[c], st.Txn)
				}
			}
			return scripts, run.Universe
		},
	},
}

// shuffleBodies is the shuffle-abort generator: every body is the strict
// two-phase walk over the same four entities in its own random order, so
// two clients regularly request them in opposing orders and deadlock.
func shuffleBodies(rng *rand.Rand, clients, n int) ([][]model.Txn, []model.Entity) {
	pool := make([]model.Entity, 4)
	for i := range pool {
		pool[i] = model.Entity(fmt.Sprintf("s%d", i))
	}
	scripts := make([][]model.Txn, clients)
	for k := 0; k < n; k++ {
		for c := range scripts {
			ents := make([]model.Entity, len(pool))
			for i, p := range rng.Perm(len(pool)) {
				ents[i] = pool[p]
			}
			scripts[c] = append(scripts[c], model.Txn{Steps: workload.TwoPhaseSteps(ents)})
		}
	}
	return scripts, pool
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// generate builds a workload's inputs from the seed and names every body
// by its index across the scripts (client c's k-th body is k*clients+c),
// which is how the traced run's server-side seams tell which transaction
// an event belongs to.
func (w workloadDef) generate(seed int64, clients, perClient int) ([][]model.Txn, []model.Entity) {
	scripts, universe := w.gen(rand.New(rand.NewSource(seed)), clients, perClient)
	for c := range scripts {
		for k := range scripts[c] {
			scripts[c][k].Name = strconv.Itoa(k*clients + c)
		}
	}
	return scripts, universe
}
