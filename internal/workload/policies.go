package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"locksafe/internal/graph"
	"locksafe/internal/model"
)

// This file generates transaction systems that conform to each locking
// policy: transactions whose lock placement follows the policy's rules, so
// that at least the serial execution in generation order is admissible
// under the policy's monitor. They drive the policy-safety experiment
// (E7) and the performance study (E8).

// PolicyConfig controls the policy-conformant generators.
type PolicyConfig struct {
	// Txns is the number of transactions.
	Txns int
	// OpsPerTxn is the approximate number of entities each transaction
	// accesses.
	OpsPerTxn int
	// Entities is the entity (or DAG node) pool size.
	Entities int
	// PRelease is the probability of releasing a lock early where the
	// policy permits it (making transactions non-two-phase).
	PRelease float64
	// PStructural is the probability of a structural (insert) action in
	// the DDAG workload.
	PStructural float64
}

// DefaultPolicyConfig returns a small configuration suitable for
// exhaustive checking.
func DefaultPolicyConfig() PolicyConfig {
	return PolicyConfig{
		Txns:        3,
		OpsPerTxn:   3,
		Entities:    6,
		PRelease:    0.6,
		PStructural: 0.25,
	}
}

// TwoPhaseSystem generates a random strictly two-phase system: each
// transaction locks all entities it needs (in a random order), operates,
// then releases everything.
func TwoPhaseSystemRandom(rng *rand.Rand, cfg PolicyConfig) *model.System {
	pool := entityPool(cfg.Entities)
	init := model.NewState(pool...)
	txns := make([]model.Txn, cfg.Txns)
	for i := range txns {
		k := 1 + rng.Intn(cfg.OpsPerTxn)
		ents := sampleEntities(rng, pool, k)
		var steps []model.Step
		for _, e := range ents {
			steps = append(steps, model.LX(e))
		}
		for _, e := range ents {
			if rng.Intn(2) == 0 {
				steps = append(steps, model.R(e))
			} else {
				steps = append(steps, model.W(e))
			}
		}
		for _, e := range ents {
			steps = append(steps, model.UX(e))
		}
		txns[i] = model.Txn{Name: fmt.Sprintf("T%d", i+1), Steps: steps}
	}
	return model.NewSystem(init, txns...)
}

// AltruisticSystem generates transactions in the altruistic style: each
// transaction locks a sequence of entities in a globally consistent order,
// performing its operation and then — with probability PRelease —
// donating (unlocking) finished items before acquiring the next lock.
// Donation makes the transactions non-two-phase; rule AL2 is what keeps
// the interleavings safe, and the monitor enforces it at check time.
//
// The global order means serial executions are trivially admissible and
// gives shorter transactions a chance to run entirely inside a longer
// transaction's wake.
func AltruisticSystem(rng *rand.Rand, cfg PolicyConfig) *model.System {
	pool := entityPool(cfg.Entities)
	init := model.NewState(pool...)
	txns := make([]model.Txn, cfg.Txns)
	for i := range txns {
		k := 1 + rng.Intn(cfg.OpsPerTxn)
		ents := sampleEntities(rng, pool, k)
		sort.Slice(ents, func(a, b int) bool { return ents[a] < ents[b] })
		var steps []model.Step
		var pending []model.Entity // locked but not yet released
		for _, e := range ents {
			steps = append(steps, model.LX(e), model.W(e))
			pending = append(pending, e)
			if rng.Float64() < cfg.PRelease {
				for _, d := range pending {
					steps = append(steps, model.UX(d))
				}
				pending = pending[:0]
			}
		}
		for _, d := range pending {
			steps = append(steps, model.UX(d))
		}
		txns[i] = model.Txn{Name: fmt.Sprintf("T%d", i+1), Steps: steps}
	}
	return model.NewSystem(init, txns...)
}

// DTRSystem generates transactions for the dynamic tree policy: each
// transaction accesses a set of entities and is tree-locked with respect
// to the chain that rule DT2 (with this package's deterministic DT1
// choices) builds for it on an empty forest — lock e1, access, lock e2,
// release e1, access, … ("lock-crabbing" down the chain). Transactions
// with three or more entities are non-two-phase.
func DTRSystem(rng *rand.Rand, cfg PolicyConfig) *model.System {
	pool := entityPool(cfg.Entities)
	init := model.NewState(pool...)
	txns := make([]model.Txn, cfg.Txns)
	for i := range txns {
		k := 1 + rng.Intn(cfg.OpsPerTxn)
		ents := sampleEntities(rng, pool, k)
		txns[i] = model.Txn{Name: fmt.Sprintf("T%d", i+1), Steps: DTRChainSteps(ents)}
	}
	return model.NewSystem(init, txns...)
}

// DTRChainSteps builds the tree-locked crabbing walk over the given
// entities viewed as the chain ents[0] <- ents[1] <- …: each lock except
// the first is preceded by its parent's lock and followed by the parent's
// unlock.
func DTRChainSteps(ents []model.Entity) []model.Step {
	var steps []model.Step
	for i, e := range ents {
		steps = append(steps, model.LX(e), model.W(e))
		if i > 0 {
			steps = append(steps, model.UX(ents[i-1]))
		}
	}
	if len(ents) > 0 {
		steps = append(steps, model.UX(ents[len(ents)-1]))
	}
	return steps
}

// TwoPhaseSteps builds the strict two-phase walk over the given
// entities: lock and write each in slice order, then release everything
// at the end. It is the hold-to-end baseline the early-release policies
// are measured against.
func TwoPhaseSteps(ents []model.Entity) []model.Step {
	steps := make([]model.Step, 0, 3*len(ents))
	for _, e := range ents {
		steps = append(steps, model.LX(e), model.W(e))
	}
	for _, e := range ents {
		steps = append(steps, model.UX(e))
	}
	return steps
}

// DDAGConfig extends PolicyConfig with the shape of the initial DAG.
type DDAGConfig struct {
	PolicyConfig
	// Layers and Width control the random rooted DAG: Layers levels under
	// the root, each with up to Width nodes; every node has at least one
	// predecessor in an earlier layer.
	Layers, Width int
}

// DefaultDDAGConfig returns a small DAG workload configuration.
func DefaultDDAGConfig() DDAGConfig {
	return DDAGConfig{PolicyConfig: DefaultPolicyConfig(), Layers: 3, Width: 2}
}

// RandomRootedDAG builds a random rooted DAG with the given shape. Node
// names are "n0" (the root), "n1", ….
func RandomRootedDAG(rng *rand.Rand, cfg DDAGConfig) *graph.Digraph {
	g := graph.New()
	root := graph.Node("n0")
	g.AddNode(root)
	prev := []graph.Node{root}
	id := 1
	for l := 0; l < cfg.Layers; l++ {
		width := 1 + rng.Intn(cfg.Width)
		var layer []graph.Node
		for w := 0; w < width; w++ {
			n := graph.Node(fmt.Sprintf("n%d", id))
			id++
			g.AddNode(n)
			// At least one predecessor from the previous layer; possibly
			// a second one for diamond shapes.
			p := prev[rng.Intn(len(prev))]
			g.AddEdge(p, n)
			if len(prev) > 1 && rng.Intn(3) == 0 {
				q := prev[rng.Intn(len(prev))]
				if q != p {
					g.AddEdge(q, n)
				}
			}
			layer = append(layer, n)
		}
		prev = layer
	}
	return g
}

// DAGInitState encodes a graph as the initial structural state of a
// system: one entity per node, one "A->B" entity per edge.
func DAGInitState(g *graph.Digraph) model.State {
	init := model.NewState()
	for _, n := range g.Nodes() {
		init[model.Entity(n)] = struct{}{}
	}
	for _, e := range g.Edges() {
		init[model.Entity(graph.EdgeName(e[0], e[1]))] = struct{}{}
	}
	return init
}

// DDAGSystem generates a DAG plus transactions that obey rules L1–L5 under
// serial execution: each transaction starts at some node and crawls
// downward, locking a node only when all its current predecessors have
// been locked and at least one is still held, accessing (writing) each
// node, releasing locks eagerly with probability PRelease, and
// occasionally inserting a fresh node with an edge from a held node.
// The second return value is the generated DAG.
func DDAGSystem(rng *rand.Rand, cfg DDAGConfig) (*model.System, *graph.Digraph) {
	g := RandomRootedDAG(rng, cfg)
	init := DAGInitState(g)
	// The simulation graph evolves as transactions insert nodes/edges
	// serially.
	sim := g.Clone()
	freshID := 100
	txns := make([]model.Txn, cfg.Txns)
	for i := range txns {
		txns[i] = model.Txn{
			Name:  fmt.Sprintf("T%d", i+1),
			Steps: ddagWalk(rng, cfg, sim, &freshID),
		}
	}
	return model.NewSystem(init, txns...), g
}

// ddagWalk produces one policy-conformant locked transaction against the
// (mutated) simulation graph.
func ddagWalk(rng *rand.Rand, cfg DDAGConfig, sim *graph.Digraph, freshID *int) []model.Step {
	var steps []model.Step
	nodes := sim.Nodes()
	start := nodes[rng.Intn(len(nodes))]
	lockedEver := map[graph.Node]bool{start: true}
	held := map[graph.Node]bool{start: true}
	steps = append(steps, model.LX(model.Entity(start)), model.W(model.Entity(start)))

	release := func(n graph.Node) {
		steps = append(steps, model.UX(model.Entity(n)))
		delete(held, n)
	}

	for op := 1; op < cfg.OpsPerTxn; op++ {
		if rng.Float64() < cfg.PStructural && len(held) > 0 {
			// Insert a fresh node hanging off a held node.
			parent := anyNode(held)
			fresh := graph.Node(fmt.Sprintf("x%d", *freshID))
			*freshID++
			edge := model.Entity(graph.EdgeName(parent, fresh))
			steps = append(steps,
				model.LX(model.Entity(fresh)), // L2: node being inserted
				model.I(model.Entity(fresh)),
				model.LX(edge), model.I(edge), model.UX(edge),
			)
			sim.AddNode(fresh)
			sim.AddEdge(parent, fresh)
			lockedEver[fresh] = true
			held[fresh] = true
			continue
		}
		// Find a lockable node: unlocked, all predecessors locked ever,
		// one currently held.
		var candidates []graph.Node
		for _, n := range sim.Nodes() {
			if lockedEver[n] {
				continue
			}
			preds := sim.Preds(n)
			if len(preds) == 0 {
				continue
			}
			ok, holdsOne := true, false
			for _, p := range preds {
				if !lockedEver[p] {
					ok = false
					break
				}
				if held[p] {
					holdsOne = true
				}
			}
			if ok && holdsOne {
				candidates = append(candidates, n)
			}
		}
		if len(candidates) == 0 {
			break
		}
		n := candidates[rng.Intn(len(candidates))]
		steps = append(steps, model.LX(model.Entity(n)), model.W(model.Entity(n)))
		lockedEver[n] = true
		held[n] = true
		// Early release: any held node may be released once we no longer
		// need it to expand (keep the newest lock).
		if rng.Float64() < cfg.PRelease {
			for _, h := range sortedNodes(held) {
				if h != n && rng.Intn(2) == 0 {
					release(h)
				}
			}
		}
	}
	for _, h := range sortedNodes(held) {
		release(h)
	}
	return steps
}

// DDAGSXSystem generates a workload for the shared/exclusive DDAG
// extension: it takes a DDAGSystem and downgrades, with probability
// pShared, the accesses of nodes that are never structural-operation
// endpoints in their transaction to shared mode (LS/R/US).
func DDAGSXSystem(rng *rand.Rand, cfg DDAGConfig, pShared float64) (*model.System, *graph.Digraph) {
	sys, g := DDAGSystem(rng, cfg)
	for ti := range sys.Txns {
		tx := &sys.Txns[ti]
		// Nodes that must stay exclusive: INSERT/DELETE targets and
		// endpoints of structural edge operations. Plain node writes are
		// demotable — the write itself becomes a read.
		mustX := make(map[model.Entity]bool)
		for _, st := range tx.Steps {
			switch st.Op {
			case model.Insert, model.Delete:
				if a, b, isEdge := graph.ParseEdgeName(string(st.Ent)); isEdge {
					mustX[model.Entity(a)] = true
					mustX[model.Entity(b)] = true
					mustX[st.Ent] = true
				} else {
					mustX[st.Ent] = true
				}
			}
		}
		demote := make(map[model.Entity]bool)
		for _, st := range tx.Steps {
			if st.Op == model.LockExclusive && !mustX[st.Ent] && rng.Float64() < pShared {
				demote[st.Ent] = true
			}
		}
		for si, st := range tx.Steps {
			if !demote[st.Ent] {
				continue
			}
			switch st.Op {
			case model.LockExclusive:
				tx.Steps[si].Op = model.LockShared
			case model.UnlockExclusive:
				tx.Steps[si].Op = model.UnlockShared
			case model.Write:
				tx.Steps[si].Op = model.Read
			}
		}
	}
	return sys, g
}

func anyNode(set map[graph.Node]bool) graph.Node {
	return sortedNodes(set)[0]
}

func sortedNodes(set map[graph.Node]bool) []graph.Node {
	out := make([]graph.Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func entityPool(n int) []model.Entity {
	pool := make([]model.Entity, n)
	for i := range pool {
		pool[i] = model.Entity(fmt.Sprintf("e%d", i))
	}
	return pool
}

func sampleEntities(rng *rand.Rand, pool []model.Entity, k int) []model.Entity {
	if k > len(pool) {
		k = len(pool)
	}
	idx := rng.Perm(len(pool))[:k]
	out := make([]model.Entity, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}
