package runtime

import (
	goruntime "runtime"
	"sort"
	"sync"

	"locksafe/internal/model"
)

// gate is the striped admission lock of the policy pipeline. The monitor,
// the structural state and the runner's transaction bookkeeping are
// partitioned across stripes by footprint: admitting an event holds the
// stripes covering its footprint's transactions and entities, so
// footprint-disjoint events evaluate their rules concurrently while
// overlapping ones serialize on a shared stripe. Draining — locking every
// stripe in index order — grants exclusive ownership of the whole world
// and is how global-footprint events, structural updates, aborts,
// commits and checkpoints run.
//
// All acquisition paths take stripes in ascending index order, so a
// fast-path holder and a drainer can never deadlock. With a single
// stripe every acquisition is a drain and the gate degenerates to the
// serialized monitor gate.
type gate struct {
	stripes []sync.Mutex
}

func newGate(n int) *gate {
	if n < 1 {
		n = 1
	}
	return &gate{stripes: make([]sync.Mutex, n)}
}

// defaultGateStripes sizes the gate for the machine: twice GOMAXPROCS
// rounded up to a power of two, within [8, 64]. More stripes than cores
// cost nothing but reduce false conflicts from hash collisions.
func defaultGateStripes() int {
	n := 2 * goruntime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	p := 1
	for p < n {
		p *= 2
	}
	if p > 64 {
		p = 64
	}
	return p
}

func (g *gate) size() int { return len(g.stripes) }

// stripeOfTxn maps a transaction to its stripe. Transactions and
// entities share one stripe space; a collision only costs a false
// conflict, never correctness.
func (g *gate) stripeOfTxn(t int) int {
	// Knuth multiplicative hash, so adjacent transaction ids spread.
	return int((uint32(t) * 2654435761) % uint32(len(g.stripes)))
}

// setFor appends the sorted, deduplicated stripe indices covering ev's
// admission to buf and returns the extended slice, or ok=false if the
// footprint (or a single-stripe gate) requires a drain instead. The set
// always covers the event's own transaction and entity — the runtime
// reads the transaction's generation and status and must order
// conflicting (same-entity) events through a shared stripe, whatever the
// monitor declares — unioned with the monitor's footprint. Callers pass
// a stack-allocated buffer so the fast path does not allocate.
func (g *gate) setFor(buf []int, ev model.Ev, fp model.Footprint) ([]int, bool) {
	if fp.Global || len(g.stripes) == 1 {
		return nil, false
	}
	set := buf
	add := func(i int) {
		for _, x := range set {
			if x == i {
				return
			}
		}
		set = append(set, i)
	}
	// An entity's stripe is its partition of the stripe space
	// (model.PartitionOf, the hash the lock manager shards by).
	n := len(g.stripes)
	add(g.stripeOfTxn(int(ev.T)))
	add(model.PartitionOf(ev.S.Ent, n))
	if fp.HasT {
		add(g.stripeOfTxn(int(fp.T)))
	}
	if fp.Ent != "" {
		add(model.PartitionOf(fp.Ent, n))
	}
	for _, t := range fp.ExtraTxns {
		add(g.stripeOfTxn(int(t)))
	}
	for _, e := range fp.ExtraEnts {
		add(model.PartitionOf(e, n))
	}
	sort.Ints(set)
	return set, true
}

// lockSet acquires the given stripes in ascending order.
func (g *gate) lockSet(set []int) {
	for _, i := range set {
		g.stripes[i].Lock()
	}
}

// unlockSet releases the given stripes.
func (g *gate) unlockSet(set []int) {
	for _, i := range set {
		g.stripes[i].Unlock()
	}
}

// drain acquires every stripe in index order: exclusive ownership of the
// monitor, state, log and bookkeeping.
func (g *gate) drain() {
	for i := range g.stripes {
		g.stripes[i].Lock()
	}
}

// undrain releases every stripe.
func (g *gate) undrain() {
	for i := range g.stripes {
		g.stripes[i].Unlock()
	}
}
