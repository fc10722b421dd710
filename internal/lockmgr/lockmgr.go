// Package lockmgr implements a concurrent shared/exclusive lock manager
// with FIFO wait queues, S→X upgrades and waits-for deadlock detection. It
// is the substrate under the concurrent transaction runtime and examples:
// the locking policies decide *which* locks a transaction may request; the
// lock manager decides *when* a compatible request is granted.
//
// The manager is a thin concurrency layer over the single-owner lock-table
// core in locksafe/internal/locktable, which owns entries, compatibility,
// FIFO grant order and deadlock detection. The execution engine drives the
// same core synchronously, so both substrates share one implementation of
// the locking rules.
//
// # Sharding
//
// To keep multi-core traffic from serializing on one mutex, the manager
// splits the entity space into N hash-addressed shards, each owning its
// own table and mutex. Uncontended acquires and releases touch exactly one
// shard. Deadlock cycles confined to a shard are still refused
// synchronously by that shard's table; cycles spanning shards are caught
// by a cross-shard sweep that every request runs after it blocks: the
// sweep locks all shards in index order, concatenates their waits-for
// edges (locktable.WaitEdges) into one global graph, and cancels the
// sweeping requester if it lies on a cycle. Sweeping only on the blocking
// path is complete — a cycle's final edge is always created either by the
// enqueue of the last member to block (which then sweeps) or by a grant or
// in-place upgrade targeting a *running* owner, and a running owner cannot
// complete a cycle until it blocks, at which point it sweeps. With a
// single shard the sweep is a no-op and the manager behaves exactly like
// the pre-sharding implementation: every cycle is intra-table and refused
// at Acquire time.
//
// Each owner may have at most one outstanding blocked request (it is
// parked inside Lock); ReleaseAll may be called for an owner by another
// goroutine (an abort cascade), in which case the owner's parked request
// is cancelled with ErrCancelled.
package lockmgr

import (
	"errors"
	"fmt"
	"sync"

	"locksafe/internal/locktable"
	"locksafe/internal/model"
)

// ErrDeadlock is returned to a requester chosen as the deadlock victim,
// whether the cycle was confined to one shard or spanned several.
var ErrDeadlock = errors.New("lockmgr: deadlock detected; requester aborted")

// ErrCancelled is delivered to a parked waiter whose pending request was
// cancelled by ReleaseAll — a cascaded abort rather than deadlock
// victimhood of its own. It wraps ErrDeadlock so existing
// errors.Is(err, ErrDeadlock) checks keep treating cancellation as an
// abort signal; callers that care can distinguish with
// errors.Is(err, ErrCancelled).
var ErrCancelled = fmt.Errorf("lockmgr: pending request cancelled by ReleaseAll: %w", ErrDeadlock)

// shard is one slice of the entity space: a lock-table core, its mutex,
// and the parking channels of the owners blocked on its entities.
type shard struct {
	mu  sync.Mutex
	tab *locktable.Table
	// ready holds the parking channel of each blocked owner. An owner has
	// at most one outstanding request across all shards.
	ready map[int]chan error
}

// resume hands the waiters their verdict. Called with mu held; the
// channels are buffered so the sends never block.
func (s *shard) resume(waiters []locktable.Waiter, verdict error) {
	for _, w := range waiters {
		if ch, ok := s.ready[w.Owner]; ok {
			delete(s.ready, w.Owner)
			ch <- verdict
		}
	}
}

// Manager is a concurrent sharded lock manager. The zero value is not
// usable; call New or NewSharded.
type Manager struct {
	shards []*shard
}

// New returns a lock manager with a single shard — the exact behavior of
// the pre-sharding manager: one table, one mutex, synchronous deadlock
// refusal.
func New() *Manager { return NewSharded(1) }

// NewSharded returns a lock manager whose entity space is split into n
// hash-addressed shards. n < 1 is treated as 1.
func NewSharded(n int) *Manager {
	if n < 1 {
		n = 1
	}
	m := &Manager{shards: make([]*shard, n)}
	for i := range m.shards {
		m.shards[i] = &shard{tab: locktable.New(), ready: make(map[int]chan error)}
	}
	return m
}

// Shards reports the shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// ShardOf reports the index of the shard e hashes to: model.PartitionOf
// over the shard count. Tests use it to construct guaranteed cross-shard
// scenarios.
func (m *Manager) ShardOf(e model.Entity) int {
	return model.PartitionOf(e, len(m.shards))
}

func (m *Manager) shard(e model.Entity) *shard { return m.shards[m.ShardOf(e)] }

// Lock blocks until the lock is granted or the request is chosen as a
// deadlock victim (ErrDeadlock) or cancelled by a concurrent ReleaseAll
// (ErrCancelled). Requesting an entity already held in the same or a
// stronger mode is an error; a holder of a shared lock that requests
// exclusive performs an upgrade, which waits at the front of the queue for
// the other holders to release.
func (m *Manager) Lock(owner int, e model.Entity, mode model.Mode) error {
	s := m.shard(e)
	s.mu.Lock()
	switch s.tab.Acquire(owner, e, mode) {
	case locktable.Granted:
		s.mu.Unlock()
		return nil
	case locktable.AlreadyHeld:
		s.mu.Unlock()
		return fmt.Errorf("lockmgr: owner %d already holds %s", owner, e)
	case locktable.Deadlock:
		s.mu.Unlock()
		return ErrDeadlock
	}
	ch := make(chan error, 1)
	s.ready[owner] = ch
	s.mu.Unlock()
	// The request is parked: this enqueue may have completed a cycle whose
	// other edges live in other shards. Sweep before waiting.
	m.sweep(owner)
	return <-ch
}

// sweep assembles the global waits-for graph from every shard and refuses
// owner's pending request if it lies on a cycle. All shard mutexes are
// taken in index order, so concurrent sweeps serialize instead of
// deadlocking; the uncontended grant path never enters here.
func (m *Manager) sweep(owner int) {
	if len(m.shards) == 1 {
		return // the single table already refused every cycle at Acquire
	}
	for _, s := range m.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range m.shards {
			s.mu.Unlock()
		}
	}()
	var edges []locktable.Edge
	for _, s := range m.shards {
		edges = s.tab.WaitEdges(edges)
	}
	if !onCycle(owner, edges) {
		return
	}
	// Victim = the requester whose edge completed the cycle, matching the
	// single-table rule. Its held locks are untouched: the caller aborts
	// and releases them itself, as with a synchronous Deadlock refusal.
	for _, s := range m.shards {
		if _, waiting := s.tab.Waiting(owner); !waiting {
			continue
		}
		granted, cancelled, ok := s.tab.Cancel(owner)
		if ok {
			s.resume([]locktable.Waiter{cancelled}, ErrDeadlock)
		}
		s.resume(granted, nil)
		return
	}
}

// onCycle reports whether owner can reach itself in the waits-for graph.
func onCycle(owner int, edges []locktable.Edge) bool {
	adj := make(map[int][]int, len(edges))
	for _, e := range edges {
		adj[e.Waiter] = append(adj[e.Waiter], e.Blocker)
	}
	seen := make(map[int]bool)
	stack := append([]int(nil), adj[owner]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == owner {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, adj[x]...)
	}
	return false
}

// TryLock grants the lock immediately or reports false without blocking.
// Like Lock, a shared holder requesting exclusive upgrades — but only
// when it can be granted at once; re-requesting a covering mode reports
// false.
func (m *Manager) TryLock(owner int, e model.Entity, mode model.Mode) bool {
	s := m.shard(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.TryAcquire(owner, e, mode)
}

// Unlock releases owner's lock on e and grants queued waiters FIFO as far
// as compatibility allows.
func (m *Manager) Unlock(owner int, e model.Entity) error {
	s := m.shard(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	granted, err := s.tab.Release(owner, e)
	if err != nil {
		return fmt.Errorf("lockmgr: %w", err)
	}
	s.resume(granted, nil)
	return nil
}

// ReleaseAll releases every lock owner holds in every shard and cancels
// any pending request (the cancelled waiter receives ErrCancelled). Used
// on abort, by the owner itself or by an abort cascade acting on a parked
// owner.
func (m *Manager) ReleaseAll(owner int) {
	for _, s := range m.shards {
		s.mu.Lock()
		granted, cancelled := s.tab.ReleaseAll(owner)
		s.resume(cancelled, ErrCancelled)
		s.resume(granted, nil)
		s.mu.Unlock()
	}
}

// Holds reports whether owner currently holds a lock on e and in which
// mode.
func (m *Manager) Holds(owner int, e model.Entity) (model.Mode, bool) {
	s := m.shard(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Holds(owner, e)
}

// HeldBy returns the owners currently holding e.
func (m *Manager) HeldBy(e model.Entity) []int {
	s := m.shard(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.HeldBy(e)
}

// QueueLen returns the number of waiters on e (for tests and metrics).
func (m *Manager) QueueLen(e model.Entity) int {
	s := m.shard(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.QueueLen(e)
}

// Waiting reports the entity owner is currently blocked on, if any.
func (m *Manager) Waiting(owner int) (model.Entity, bool) {
	for _, s := range m.shards {
		s.mu.Lock()
		e, ok := s.tab.Waiting(owner)
		s.mu.Unlock()
		if ok {
			return e, true
		}
	}
	return "", false
}
