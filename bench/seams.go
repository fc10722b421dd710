package main

import (
	"net"
	"strconv"
	"sync/atomic"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
)

// This file holds the three wrappers the traced run slides into seams the
// program already has — runtime.Config.Policy, runtime.Config.WrapPersister
// and the net.Listener handed to Server.Serve — so that no file of the
// program changes. Spans inside the program are a later change.

// maxTracedTxns bounds the engine transaction ids the policy wrapper can
// map back to script indices; ids beyond it trace with txn -1.
const maxTracedTxns = 1 << 20

// tracedPolicy wraps a policy so that every monitor it builds times its
// Check/Step/Footprint/Fork/Grow calls into the tracer.
type tracedPolicy struct {
	inner policy.Policy
	tr    *tracer
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) NewMonitor(sys *model.System) model.Monitor {
	sh := &monitorShared{policy: p, sys: sys, txnOf: make([]atomic.Int32, maxTracedTxns)}
	sh.learn()
	return &tracedMonitor{inner: p.inner.NewMonitor(sys), sh: sh}
}

// monitorShared is what a monitor and all its forks have in common: the
// engine's transaction id -> script index table, learned from the
// declared names (the bench names each body by its script index). The
// table is fixed-size and atomic because Footprint is called before any
// lock is taken, concurrently with a Grow under the full drain.
type monitorShared struct {
	policy tracedPolicy
	sys    *model.System
	txnOf  []atomic.Int32
	known  atomic.Int64
}

// learn maps the transactions added to the system since the last call.
// Callers own the monitor exclusively (construction, Grow).
func (sh *monitorShared) learn() {
	k := int(sh.known.Load())
	for ; k < len(sh.sys.Txns) && k < len(sh.txnOf); k++ {
		idx, err := strconv.Atoi(sh.sys.Txns[k].Name)
		if err != nil {
			idx = -1
		}
		sh.txnOf[k].Store(int32(idx))
	}
	sh.known.Store(int64(k))
}

func (sh *monitorShared) txn(t model.TID) int32 {
	if int64(t) >= sh.known.Load() {
		return -1
	}
	return sh.txnOf[t].Load()
}

type tracedMonitor struct {
	inner model.Monitor
	sh    *monitorShared
}

func (m *tracedMonitor) Check(ev model.Ev) error {
	rec := m.sh.policy.tr.rec
	if !rec.on.Load() {
		return m.inner.Check(ev)
	}
	t0 := rec.now()
	err := m.inner.Check(ev)
	rec.leaf(spPolicyCheck, t0, m.sh.txn(ev.T))
	return err
}

func (m *tracedMonitor) Step(ev model.Ev) error {
	rec := m.sh.policy.tr.rec
	if !rec.on.Load() {
		return m.inner.Step(ev)
	}
	t0 := rec.now()
	err := m.inner.Step(ev)
	rec.leaf(spPolicyStep, t0, m.sh.txn(ev.T))
	return err
}

func (m *tracedMonitor) Footprint(ev model.Ev) model.Footprint {
	tr := m.sh.policy.tr
	if !tr.rec.on.Load() {
		return m.inner.Footprint(ev)
	}
	t0 := tr.rec.now()
	fp := m.inner.Footprint(ev)
	tr.rec.leaf(spPolicyFootprint, t0, m.sh.txn(ev.T))
	tr.footprints.Add(1)
	if fp.Global || ev.S.Op == model.Insert || ev.S.Op == model.Delete {
		tr.drains.Add(1)
	}
	return fp
}

// Fork wraps the copy too: checkpoints hold forks, and a compaction makes
// one of them the live monitor.
func (m *tracedMonitor) Fork() model.Monitor {
	rec := m.sh.policy.tr.rec
	if !rec.on.Load() {
		return &tracedMonitor{inner: m.inner.Fork(), sh: m.sh}
	}
	t0 := rec.now()
	c := m.inner.Fork()
	rec.leaf(spPolicyFork, t0, -1)
	return &tracedMonitor{inner: c, sh: m.sh}
}

func (m *tracedMonitor) Grow() {
	rec := m.sh.policy.tr.rec
	if rec.on.Load() {
		t0 := rec.now()
		m.inner.Grow()
		rec.leaf(spPolicyGrow, t0, -1)
	} else {
		m.inner.Grow()
	}
	m.sh.learn()
}

func (m *tracedMonitor) Key() string { return m.inner.Key() }

// tracedPersister wraps the disk store: a span and a count per call, and
// the WAL bytes each append added.
type tracedPersister struct {
	inner recovery.Persister
	tr    *tracer
	// txnOf maps an engine-wide transaction id to its script index,
	// learned from AppendOpen. The persister is called from the single
	// owner of the append path, so a plain map will do.
	txnOf map[int]int32
}

// walSizer is the part of *recovery.Store the wrapper reads besides the
// Persister interface.
type walSizer interface{ WALBytes() int64 }

func (p *tracedPersister) timed(name uint8, txn int32, call func() error) error {
	rec, n := p.tr.rec, &p.tr.persist
	if !rec.on.Load() {
		return call()
	}
	var before int64
	sz, sized := p.inner.(walSizer)
	if sized {
		before = sz.WALBytes()
	}
	t0 := rec.now()
	err := call()
	rec.leaf(name, t0, txn)
	n.calls.Add(1)
	switch name {
	case spPersistEvents:
		n.batches.Add(1)
	case spPersistRotate:
		n.rotates.Add(1)
	}
	if sized && name != spPersistRotate {
		// A rotation inside the call starts a new WAL; count growth only.
		if d := sz.WALBytes() - before; d > 0 {
			n.walBytes.Add(d)
		}
	}
	return err
}

func (p *tracedPersister) AppendEvents(evs []model.Ev, tags []uint64) error {
	if p.tr.rec.on.Load() {
		p.tr.persist.events.Add(int64(len(evs)))
	}
	return p.timed(spPersistEvents, -1, func() error { return p.inner.AppendEvents(evs, tags) })
}

func (p *tracedPersister) AppendCompact(victims []int) error {
	return p.timed(spPersistCompact, -1, func() error { return p.inner.AppendCompact(victims) })
}

func (p *tracedPersister) AppendOpen(o recovery.OpenRec) error {
	idx, err := strconv.Atoi(o.Name)
	if err != nil {
		idx = -1
	}
	p.txnOf[o.G] = int32(idx)
	return p.timed(spPersistOpen, int32(idx), func() error { return p.inner.AppendOpen(o) })
}

func (p *tracedPersister) AppendStatus(tid int, status byte) error {
	txn, ok := p.txnOf[tid]
	if !ok {
		txn = -1
	}
	delete(p.txnOf, tid)
	return p.timed(spPersistStatus, txn, func() error { return p.inner.AppendStatus(tid, status) })
}

func (p *tracedPersister) Rotate() error {
	return p.timed(spPersistRotate, -1, p.inner.Rotate)
}

func (p *tracedPersister) Close() error { return p.inner.Close() }

// netCounts are the server-side socket counters of the traced run.
type netCounts struct {
	on                                   atomic.Bool
	readBytes, writeBytes, reads, writes atomic.Int64
}

// countingListener hands Serve connections that count the server's reads
// and writes.
type countingListener struct {
	net.Listener
	n *netCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *netCounts
}

func (c *countingConn) Read(b []byte) (int, error) {
	k, err := c.Conn.Read(b)
	if c.n.on.Load() && k > 0 {
		c.n.reads.Add(1)
		c.n.readBytes.Add(int64(k))
	}
	return k, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	k, err := c.Conn.Write(b)
	if c.n.on.Load() && k > 0 {
		c.n.writes.Add(1)
		c.n.writeBytes.Add(int64(k))
	}
	return k, err
}
