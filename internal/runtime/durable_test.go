package runtime

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
)

// partitionedEntities returns one entity per partition of a 2-way
// split, so tests can build bodies that are provably local or provably
// cross-partition.
func partitionedEntities(t *testing.T) (e0, e1 model.Entity) {
	t.Helper()
	for c := byte('a'); c <= 'z'; c++ {
		e := model.Entity([]byte{c})
		switch model.PartitionOf(e, 2) {
		case 0:
			if e0 == "" {
				e0 = e
			}
		case 1:
			if e1 == "" {
				e1 = e
			}
		}
		if e0 != "" && e1 != "" {
			return e0, e1
		}
	}
	t.Fatal("no entity pair spanning 2 partitions in a..z")
	return
}

func rwTxn(name string, e model.Entity) model.Txn {
	return model.Txn{Name: name, Steps: []model.Step{model.LX(e), model.W(e), model.UX(e)}}
}

func spanTxn(name string, a, b model.Entity) model.Txn {
	return model.Txn{Name: name, Steps: []model.Step{
		model.LX(a), model.LX(b), model.W(a), model.W(b), model.UX(a), model.UX(b),
	}}
}

// TestDurableRestartResume is the restart half of the durability
// contract: committed work survives a crash (no Close, unsealed WAL),
// an open session — local or cross-partition — is restored parked and
// reattaches with its persisted token, and the resumption refusals
// (wrong token, unknown id, finished session) behave as specified.
func TestDurableRestartResume(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			dir := t.TempDir()
			init := model.NewState(e0, e1)
			cfg := Config{Policy: policy.TwoPhase{}, DataDir: dir, Fsync: true, Partitions: parts}
			eng, info, err := NewDurableSessionEngine(init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Events != 0 || info.Sessions != 0 || info.Commits != 0 {
				t.Fatalf("fresh dir restore = %+v, want empty", info)
			}
			s1, err := eng.OpenSession(rwTxn("C1", e0))
			if err != nil {
				t.Fatal(err)
			}
			if err := s1.Run(); err != nil {
				t.Fatal(err)
			}
			s2, err := eng.OpenSession(rwTxn("P1", e1))
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Step(model.LX(model.Entity(e1))); err != nil {
				t.Fatal(err)
			}
			sid, tok := s2.SID(), s2.Token()
			if tok == 0 {
				t.Fatal("resume token is zero")
			}
			// With two partitions a cross-partition session is left open
			// one step in too: it is restored parked like a local one.
			var sg Sess
			if parts > 1 {
				if sg, err = eng.OpenSession(spanTxn("G1", e0, e1)); err != nil {
					t.Fatal(err)
				}
				if err := sg.Step(model.LX(e0)); err != nil {
					t.Fatal(err)
				}
			}
			// Crash: abandon the engine without Close. The WAL stays
			// unsealed; the files are visible to the next open.

			eng2, info2, err := NewDurableSessionEngine(init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info2.Clean {
				t.Fatal("restore after crash reports a clean shutdown")
			}
			parked := parts // P1, and G1 with two partitions
			if info2.Commits != 1 || info2.Sessions != parked {
				t.Fatalf("restore = %+v, want 1 commit, %d parked sessions", info2, parked)
			}
			if _, err := eng2.Resume(sid, tok+1); !errors.Is(err, ErrBadToken) {
				t.Fatalf("wrong token = %v, want ErrBadToken", err)
			}
			if _, err := eng2.Resume(sid+1000, tok); !errors.Is(err, ErrUnknownSession) {
				t.Fatalf("unknown sid = %v, want ErrUnknownSession", err)
			}
			if _, err := eng2.Resume(s1.SID(), s1.Token()); !errors.Is(err, ErrSessionDone) {
				t.Fatalf("resume of committed session = %v, want ErrSessionDone", err)
			}
			rs, err := eng2.Resume(sid, tok)
			if err != nil {
				t.Fatal(err)
			}
			if rs.SID() != sid || rs.Token() != tok {
				t.Fatalf("resumed identity %d/%d, want %d/%d", rs.SID(), rs.Token(), sid, tok)
			}
			if _, err := eng2.Resume(sid, tok); !errors.Is(err, ErrNotResumable) {
				t.Fatalf("second resume = %v, want ErrNotResumable", err)
			}
			if err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			wantEvents := rwTxn("", e0).Len() + rwTxn("", e1).Len()
			if sg != nil {
				// Resumed after P1 committed, whose lock it needs.
				gs, err := eng2.Resume(sg.SID(), sg.Token())
				if err != nil {
					t.Fatalf("resume of cross-partition session after restart: %v", err)
				}
				if err := gs.Run(); err != nil {
					t.Fatal(err)
				}
				wantEvents += spanTxn("", e0, e1).Len()
			}
			res, err := eng2.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits != 1+parked {
				t.Fatalf("commits after resume = %d, want %d", res.Metrics.Commits, 1+parked)
			}

			// Third incarnation: sealed store, everything settled.
			eng3, info3, err := NewDurableSessionEngine(init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !info3.Clean || info3.Sessions != 0 || info3.Commits != 1+parked {
				t.Fatalf("clean restore = %+v, want clean, 0 sessions, %d commits", info3, 1+parked)
			}
			if _, err := eng3.Close(); err != nil {
				t.Fatal(err)
			}
			if info3.Events != wantEvents {
				t.Fatalf("recovered events = %d, want %d", info3.Events, wantEvents)
			}
		})
	}

	// Hand-written one-partition histories, crashed with C1 committed
	// (row 0) and P1 one step into its attempt (row 1).
	for _, h := range []struct {
		name    string
		g       [2]int // engine-wide ids of rows 0 and 1
		mirror  bool   // row 1 claims to be a mirror
		corrupt bool
	}{
		// What the standalone engine of earlier versions wrote: the
		// directory itself, every G equal to its row.
		{name: "written-by-standalone-engine", g: [2]int{0, 1}},
		// Two concurrent opens may take ids and rows in different orders.
		{name: "rows-out-of-id-order", g: [2]int{1, 0}},
		// One partition has nothing to mirror.
		{name: "mirror-row", g: [2]int{0, 1}, mirror: true, corrupt: true},
	} {
		t.Run(h.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, p1 := rwTxn("C1", e0), rwTxn("P1", e1)
			st, _, err := recovery.Open(dir, recovery.Options{})
			if err != nil {
				t.Fatal(err)
			}
			evs := model.Schedule{{T: 0, S: c1.Steps[0]}, {T: 0, S: c1.Steps[1]}, {T: 0, S: c1.Steps[2]}, {T: 1, S: p1.Steps[0]}}
			for _, err := range []error{
				st.AppendOpen(recovery.OpenRec{G: h.g[0], Name: c1.Name, Steps: c1.Steps, Token: 11}),
				st.AppendOpen(recovery.OpenRec{G: h.g[1], Mirror: h.mirror, Name: p1.Name, Steps: p1.Steps, Token: 13}),
				st.AppendEvents(evs, []uint64{0, 1, 2, 3}),
				st.AppendStatus(0, recovery.StatusCommitted),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			eng, info, err := NewDurableSessionEngine(model.NewState(e0, e1), Config{Policy: policy.TwoPhase{}, DataDir: dir, Partitions: 1})
			if h.corrupt {
				if !errors.Is(err, recovery.ErrCorrupt) {
					t.Fatalf("restore = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if info.Commits != 1 || info.Sessions != 1 || info.Events != c1.Len() {
				t.Fatalf("restore = %+v, want 1 commit, 1 parked session, %d events", info, c1.Len())
			}
			if _, err := eng.Resume(h.g[0], 11); !errors.Is(err, ErrSessionDone) {
				t.Fatalf("resume of committed session = %v, want ErrSessionDone", err)
			}
			rs, err := eng.Resume(h.g[1], 13)
			if err != nil {
				t.Fatal(err)
			}
			if rs.SID() != h.g[1] || rs.Declared().Name != p1.Name {
				t.Fatalf("resumed sid %d body %q, want %d %q", rs.SID(), rs.Declared().Name, h.g[1], p1.Name)
			}
			if err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits != 2 {
				t.Fatalf("commits after resume = %d, want 2", res.Metrics.Commits)
			}
		})
	}
}

// TestInterruptResume is the in-process half of the resumption
// contract: Interrupt parks a session (freeing its MPL slot), the stale
// owner object is fenced, a wrong token is refused, the single winning
// Resume gets a fresh session that drives the declared body to commit,
// and a resume after that commit is told the transaction committed.
func TestInterruptResume(t *testing.T) {
	_, e1 := partitionedEntities(t)
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			eng, body := k.start(t, Config{MPL: 1})
			s := k.open(t, eng, body)
			if err := s.Step(body.Steps[0]); err != nil {
				t.Fatal(err)
			}
			s.Interrupt()
			s.Interrupt() // idempotent on a parked session
			if err := s.Step(body.Steps[1]); !errors.Is(err, ErrCancelled) {
				t.Fatalf("step on parked owner = %v, want ErrCancelled", err)
			}
			// The park returned the MPL slot: with MPL=1 another session
			// can open, run and commit while ours is parked.
			other, err := eng.OpenSession(rwTxn("B", e1))
			if err != nil {
				t.Fatalf("open while parked (MPL slot not returned?): %v", err)
			}
			if err := other.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Resume(s.SID(), s.Token()+1); !errors.Is(err, ErrBadToken) {
				t.Fatalf("wrong token = %v, want ErrBadToken", err)
			}
			rs, err := eng.Resume(s.SID(), s.Token())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Resume(s.SID(), s.Token()); !errors.Is(err, ErrNotResumable) {
				t.Fatalf("second resume = %v, want ErrNotResumable", err)
			}
			if err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Resume(rs.SID(), rs.Token()); !errors.Is(err, ErrSessionDone) || !strings.Contains(err.Error(), "committed") {
				t.Fatalf("resume after commit = %v, want ErrSessionDone naming the commit", err)
			}
			res, err := eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits != 2 {
				t.Fatalf("commits = %d, want 2", res.Metrics.Commits)
			}
		})
	}
}

// TestRestoreAbandonsUnfinishedRun: a run's client waits for its
// outcome and never learns its token, so a run a crash left unfinished
// is abandoned at restore, not parked for a resume that cannot come
// (with no lease it would pin the settled floor for good). A session
// left open beside it is still parked.
func TestRestoreAbandonsUnfinishedRun(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	init := model.NewState(e0, e1)
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			cfg := Config{Policy: policy.TwoPhase{}, DataDir: t.TempDir(), Fsync: true, Partitions: parts}
			eng, _, err := NewDurableSessionEngine(init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			run, err := eng.OpenRun(rwTxn("R", e0))
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Step(model.LX(e0)); err != nil {
				t.Fatal(err)
			}
			// A session's open in the run's partition is written at once,
			// and carries the run's buffered open and event with it.
			s, err := eng.OpenSession(rwTxn("P", e0))
			if err != nil {
				t.Fatal(err)
			}
			// Crash: abandon the engine without Close.

			eng2, info, err := NewDurableSessionEngine(init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Sessions != 1 || info.Commits != 0 {
				t.Fatalf("restore = %+v, want P parked and nothing committed", info)
			}
			if _, err := eng2.Resume(run.SID(), run.Token()); !errors.Is(err, ErrSessionDone) || !strings.Contains(err.Error(), "was abandoned") {
				t.Fatalf("resume of the unfinished run = %v, want ErrSessionDone: was abandoned", err)
			}
			rs, err := eng2.Resume(s.SID(), s.Token())
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			res, err := eng2.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits != 1 || res.Metrics.GaveUp != 1 {
				t.Fatalf("commits=%d gave-up=%d, want P committed and the run abandoned", res.Metrics.Commits, res.Metrics.GaveUp)
			}
		})
	}
}

// recordCounter counts Persister record appends, to size the
// crash-point sweep.
type recordCounter struct {
	p recovery.Persister
	n *int
}

func (c *recordCounter) AppendEvents(evs []model.Ev, tags []uint64) error {
	*c.n++
	return c.p.AppendEvents(evs, tags)
}
func (c *recordCounter) AppendCompact(victims []int) error {
	*c.n++
	return c.p.AppendCompact(victims)
}
func (c *recordCounter) AppendOpen(o recovery.OpenRec) error {
	*c.n++
	return c.p.AppendOpen(o)
}
func (c *recordCounter) AppendStatus(tid int, status byte) error {
	*c.n++
	return c.p.AppendStatus(tid, status)
}
func (c *recordCounter) Rotate() error { return c.p.Rotate() }
func (c *recordCounter) Close() error  { return c.p.Close() }

// errCrashed is what a crashPersister fails with once its budget is
// spent.
var errCrashed = errors.New("simulated crash")

// crashPersister emulates a process killed while writing its WAL. With a
// record budget (limit < 0) it fails every append after the first
// records. With a byte limit it passes each append to the store, then
// cuts the current wal-<gen>.log down to limit bytes: exactly what a
// kill mid-write leaves on disk, torn tail included. After the crash
// every call fails, and Close does not seal — the process never got to.
// With atCommit it also crashes at the first committed status, before
// passing it on.
type crashPersister struct {
	st       *recovery.Store
	records  int   // appends allowed, with limit < 0
	limit    int64 // WAL bytes allowed; < 0 selects the record budget
	atCommit bool
	crashed  bool
}

func (c *crashPersister) append(write func() error) error {
	switch {
	case c.crashed:
		return errCrashed
	case c.limit < 0 && c.records == 0:
		c.crashed = true
		return errCrashed
	case c.limit < 0:
		c.records--
		return write()
	}
	if err := write(); err != nil {
		return err
	}
	wal := filepath.Join(c.st.Dir(), fmt.Sprintf("wal-%d.log", c.st.Gen()))
	if fi, err := os.Stat(wal); err != nil || fi.Size() <= c.limit {
		return err
	}
	c.crashed = true
	if err := os.Truncate(wal, c.limit); err != nil {
		return err
	}
	return errCrashed
}

func (c *crashPersister) AppendEvents(evs []model.Ev, tags []uint64) error {
	return c.append(func() error { return c.st.AppendEvents(evs, tags) })
}
func (c *crashPersister) AppendCompact(victims []int) error {
	return c.append(func() error { return c.st.AppendCompact(victims) })
}
func (c *crashPersister) AppendOpen(o recovery.OpenRec) error {
	return c.append(func() error { return c.st.AppendOpen(o) })
}
func (c *crashPersister) AppendStatus(tid int, status byte) error {
	c.crashed = c.crashed || c.atCommit && status == recovery.StatusCommitted
	return c.append(func() error { return c.st.AppendStatus(tid, status) })
}
func (c *crashPersister) Rotate() error {
	if c.crashed {
		return errCrashed
	}
	return c.st.Rotate()
}
func (c *crashPersister) Close() error {
	if c.crashed {
		return nil
	}
	return c.st.Close()
}

// durableScript drives a fixed serial workload against a session
// engine, swallowing post-crash failures, and reports how many commits
// were acknowledged and every session it opened. Two commits are runs
// (OpenRun), a local one, whose open waits in the store's buffer for its
// status, and with two partitions a spanning one, whose mirror opens do
// not. The parked opens come last so their held locks never block a
// later transaction.
func durableScript(eng SessionEngine, e0, e1 model.Entity) (acked int, opened []Sess) {
	start := func(open func(model.Txn) (Sess, error), tx model.Txn) Sess {
		s, err := open(tx)
		if err != nil {
			return nil
		}
		opened = append(opened, s)
		return s
	}
	commit := func(open func(model.Txn) (Sess, error), tx model.Txn) {
		if s := start(open, tx); s != nil && s.Run() == nil {
			acked++
		}
	}
	commit(eng.OpenSession, rwTxn("t1", e0))
	commit(eng.OpenRun, rwTxn("t2", e1))
	if s := start(eng.OpenSession, rwTxn("ta", e0)); s != nil {
		// A client abort: exercises the compaction record.
		s.Step(model.LX(e0))
		s.Step(model.W(e0))
		s.Abort()
	}
	commit(eng.OpenRun, spanTxn("tg", e0, e1))
	commit(eng.OpenSession, rwTxn("t3", e0))
	commit(eng.OpenSession, rwTxn("t4", e1))
	// Left open one step in, a local and (with two partitions) a
	// cross-partition session: both recovered parked.
	if s := start(eng.OpenSession, rwTxn("tp", e1)); s != nil {
		s.Step(model.LX(e1))
	}
	if s := start(eng.OpenSession, spanTxn("tq", e0, e1)); s != nil {
		s.Step(model.LX(e0))
	}
	return acked, opened
}

// TestDurableCrashPointSweepEngine is the engine-level crash harness:
// the reference workload runs once to measure its durable record count
// and WAL size, then re-runs with a crash injected (a) after every
// record-append budget and (b) at a sweep of byte offsets, torn tails
// included. Every crash point must restore into a working engine whose
// recovered commits dominate the acknowledged ones and whose schedule
// verifies serializable — with one partition and with two (where
// per-partition budgets exercise cross-partition status skew and the
// restore arbiter). The crashes come from outside the store, through a
// crashPersister.
func TestDurableCrashPointSweepEngine(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	init := model.NewState(e0, e1)
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			base := Config{Policy: policy.TwoPhase{}, Partitions: parts}
			base.DataDir = t.TempDir()

			// Reference pass: count records and bytes.
			records := 0
			var stores []*recovery.Store
			cfg := base
			cfg.WrapPersister = func(p recovery.Persister) recovery.Persister {
				if st, ok := p.(*recovery.Store); ok {
					stores = append(stores, st)
				}
				return &recordCounter{p: p, n: &records}
			}
			eng, _, err := NewDurableSessionEngine(init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fullAcked, _ := durableScript(eng, e0, e1)
			if fullAcked != 5 {
				t.Fatalf("reference run acked %d commits, want 5", fullAcked)
			}
			var maxBytes int64
			for _, st := range stores {
				if b := st.WALBytes(); b > maxBytes {
					maxBytes = b
				}
			}
			if records == 0 || maxBytes == 0 {
				t.Fatalf("reference run measured records=%d bytes=%d", records, maxBytes)
			}

			crashAt := func(name string, wrap func(recovery.Persister) recovery.Persister) {
				t.Helper()
				dir := t.TempDir()
				ccfg := base
				ccfg.DataDir = dir
				ccfg.WrapPersister = wrap
				ceng, _, err := NewDurableSessionEngine(init, ccfg)
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				acked, opened := durableScript(ceng, e0, e1)
				// Restore the crashed directory with no injection.
				rcfg := base
				rcfg.DataDir = dir
				reng, info, err := NewDurableSessionEngine(init, rcfg)
				if err != nil {
					t.Fatalf("%s: restore: %v", name, err)
				}
				if info.Commits < acked {
					t.Fatalf("%s: recovered %d commits < %d acknowledged", name, info.Commits, acked)
				}
				// Every session restored parked resumes and commits, whatever
				// its span; every other one is refused as finished.
				resumed := 0
				for _, s := range opened {
					rs, err := reng.Resume(s.SID(), s.Token())
					if err != nil {
						if !errors.Is(err, ErrSessionDone) && !errors.Is(err, ErrUnknownSession) {
							t.Fatalf("%s: resume of %s = %v, want success, ErrSessionDone or ErrUnknownSession", name, s.Declared().Name, err)
						}
						continue
					}
					if err := rs.Run(); err != nil {
						t.Fatalf("%s: resumed %s: %v", name, s.Declared().Name, err)
					}
					resumed++
				}
				if resumed != info.Sessions {
					t.Fatalf("%s: %d sessions resumed, restore parked %d", name, resumed, info.Sessions)
				}
				if name == "crash-free" && resumed != 2 {
					t.Fatalf("%s: %d sessions resumed, want tp and tq", name, resumed)
				}
				if _, err := reng.Close(); err != nil {
					t.Fatalf("%s: close after restore: %v", name, err)
				}
			}

			// (a) Every record-append budget. With partitions each store
			// gets the budget independently, which manufactures exactly
			// the cross-partition skew the restore must arbitrate.
			for k := 0; k <= records; k++ {
				name := fmt.Sprintf("records=%d", k)
				if k == records {
					name = "crash-free"
				}
				crashAt(name, func(p recovery.Persister) recovery.Persister {
					return &crashPersister{st: p.(*recovery.Store), records: k, limit: -1}
				})
			}
			// (b) Byte offsets, including torn mid-record tails.
			stride := int64(1)
			if parts > 1 {
				stride = 7
			}
			for n := int64(0); n <= maxBytes; n += stride {
				limit := n
				crashAt(fmt.Sprintf("bytes=%d", limit), func(p recovery.Persister) recovery.Persister {
					return &crashPersister{st: p.(*recovery.Store), limit: limit}
				})
			}
		})
	}
}

// TestSpanningCommitCrashBetweenReplicas: a cross-partition commit
// writes its status to each replica's store, and each store writes the
// events it buffered with that status. A kill at either replica's
// status write — the other's already written or not yet — must restore
// one outcome in both replicas: committed with the transaction's events
// in each, or not committed and erased in each. Never a replica that
// says committed but lost the events. It holds for a session and for a
// run, whose mirror opens are therefore written at open: buffered, the
// owner's open would be lost with its status while the mirror's
// reached the disk with its events.
func TestSpanningCommitCrashBetweenReplicas(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	init := model.NewState(e0, e1)
	tx := spanTxn("tg", e0, e1)
	for kill := 0; kill < 2; kill++ {
		t.Run(fmt.Sprintf("kill=p%d", kill), func(t *testing.T) {
			for _, run := range []bool{false, true} {
				spanningCommitCrash(t, init, tx, kill, run)
			}
		})
	}
}

// spanningCommitCrash is one arm of TestSpanningCommitCrashBetweenReplicas:
// tx opened as a session or a run, partition kill's store killed at its
// commit status write.
func spanningCommitCrash(t *testing.T, init model.State, tx model.Txn, kill int, run bool) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{Policy: policy.TwoPhase{}, Partitions: 2, DataDir: dir}
	p := 0
	cfg.WrapPersister = func(st recovery.Persister) recovery.Persister {
		if p++; p-1 == kill {
			return &crashPersister{st: st.(*recovery.Store), records: math.MaxInt, limit: -1, atCommit: true}
		}
		return st
	}
	eng, _, err := NewDurableSessionEngine(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	open := eng.OpenSession
	if run {
		open = eng.OpenRun
	}
	s, err := open(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("commit acknowledged although a replica's status write failed")
	}

	// Restore the killed directory, settle it, and read both
	// replicas back.
	cfg.WrapPersister = nil
	reng, _, err := NewDurableSessionEngine(init, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := reng.Close(); err != nil {
		t.Fatalf("close after restore: %v", err)
	}
	var status [2]byte
	for q := range status {
		rec, err := recovery.Restore(PartitionDir(dir, 2, q))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Opens) != 1 {
			t.Fatalf("p%d holds %d opens, want tg's", q, len(rec.Opens))
		}
		status[q] = rec.Status[0]
		want := 0
		if status[q] == recovery.StatusCommitted {
			want = len(tx.Steps)
		}
		if len(rec.Events) != want {
			t.Fatalf("p%d: status %d with %d events, want %d", q, status[q], len(rec.Events), want)
		}
	}
	if status[0] != status[1] {
		t.Fatalf("replica statuses %v disagree", status)
	}
}

// dirListing renders every file under dir with its size and content
// hash, to assert a refused start left the directory untouched.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			fmt.Fprintln(&b, path)
			return err
		}
		data, err := os.ReadFile(path)
		fmt.Fprintf(&b, "%s %d %x\n", path, len(data), sha256.Sum256(data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDataDirPartitionMismatch: a data directory is served only by the
// partition count that wrote it. Any other count is refused by name,
// before anything is written — not answered with an empty or re-homed
// database. A directory that never logged an open belongs to no count.
func TestDataDirPartitionMismatch(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	init := model.NewState(e0, e1)
	for _, tc := range []struct {
		from, to int
		empty    bool   // the first life opens no session
		remove   string // deleted between the two lives
		refusal  string // "" = restored
	}{
		{from: 1, to: 1},
		{from: 2, to: 2},
		{from: 1, to: 2, refusal: "holds a 1-partition history and cannot be opened with 2"},
		{from: 2, to: 1, refusal: "holds a 2-partition history and cannot be opened with 1"},
		{from: 2, to: 4, refusal: "holds a 2-partition history and cannot be opened with 4"},
		{from: 4, to: 2, refusal: "holds a 4-partition history and cannot be opened with 2"},
		{from: 2, to: 2, remove: "p0", refusal: "holds a 2-partition history, but some partition directories are missing"},
		{from: 1, to: 2, empty: true},
		{from: 2, to: 1, empty: true},
	} {
		t.Run(fmt.Sprintf("%d-to-%d/empty=%v/remove=%s", tc.from, tc.to, tc.empty, tc.remove), func(t *testing.T) {
			cfg := Config{Policy: policy.TwoPhase{}, DataDir: t.TempDir(), Partitions: tc.from}
			eng, _, err := NewDurableSessionEngine(init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			commits := 0
			if !tc.empty {
				for _, e := range []model.Entity{e0, e1} {
					s, err := eng.OpenSession(rwTxn("T", e))
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Run(); err != nil {
						t.Fatal(err)
					}
					commits++
				}
			}
			if _, err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.remove != "" {
				if err := os.RemoveAll(filepath.Join(cfg.DataDir, tc.remove)); err != nil {
					t.Fatal(err)
				}
			}
			before := dirListing(t, cfg.DataDir)
			cfg.Partitions = tc.to
			eng, info, err := NewDurableSessionEngine(init, cfg)
			if tc.refusal != "" {
				if !errors.Is(err, ErrLayout) || !strings.Contains(err.Error(), tc.refusal) {
					t.Fatalf("restore = %v, want ErrLayout saying %q", err, tc.refusal)
				}
				if after := dirListing(t, cfg.DataDir); after != before {
					t.Fatalf("a refused start changed the directory:\n--- before ---\n%s--- after ---\n%s", before, after)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if info.Commits != commits {
				t.Fatalf("restored %d commits, want %d", info.Commits, commits)
			}
			if _, err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// errInjected is the failure failFirst injects.
var errInjected = errors.New("injected persister failure")

// failFirst fails the first call of one Persister method with
// errInjected and passes every other call through, so only the engine
// can stop the work that follows.
type failFirst struct {
	recovery.Persister
	method string
	failed *atomic.Bool
}

func (f failFirst) fail(method string) bool {
	return f.method == method && f.failed.CompareAndSwap(false, true)
}

func (f failFirst) AppendEvents(evs []model.Ev, tags []uint64) error {
	if f.fail("AppendEvents") {
		return errInjected
	}
	return f.Persister.AppendEvents(evs, tags)
}

func (f failFirst) AppendCompact(victims []int) error {
	if f.fail("AppendCompact") {
		return errInjected
	}
	return f.Persister.AppendCompact(victims)
}

func (f failFirst) AppendOpen(o recovery.OpenRec) error {
	if f.fail("AppendOpen") {
		return errInjected
	}
	return f.Persister.AppendOpen(o)
}

func (f failFirst) AppendStatus(tid int, status byte) error {
	if f.fail("AppendStatus") {
		return errInjected
	}
	return f.Persister.AppendStatus(tid, status)
}

func (f failFirst) Rotate() error {
	if f.fail("Rotate") {
		return errInjected
	}
	return f.Persister.Rotate()
}

// TestPersistFailureStopsEngine: a failed write is a failed persist,
// whichever Persister method the runner called — events from the
// sequencer's flush or from the serialized gate (GateStripes 1), an
// open, a status, a compaction record or a rotation. The engine
// acknowledges no commit opened after it, Close names it, and the fatal
// error says the disk failed, not the monitor. CheckpointEvery 3 puts
// every checkpoint on a body boundary of the serial 3-step commits, so
// truncation cuts and rotates.
func TestPersistFailureStopsEngine(t *testing.T) {
	for _, arm := range []struct {
		name, method string
		stripes      int
	}{
		{"events-flush", "AppendEvents", 0},
		{"events-slow", "AppendEvents", 1},
		{"open", "AppendOpen", 0},
		{"status", "AppendStatus", 0},
		{"compact", "AppendCompact", 0},
		{"rotate", "Rotate", 0},
	} {
		t.Run(arm.name, func(t *testing.T) {
			var failed atomic.Bool
			eng, _, err := NewDurableSessionEngine(model.NewState("a"), Config{
				Policy: policy.TwoPhase{}, DataDir: t.TempDir(), TruncateLog: true, CheckpointEvery: 3,
				GateStripes: arm.stripes,
				WrapPersister: func(p recovery.Persister) recovery.Persister {
					return failFirst{Persister: p, method: arm.method, failed: &failed}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// A client abort after admitted steps writes a compaction record.
			if s, err := eng.OpenSession(rwTxn("ta", "a")); err == nil {
				s.Step(model.LX("a"))
				s.Step(model.W("a"))
				s.Abort()
			}
			late := 0
			for i := 0; i < 40; i++ {
				after := failed.Load()
				if s, err := eng.OpenSession(rwTxn(fmt.Sprintf("t%d", i), "a")); err == nil && s.Run() == nil && after {
					late++
				}
			}
			if !failed.Load() {
				t.Fatal("the failure was never injected")
			}
			if late > 0 {
				t.Errorf("%d commits acknowledged after the failed persist", late)
			}
			_, err = eng.Close()
			if !errors.Is(err, errInjected) {
				t.Fatalf("Close = %v, want the injected failure", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "persistence failed") || strings.Contains(msg, "monitor accepted Check but rejected Step") {
				t.Fatalf("Close = %q, want a persistence failure, not a monitor one", msg)
			}
		})
	}
}

// TestDurableStoreRefusesDamagedSnapshot: a live snapshot that no longer
// decodes is refused by name, and the data directory is left exactly as
// it was — not restored as an empty database whose start then deletes
// the real generation.
func TestDurableStoreRefusesDamagedSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Truncation rotates the store, so the history lives in a snapshot.
	cfg := Config{Policy: policy.TwoPhase{}, DataDir: dir, TruncateLog: true, CheckpointEvery: 3}
	eng, _, err := NewDurableSessionEngine(model.NewState("a"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s, err := eng.OpenSession(rwTxn("T", "a"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots %v, want one live snapshot", snaps)
	}
	b, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(snaps[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	_, _, err = NewDurableSessionEngine(model.NewState("a"), cfg)
	if !errors.Is(err, recovery.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(snaps[0])) {
		t.Fatalf("start on a damaged snapshot = %v, want ErrCorrupt naming %s", err, filepath.Base(snaps[0]))
	}
	if after := dirListing(t, dir); after != before {
		t.Fatalf("refused start changed the directory:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// rotateCounter counts the rotations a Core asks its store for.
type rotateCounter struct {
	recovery.Persister
	n *int
}

func (c rotateCounter) Rotate() error {
	*c.n++
	return c.Persister.Rotate()
}

// TestRotationIsAmortised: truncation asks the store to rotate every few
// commits, but the store rewrites its history only once the WAL has
// outgrown the snapshot, so ten times the commits add a logarithmic
// number of generations, not one per truncation. CheckpointEvery 3
// puts every checkpoint on a body boundary of the serial 3-step
// commits, so truncation cuts and asks.
func TestRotationIsAmortised(t *testing.T) {
	var st *recovery.Store
	asked := 0
	eng, _, err := NewDurableSessionEngine(model.NewState("a"), Config{
		Policy: policy.TwoPhase{}, DataDir: t.TempDir(), TruncateLog: true, CheckpointEvery: 3,
		WrapPersister: func(p recovery.Persister) recovery.Persister {
			st = p.(*recovery.Store)
			return rotateCounter{Persister: p, n: &asked}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(n int) {
		for i := 0; i < n; i++ {
			s, err := eng.OpenSession(rwTxn("T", "a"))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 20
	commit(n)
	g1, asked1 := st.Gen(), asked
	commit(9 * n)
	g10 := st.Gen()
	if g1 == 0 || asked-asked1 < 9*n/4 {
		t.Fatalf("rotation never exercised: generation %d after %d commits, %d rotations asked for", g1, n, asked)
	}
	if grew, bound := g10-g1, math.Log2(10)+2; float64(grew) > bound {
		t.Fatalf("generation grew %d → %d (%d rotations) from %d to %d commits, want at most log2(10)+2 = %.1f; %d asked for",
			g1, g10, grew, n, 10*n, bound, asked-asked1)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}
