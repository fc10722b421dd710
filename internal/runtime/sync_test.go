package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
)

// gatedSync wraps a one-partition engine's store. Once the first
// committed status is appended, it holds every barrier until release is
// closed — or, on a store that writes and syncs a status inside its
// append, that append, which runs under the gate drain. It counts the
// calls it held (entered), the barriers after the first commit that
// wrote to the WAL (writes) and the appends that wrote to it
// (drainWrites). Barriers reach the inner persister one at a time, so
// writes is exact.
type gatedSync struct {
	recovery.Persister // the store, or a crashPersister over it
	st                 *recovery.Store
	release            chan struct{}
	armed              atomic.Bool
	entered            atomic.Int32
	writes             atomic.Int32
	drainWrites        atomic.Int32
	mu                 sync.Mutex
}

// wrote runs call and reports whether the WAL grew meanwhile.
func (g *gatedSync) wrote(call func() error) (bool, error) {
	before := g.st.WALBytes()
	err := call()
	return g.st.WALBytes() != before, err
}

func (g *gatedSync) hold() {
	g.entered.Add(1)
	<-g.release
}

func (g *gatedSync) append(call func() error) error {
	wrote, err := g.wrote(call)
	if wrote {
		g.drainWrites.Add(1)
	}
	return err
}

func (g *gatedSync) AppendEvents(evs []model.Ev, tags []uint64) error {
	return g.append(func() error { return g.Persister.AppendEvents(evs, tags) })
}
func (g *gatedSync) AppendCompact(victims []int) error {
	return g.append(func() error { return g.Persister.AppendCompact(victims) })
}
func (g *gatedSync) AppendOpen(o recovery.OpenRec) error {
	return g.append(func() error { return g.Persister.AppendOpen(o) })
}
func (g *gatedSync) AppendStatus(tid int, status byte) error {
	wrote, err := g.wrote(func() error { return g.Persister.AppendStatus(tid, status) })
	first := status == recovery.StatusCommitted && g.armed.CompareAndSwap(false, true)
	if wrote {
		g.drainWrites.Add(1)
		if first {
			g.hold()
		}
	}
	return err
}

func (g *gatedSync) Sync() error {
	armed := g.armed.Load()
	if armed {
		g.hold()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	wrote, err := g.wrote(g.Persister.(syncer).Sync)
	if wrote && armed {
		g.writes.Add(1)
	}
	return err
}

// syncOutsideDrain is TestCommitSyncOutsideDrain's two-session run on a
// one-partition durable engine in dir, with wrap (nil: none) between the
// gate and the store. Session A opens, steps and commits; once A holds
// at its barrier, run B, on another entity, opens, steps and reaches its
// own; then both are released. It returns the gate and the sessions
// whose commits were acknowledged.
func syncOutsideDrain(t *testing.T, dir string, wrap func(*recovery.Store) recovery.Persister) (*gatedSync, []Sess) {
	t.Helper()
	g := &gatedSync{release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(g.release) }) }
	defer release()
	eng, _, err := NewDurableSessionEngine(model.NewState("a", "b"), Config{
		Policy: policy.TwoPhase{}, DataDir: dir, Fsync: true,
		WrapPersister: func(p recovery.Persister) recovery.Persister {
			g.st = p.(*recovery.Store)
			g.Persister = p
			if wrap != nil {
				g.Persister = wrap(g.st)
			}
			return g
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.OpenSession(rwTxn("A", "a"))
	if err != nil {
		return g, nil // a crash at A's open
	}
	for _, st := range a.Declared().Steps {
		if err := a.Step(st); err != nil {
			t.Fatalf("A's step %s: %v", st, err)
		}
	}
	type outcome struct {
		s   Sess
		err error
	}
	done := make(chan outcome, 2)
	go func() { done <- outcome{a, a.Commit()} }()
	held := func(n int32, what string) {
		for deadline := time.Now().Add(5 * time.Second); g.entered.Load() < n; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s while the first commit's sync was held", what)
			}
		}
	}
	held(1, "A never reached its barrier")
	go func() {
		b, err := eng.OpenRun(rwTxn("B", "b"))
		if err == nil {
			err = b.Run()
		}
		done <- outcome{b, err}
	}()
	held(2, "B did not reach its barrier")
	release()
	var acked []Sess
	for i := 0; i < 2; i++ {
		if o := <-done; o.err == nil {
			acked = append(acked, o.s)
		}
	}
	return g, acked
}

// TestCommitSyncOutsideDrain: a commit's barrier runs after its drain is
// released, so while one commit waits on the disk another session on
// the same partition opens, steps and commits up to its own barrier;
// then one write and sync acknowledges both. No append writes the WAL —
// everything under the drain is only buffered. A crash cut at every
// byte of that run's barrier writes must then restore every
// acknowledged commit committed.
func TestCommitSyncOutsideDrain(t *testing.T) {
	g, acked := syncOutsideDrain(t, t.TempDir(), nil)
	if len(acked) != 2 {
		t.Fatalf("%d commits acknowledged, want A and B", len(acked))
	}
	if n := g.writes.Load(); n != 1 {
		t.Fatalf("%d barrier writes acknowledged the two commits, want one shared", n)
	}
	if n := g.drainWrites.Load(); n != 0 {
		t.Fatalf("%d appends wrote the WAL under the gate drain, want none", n)
	}
	total := g.st.WALBytes()

	for limit := int64(0); limit <= total; limit++ {
		dir := t.TempDir()
		_, acked := syncOutsideDrain(t, dir, func(st *recovery.Store) recovery.Persister {
			return &crashPersister{st: st, limit: limit}
		})
		reng, info, err := NewDurableSessionEngine(model.NewState("a", "b"), Config{Policy: policy.TwoPhase{}, DataDir: dir})
		if err != nil {
			t.Fatalf("bytes=%d: restore: %v", limit, err)
		}
		if info.Commits < len(acked) {
			t.Fatalf("bytes=%d: recovered %d commits < %d acknowledged", limit, info.Commits, len(acked))
		}
		for _, s := range acked {
			_, err := reng.Resume(s.SID(), s.Token())
			if !errors.Is(err, ErrSessionDone) || !strings.HasSuffix(err.Error(), "the transaction committed") {
				t.Fatalf("bytes=%d: resume of acknowledged %s = %v, want it committed", limit, s.Declared().Name, err)
			}
		}
		if _, err := reng.Close(); err != nil {
			t.Fatalf("bytes=%d: close after restore: %v", limit, err)
		}
	}
}

// failSync passes every append through and fails every barrier once
// armed.
type failSync struct {
	recovery.Persister
	armed *atomic.Bool
}

func (f failSync) Sync() error {
	if f.armed.Load() {
		return errInjected
	}
	return f.Persister.(syncer).Sync()
}

// TestDurableSyncFailureStopsEngine: a commit whose barrier fails is
// never acknowledged, for a local row, whose barrier runs after the
// drain, and for a spanning one, whose statuses are synced inside it,
// driven step by step or as a run. The failure is the engine's fatal
// error: a resume of the session is refused naming it, never answered
// "committed", and Close reports it.
func TestDurableSyncFailureStopsEngine(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	for _, arm := range []struct {
		name  string
		parts int
		tx    model.Txn
	}{
		{"local", 1, rwTxn("T", e0)},
		{"spanning", 2, spanTxn("T", e0, e1)},
	} {
		for _, run := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/run=%v", arm.name, run), func(t *testing.T) {
				var armed atomic.Bool
				eng, _, err := NewDurableSessionEngine(model.NewState(e0, e1), Config{
					Policy: policy.TwoPhase{}, DataDir: t.TempDir(), Fsync: true, Partitions: arm.parts,
					WrapPersister: func(p recovery.Persister) recovery.Persister {
						return failSync{Persister: p, armed: &armed}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				open := eng.OpenSession
				if run {
					open = eng.OpenRun
				}
				s, err := open(arm.tx)
				if err != nil {
					t.Fatal(err)
				}
				armed.Store(true)
				if err := s.Run(); !errors.Is(err, errInjected) {
					t.Fatalf("commit over a failed barrier = %v, want the injected failure", err)
				}
				if _, err := eng.Resume(s.SID(), s.Token()); !errors.Is(err, errInjected) || strings.Contains(err.Error(), "committed") {
					t.Fatalf("resume after the failed barrier = %v, want the failure, not an outcome", err)
				}
				if _, err := eng.Close(); !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "persistence failed") {
					t.Fatalf("Close = %v, want the named persistence failure", err)
				}
			})
		}
	}
}
