package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

// driveSession pushes the declared steps of tx through s, retrying from
// the first step on ErrAborted, and commits. Mirrors runner.runTxn's
// retry loop, client-side.
func driveSession(t *testing.T, s *Session) error {
	t.Helper()
	for {
		err := s.stepAll()
		if err == nil {
			err = s.Commit()
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrAborted) {
			continue
		}
		return err
	}
}

// stepAll submits every remaining declared step.
func (s *Session) stepAll() error {
	for s.pos < s.tx.Len() {
		if err := s.Step(s.tx.Steps[s.pos]); err != nil {
			return err
		}
	}
	return nil
}

// sessionKind is one of the three ways a session runs — on the one
// partition of a one-partition engine, on its home partition of two, or
// across both; the session contract tests range over all of them,
// because the contract is the same code whatever the row's span.
type sessionKind struct {
	name  string
	parts int
	cross bool // the body spans partitions: the cross-partition drain
}

var sessionKinds = []sessionKind{
	{name: "plain", parts: 1},
	{name: "local", parts: 2},
	{name: "cross", parts: 2, cross: true},
}

// start returns an engine of this kind over two entities homed in
// different partitions of a 2-way split, and a body of this kind. Two
// sessions running the body conflict on its first lock.
func (k sessionKind) start(t *testing.T, cfg Config) (SessionEngine, model.Txn) {
	t.Helper()
	e0, e1 := partitionedEntities(t)
	cfg.Policy, cfg.Partitions = policy.TwoPhase{}, k.parts
	body := rwTxn("T", e0)
	if k.cross {
		body = spanTxn("T", e0, e1)
	}
	return NewSessionEngine(model.NewState(e0, e1), cfg), body
}

// open opens body and checks the session's row spans what the kind
// names: every partition for a cross-partition body, its home alone
// otherwise.
func (k sessionKind) open(t *testing.T, eng SessionEngine, body model.Txn) *Session {
	t.Helper()
	s, err := eng.OpenSession(body)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	if k.cross {
		want = k.parts
	}
	if got := len(s.x.span); got != want {
		t.Fatalf("%s session spans %d partitions, want %d", k.name, got, want)
	}
	return s
}

func TestSessionBasicCommit(t *testing.T) {
	e := NewSessionEngine(model.NewState("a", "b"), Config{Policy: policy.TwoPhase{}, GateStripes: 4})
	txA := model.Txn{Name: "A", Steps: []model.Step{model.LX("a"), model.W("a"), model.LX("b"), model.W("b"), model.UX("a"), model.UX("b")}}
	txB := model.Txn{Name: "B", Steps: []model.Step{model.LX("a"), model.R("a"), model.UX("a")}}
	sa, err := e.OpenSession(txA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := e.OpenSession(txB)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- driveSession(t, sa) }()
	go func() { done <- driveSession(t, sb) }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits != 2 || res.Metrics.GaveUp != 0 {
		t.Fatalf("commits=%d gaveup=%d, want 2/0", res.Metrics.Commits, res.Metrics.GaveUp)
	}
	if res.Metrics.Events != txA.Len()+txB.Len() {
		t.Fatalf("events=%d, want %d", res.Metrics.Events, txA.Len()+txB.Len())
	}
}

func TestSessionOpenRejectsMalformed(t *testing.T) {
	e := NewSessionEngine(model.NewState("a"), Config{})
	// Unlock of a lock that is not held.
	if _, err := e.OpenSession(model.Txn{Steps: []model.Step{model.UX("a")}}); err == nil {
		t.Fatal("malformed body accepted")
	}
	// Entity locked twice.
	twice := model.Txn{Steps: []model.Step{model.LX("a"), model.UX("a"), model.LX("a"), model.UX("a")}}
	if _, err := e.OpenSession(twice); err == nil {
		t.Fatal("lock-twice body accepted")
	}
	if _, err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenSession(model.Txn{Steps: []model.Step{model.LX("a"), model.UX("a")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after Close = %v, want ErrClosed", err)
	}
}

// TestSessionStepMismatch: an undeclared step and an early commit are
// refused without touching the session, and a client Abort finishes it,
// counted in GaveUp with nothing left in the log.
func TestSessionStepMismatch(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			eng, body := k.start(t, Config{})
			s := k.open(t, eng, body)
			if err := s.Step(model.LX("undeclared")); !errors.Is(err, ErrStepMismatch) {
				t.Fatalf("undeclared step = %v, want ErrStepMismatch", err)
			}
			if err := s.Step(body.Steps[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(); !errors.Is(err, ErrStepMismatch) {
				t.Fatalf("early commit = %v, want ErrStepMismatch", err)
			}
			if err := s.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := s.Step(body.Steps[1]); !errors.Is(err, ErrSessionDone) {
				t.Fatalf("step after abort = %v, want ErrSessionDone", err)
			}
			res, err := eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.GaveUp != 1 || res.Metrics.Events != 0 {
				t.Fatalf("gaveup=%d events=%d, want 1/0", res.Metrics.GaveUp, res.Metrics.Events)
			}
		})
	}
}

// TestSessionCancelWakesParkedStep: Cancel is safe concurrently with the
// owner's in-flight call — a Step parked inside a lock acquisition is
// woken and fails with ErrCancelled, and the cancelled session counts in
// GaveUp while the lock's holder commits undisturbed.
func TestSessionCancelWakesParkedStep(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			eng, body := k.start(t, Config{})
			holder := k.open(t, eng, body)
			if err := holder.Step(body.Steps[0]); err != nil {
				t.Fatal(err)
			}
			victim := k.open(t, eng, body)
			stepped := make(chan error, 1)
			go func() { stepped <- victim.Step(body.Steps[0]) }()
			for !victim.st.busy.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			victim.Cancel()
			if err := <-stepped; !errors.Is(err, ErrCancelled) {
				t.Fatalf("step of a cancelled session = %v, want ErrCancelled", err)
			}
			victim.Cancel() // a finished session: no-op
			if err := holder.Run(); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if m := res.Metrics; m.Commits != 1 || m.GaveUp != 1 || m.Events != body.Len() {
				t.Fatalf("commits=%d gaveup=%d events=%d, want 1/1/%d", m.Commits, m.GaveUp, m.Events, body.Len())
			}
		})
	}
}

// TestSessionRunStopsAtPark: a park ends Session.Run's retry loop. A Run
// waiting on a lock and interrupted returns ErrCancelled instead of
// retrying on a session that no longer holds an MPL slot, and the
// transaction stays open: the Session Resume hands out runs it to
// commit.
func TestSessionRunStopsAtPark(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			eng, body := k.start(t, Config{})
			holder := k.open(t, eng, body)
			if err := holder.Step(body.Steps[0]); err != nil {
				t.Fatal(err)
			}
			victim := k.open(t, eng, body)
			ran := make(chan error, 1)
			go func() { ran <- victim.Run() }()
			for !victim.st.busy.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			victim.Interrupt()
			if err := holder.Run(); err != nil {
				t.Fatal(err)
			}
			if err := <-ran; !errors.Is(err, ErrCancelled) {
				t.Fatalf("Run of a parked session = %v, want ErrCancelled", err)
			}
			rs, err := eng.Resume(victim.SID(), victim.Token())
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Run(); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if m := res.Metrics; m.Commits != 2 || m.GaveUp != 0 || m.Events != 2*body.Len() {
				t.Fatalf("commits=%d gaveup=%d events=%d, want 2/0/%d", m.Commits, m.GaveUp, m.Events, 2*body.Len())
			}
		})
	}
}

// TestRetryLoopStopsWithRow pins the one retry loop (txn.retry): it
// stops as soon as the row does. Every attempt of the body aborts (its
// read names an entity that never exists), with a retry budget that
// never runs out and a backoff long enough to land in. A Session.Run
// cancelled during a backoff returns ErrCancelled, and a cascade re-run
// (runTxn) stops once the engine has failed; in both arms the row's
// attempts stop growing. The spanning arms record the engine failure on
// a partition other than the row's owner replica. A loop that retries
// without reading the row, or reads the owner's failure alone, never
// returns.
func TestRetryLoopStopsWithRow(t *testing.T) {
	body := model.Txn{Name: "T", Steps: []model.Step{model.LS("x"), model.R("x"), model.US("x")}}
	cfg := Config{MaxRetries: 1 << 20, Backoff: 20 * time.Millisecond}
	// waitAttempts polls x's row until it has been charged n attempts.
	waitAttempts := func(x *txn, n int) {
		for x.readRow().attempts < n {
			time.Sleep(time.Millisecond)
		}
	}
	// settled fails unless done closes in time, then unless x's attempts
	// stay put over several backoffs.
	settled := func(t *testing.T, x *txn, done <-chan struct{}) {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the retry loop did not stop")
		}
		before := x.readRow().attempts
		time.Sleep(5 * cfg.Backoff)
		if after := x.readRow().attempts; after != before {
			t.Fatalf("attempts grew from %d to %d after the loop stopped", before, after)
		}
	}

	t.Run("session-cancel", func(t *testing.T) {
		eng := NewSessionEngine(model.NewState(), cfg)
		s, err := eng.OpenSession(body)
		if err != nil {
			t.Fatal(err)
		}
		var ran error
		done := make(chan struct{})
		go func() { ran = s.Run(); close(done) }()
		waitAttempts(&s.x, 2)
		s.Cancel()
		settled(t, &s.x, done)
		if !errors.Is(ran, ErrCancelled) {
			t.Fatalf("Run of a cancelled session = %v, want ErrCancelled", ran)
		}
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("rerun-fatal", func(t *testing.T) {
		r := referencePartition(model.NewSystem(model.NewState(), body), cfg)
		x := r.rowTxn(0)
		r.pe.wg.Add(1)
		go x.runTxn()
		waitAttempts(x, 2)
		r.gate.drain()
		r.fatal = errors.New("injected engine failure")
		r.gate.undrain()
		done := make(chan struct{})
		go func() { r.pe.wg.Wait(); close(done) }()
		settled(t, x, done)
	})

	// The spanning arms: a failed store write records its error on its own
	// partition only, here the second, while the row's owner replica is
	// the first. The loop must still see it and stop, and Close return it.
	e0, e1 := partitionedEntities(t)
	injected := errors.New("injected store failure")
	spanned := func(t *testing.T) (*PartitionedEngine, *Session) {
		pcfg := cfg
		pcfg.Partitions = 2
		pe := NewSessionEngine(model.NewState(e0), pcfg).(*PartitionedEngine)
		// e1 never exists, so every attempt aborts at its read.
		s, err := pe.OpenSession(model.Txn{Name: "S", Steps: []model.Step{
			model.LS(e0), model.LS(e1), model.R(e0), model.R(e1), model.US(e0), model.US(e1),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.x.span) != 2 {
			t.Fatalf("the body spans %d partitions, want 2", len(s.x.span))
		}
		return pe, s
	}
	failSecond := func(pe *PartitionedEngine) {
		r := pe.parts[1]
		r.gate.drain()
		r.fatal = injected
		r.gate.undrain()
	}
	closed := func(t *testing.T, pe *PartitionedEngine) {
		if _, err := pe.Close(); !errors.Is(err, injected) {
			t.Fatalf("Close of a failed engine = %v, want the injected failure", err)
		}
	}

	t.Run("session-span-fatal", func(t *testing.T) {
		pe, s := spanned(t)
		var ran error
		done := make(chan struct{})
		go func() { ran = s.Run(); close(done) }()
		waitAttempts(&s.x, 2)
		failSecond(pe)
		settled(t, &s.x, done)
		if !errors.Is(ran, injected) {
			t.Fatalf("Run on a failed engine = %v, want the injected failure", ran)
		}
		closed(t, pe)
	})

	t.Run("rerun-span-fatal", func(t *testing.T) {
		pe, s := spanned(t)
		pe.wg.Add(1)
		go s.x.runTxn()
		waitAttempts(&s.x, 2)
		failSecond(pe)
		done := make(chan struct{})
		go func() { pe.wg.Wait(); close(done) }()
		settled(t, &s.x, done)
		closed(t, pe)
	})
}

// TestSessionPolicyAbortAndRetry pins the abort/retry contract: a
// non-two-phase body is vetoed under 2PL at its post-unlock lock, the
// whole attempt is erased, and the client's retry fails the same way
// until the budget runs out. The budget is the caller's on every
// backend: with the MaxRetries sentinel (-1: no retries) the first abort
// abandons, also on a partition of a multi-partition engine — whose
// constructor once defaulted the configuration twice (-1 → 0 → 40).
func TestSessionPolicyAbortAndRetry(t *testing.T) {
	// Two entities of one partition, so the body is partition-local.
	var ents []model.Entity
	for c := byte('a'); len(ents) < 2; c++ {
		if e := model.Entity([]byte{c}); model.PartitionOf(e, 2) == 0 {
			ents = append(ents, e)
		}
	}
	a, b := ents[0], ents[1]
	for _, tc := range []struct{ parts, maxRetries, aborts int }{
		{parts: 1, maxRetries: 2, aborts: 2}, // attempts 1 and 2 abort, attempt 3 abandons
		{parts: 2, maxRetries: 2, aborts: 2},
		{parts: 1, maxRetries: -1, aborts: 0},
		{parts: 2, maxRetries: -1, aborts: 0},
	} {
		t.Run(fmt.Sprintf("partitions=%d/retries=%d", tc.parts, tc.maxRetries), func(t *testing.T) {
			e := NewSessionEngine(model.NewState(a, b), Config{Policy: policy.TwoPhase{}, Partitions: tc.parts, MaxRetries: tc.maxRetries, Backoff: -1})
			bad := model.Txn{Steps: []model.Step{model.LX(a), model.UX(a), model.LX(b), model.UX(b)}}
			s, err := e.OpenSession(bad)
			if err != nil {
				t.Fatal(err)
			}
			aborts := 0
			for {
				err := s.stepAll()
				if errors.Is(err, ErrAborted) {
					aborts++
					continue
				}
				if !errors.Is(err, ErrAbandoned) {
					t.Fatalf("want ErrAbandoned eventually, got %v", err)
				}
				break
			}
			if aborts != tc.aborts {
				t.Fatalf("aborts=%d, want %d", aborts, tc.aborts)
			}
			if m := e.Stats(); m.GaveUp != 1 {
				t.Fatalf("Stats().GaveUp=%d, want 1", m.GaveUp)
			}
			res, err := e.Close()
			if err != nil {
				t.Fatal(err)
			}
			if m := res.Metrics; m.PolicyAborts != tc.aborts+1 || m.GaveUp != 1 || m.Events != 0 {
				t.Fatalf("pol=%d gaveup=%d events=%d, want %d/1/0", m.PolicyAborts, m.GaveUp, m.Events, tc.aborts+1)
			}
		})
	}
}

// fakeClock is an atomically advanced time source for deterministic
// lease tests.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestSessionLeaseExpiry is the stalled-client scenario: a session that
// holds a lock and goes silent is aborted once its lease passes, its
// locks are released, and a session waiting on that lock proceeds.
// Deterministic: the clock is injected and Reap is called explicitly.
func TestSessionLeaseExpiry(t *testing.T) {
	for _, k := range sessionKinds {
		t.Run(k.name, func(t *testing.T) {
			clock := &fakeClock{}
			e, body := k.start(t, Config{Lease: time.Second, Clock: clock.now})
			stalled := k.open(t, e, body)
			// The stalled client acquires the lock, then goes silent.
			if err := stalled.Step(body.Steps[0]); err != nil {
				t.Fatal(err)
			}
			waiter := k.open(t, e, body)
			waited := make(chan error, 1)
			go func() { waited <- driveSession(t, waiter) }()
			// Wait until the waiter's Step is in flight: it then parks on the
			// stalled session's lock and stays busy — and the reaper never
			// touches a busy session — so the upcoming Reap can only see the
			// stalled one.
			for !waiter.st.busy.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			clock.advance(2 * time.Second)
			if n := e.Reap(); n != 1 {
				t.Fatalf("Reap() = %d, want 1 (the stalled session)", n)
			}
			if err := <-waited; err != nil {
				t.Fatalf("waiting session did not proceed after the lease expiry: %v", err)
			}
			if err := stalled.Step(body.Steps[1]); !errors.Is(err, ErrLeaseExpired) {
				t.Fatalf("stalled session step = %v, want ErrLeaseExpired", err)
			}
			res, err := e.Close()
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.Commits != 1 || m.GaveUp != 1 || m.LeaseExpired != 1 {
				t.Fatalf("commits=%d gaveup=%d leaseexpired=%d, want 1/1/1", m.Commits, m.GaveUp, m.LeaseExpired)
			}
			if m.Events != body.Len() {
				t.Fatalf("events=%d, want %d (the stalled attempt must be erased)", m.Events, body.Len())
			}
		})
	}
}

// TestSessionTraceEquivalence drives the same randomized traces through
// (a) the reference drive (ReplayTrace), which steps the engine's rows
// without the session layer, and (b) in-process sessions opened on a
// grown engine, and requires identical digests: logs, states, monitor
// keys, serializability verdicts and abort accounting. This pins that
// the session layer — open, step, commit, drop — adds nothing
// observable to the row machine it drives.
func TestSessionTraceEquivalence(t *testing.T) {
	arms := []struct {
		name   string
		pol    policy.Policy
		wl     workload.Config
		commit bool
	}{
		{"2PL", policy.TwoPhase{}, func() workload.Config {
			c := workload.DefaultConfig()
			c.PStructural = 0
			return c
		}(), true},
		{"altruistic", policy.Altruistic{}, workload.DefaultConfig(), false},
	}
	for _, arm := range arms {
		for seed := int64(0); seed < 20; seed++ {
			sys, sched := workload.Random(rand.New(rand.NewSource(seed)), arm.wl)
			if len(sched) == 0 {
				continue
			}
			cfg := Config{Policy: arm.pol, GateStripes: 8, CheckpointEvery: 3}
			ref, err := ReplayTrace(sys, sched, cfg, arm.commit)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arm.name, seed, err)
			}
			got, err := driveSessions(sys, sched, cfg, arm.commit)
			if err != nil {
				t.Fatalf("%s seed %d: %v", arm.name, seed, err)
			}
			if got.Digest() != ref.Digest() {
				t.Fatalf("%s seed %d: sessions diverge from the batch drive:\n--- sessions ---\n%s\n--- batch ---\n%s",
					arm.name, seed, got.Digest(), ref.Digest())
			}
		}
	}
}

// driveSessions replays a trace through in-process sessions of the
// engine cfg selects, one OpenSession per transaction, single-threaded,
// dropping a session on abort exactly as ReplayTrace drops a
// transaction.
func driveSessions(sys *model.System, sched model.Schedule, cfg Config, commit bool) (*Inspection, error) {
	e := NewSessionEngine(sys.Init, cfg)
	sess := make([]Sess, len(sys.Txns))
	for i, tx := range sys.Txns {
		s, err := e.OpenSession(tx)
		if err != nil {
			return nil, err
		}
		sess[i] = s
	}
	dropped := make([]bool, len(sys.Txns))
	fed := make([]int, len(sys.Txns))
	for _, ev := range sched {
		tn := int(ev.T)
		if dropped[tn] {
			continue
		}
		if err := sess[tn].Step(ev.S); err != nil {
			if errors.Is(err, ErrAborted) || errors.Is(err, ErrAbandoned) {
				dropped[tn] = true
				continue
			}
			return nil, err
		}
		fed[tn]++
		if commit && fed[tn] == sys.Txns[tn].Len() {
			if err := sess[tn].Commit(); err != nil {
				return nil, err
			}
		}
	}
	ins := e.Inspect()
	return &ins, nil
}
