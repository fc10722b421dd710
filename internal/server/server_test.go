package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	"locksafe/internal/runtime"
	"locksafe/internal/wire"
	"locksafe/internal/workload"
	"locksafe/pkg/client"
)

// startServer spins a server on an ephemeral loopback port and returns
// its address. The caller shuts it down (or the test just leaks it into
// process teardown when exercising failure paths).
func startServer(t *testing.T, init model.State, cfg runtime.Config) (*Server, string) {
	t.Helper()
	srv := New(init, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// rawConn is a raw protocol connection: full control over the
// handshake, sids, tokens, declared bodies and step bytes, which the
// client API deliberately hides (Session.token is not settable, so a
// wrong-token resume can only be expressed on the wire). It starts, like
// every connection, in the JSON hello state.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	rd *wire.Reader
	wr *wire.Writer
	id uint64
}

// openRaw connects without saying hello.
func openRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, nc: nc, rd: wire.NewReader(nc), wr: wire.NewWriter(nc)}
}

// dialRaw connects and completes the handshake: the connection is in
// the binary codec from here on.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c := openRaw(t, addr)
	if resp := c.roundTrip(wire.Request{Op: wire.OpHello, Version: wire.Version}); !resp.OK {
		t.Fatalf("hello refused: %+v", resp)
	}
	c.rd.SetCodec(wire.CodecBinary)
	c.wr.SetCodec(wire.CodecBinary)
	return c
}

func (c *rawConn) roundTrip(req wire.Request) wire.Response {
	c.t.Helper()
	c.id++
	req.ID = c.id
	if err := c.wr.WriteRequests([]wire.Request{req}); err != nil {
		c.t.Fatal(err)
	}
	if err := c.wr.Flush(); err != nil {
		c.t.Fatal(err)
	}
	resps, err := c.rd.ReadResponses()
	if err != nil {
		c.t.Fatal(err)
	}
	if len(resps) != 1 {
		c.t.Fatalf("got %d responses, want 1", len(resps))
	}
	return resps[0]
}

// expectEOF asserts the server has closed the connection.
func (c *rawConn) expectEOF() {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if resps, err := c.rd.ReadResponses(); !errors.Is(err, io.EOF) {
		c.t.Fatalf("connection still open: read %+v, err %v, want EOF", resps, err)
	}
}

func (c *rawConn) close() {
	c.rd.Release()
	c.wr.Release()
	c.nc.Close()
}

func TestServerBasicCommit(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a", "b"), runtime.Config{Policy: policy.TwoPhase{}, GateStripes: 4})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Policy() != "2PL" {
		t.Fatalf("handshake policy = %q, want 2PL", c.Policy())
	}
	tx := model.Txn{Name: "T", Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}
	s, err := c.Open(tx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range tx.Steps {
		if err := s.Step(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// A finished session refuses further work.
	if err := s.Commit(); !errors.Is(err, client.ErrSessionDone) {
		t.Fatalf("commit after commit = %v, want ErrSessionDone", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits != 1 || st.Events != 3 || st.OpenSessions != 0 {
		t.Fatalf("stats = %+v, want commits=1 events=3 open=0", st)
	}
	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits != 1 {
		t.Fatalf("final commits = %d, want 1", res.Metrics.Commits)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}})
	defer srv.Shutdown(time.Second)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Malformed declared body.
	if _, err := c.Open(model.Txn{Steps: []model.Step{model.UX("a")}}); err == nil {
		t.Fatal("malformed body accepted")
	}
	// Undeclared step.
	s, err := c.Open(model.Txn{Steps: []model.Step{model.LX("a"), model.UX("a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(model.W("a")); !errors.Is(err, client.ErrStepMismatch) {
		t.Fatalf("undeclared step = %v, want ErrStepMismatch", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	// Unknown session id.
	if err := s.Step(model.LX("a")); !errors.Is(err, client.ErrSessionDone) {
		t.Fatalf("step on finished session = %v, want ErrSessionDone", err)
	}
}

// failOpen is a store whose open records fail: the engine goes fatal at
// its first open.
type failOpen struct{ recovery.Persister }

func (failOpen) AppendOpen(recovery.OpenRec) error { return errors.New("disk full") }

// TestServerEngineFailureIsInternal: once the engine has failed, an open
// or a run is refused `internal` (expect the server to go down), not
// `malformed`, which names a declared body refused at open. A body that
// locks an entity twice is still refused `malformed`.
func TestServerEngineFailureIsInternal(t *testing.T) {
	srv, _, err := NewDurable(model.NewState("a"), runtime.Config{
		Policy: policy.TwoPhase{}, DataDir: t.TempDir(),
		WrapPersister: func(p recovery.Persister) recovery.Persister { return failOpen{p} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(time.Second)
	c := dialRaw(t, ln.Addr().String())
	defer c.close()
	table, csteps := model.CompactTxn([]model.Step{model.LX("a"), model.W("a"), model.UX("a")})
	for _, op := range []string{wire.OpOpen, wire.OpRun, wire.OpOpen} {
		if resp := c.roundTrip(wire.Request{Op: op, Name: "T", Table: table, CSteps: csteps}); resp.OK || resp.Code != wire.CodeInternal {
			t.Fatalf("%s after a failed write = %+v, want code %q", op, resp, wire.CodeInternal)
		}
	}
	table, csteps = model.CompactTxn([]model.Step{model.LX("a"), model.UX("a"), model.LX("a"), model.UX("a")})
	if resp := c.roundTrip(wire.Request{Op: wire.OpOpen, Name: "twice", Table: table, CSteps: csteps}); resp.OK || resp.Code != wire.CodeMalformed {
		t.Fatalf("lock-twice open = %+v, want code %q", resp, wire.CodeMalformed)
	}
}

// TestServerBadStepKeepsSession pins that a step the server cannot
// resolve is refused bad-request without executing, and that the
// session — cursor, locks, lease — is untouched by it: the declared body
// still runs to commit and the refused request contributed no events
// (regression: a refused step used to orphan the engine session with
// its locks held). An entity index past the declared table is refused
// per request and the connection carries on; an invalid op byte makes
// the whole frame undecodable, so the connection is closed and the
// session parked — resumed here on a fresh connection.
func TestServerBadStepKeepsSession(t *testing.T) {
	steps := []model.Step{model.LX("a"), model.W("a"), model.UX("a")}
	table, csteps := model.CompactTxn(steps)
	for _, tc := range []struct {
		name      string
		bad       model.CompactStep
		killsConn bool
	}{
		{"index past the table", model.CompactStep{Op: model.LockExclusive, Idx: 7}, false},
		{"invalid op byte", model.CompactStep{Op: model.Op(0xEE), Idx: 0}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}, GateStripes: 4})
			defer srv.Shutdown(time.Second)
			c := dialRaw(t, addr)
			defer func() { c.close() }()
			open := c.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps})
			if !open.OK {
				t.Fatalf("open refused: %+v", open)
			}
			if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: csteps[0], HasCompact: true}); !resp.OK {
				t.Fatalf("first declared step refused: %+v", resp)
			}
			bad := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: tc.bad, HasCompact: true})
			if bad.OK || bad.Code != wire.CodeBadReq {
				t.Fatalf("bad step = %+v, want CodeBadReq", bad)
			}
			next := csteps[1:]
			if tc.killsConn {
				c.expectEOF()
				waitParked(t, addr, open.SID, open.Token)
				c.close()
				c = dialRaw(t, addr)
				if resp := c.roundTrip(resumeReq(open.SID, open.Token, steps)); !resp.OK {
					t.Fatalf("resume after the undecodable frame: %+v", resp)
				}
				next = csteps // the park erased the attempt
			}
			for i, cs := range next {
				if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: cs, HasCompact: true}); !resp.OK {
					t.Fatalf("declared step %d refused after the bad step: %+v", i, resp)
				}
			}
			if resp := c.roundTrip(wire.Request{Op: wire.OpCommit, SID: open.SID}); !resp.OK {
				t.Fatalf("commit refused: %+v", resp)
			}
			stats := c.roundTrip(wire.Request{Op: wire.OpStats})
			if stats.Stats == nil || stats.Stats.Commits != 1 || stats.Stats.Events != 3 || stats.Stats.GaveUp != 0 {
				t.Fatalf("stats = %+v, want commits=1 events=3 gaveup=0", stats.Stats)
			}
		})
	}
}

// TestServerSessionQueueBound pins the per-session pipeline bound over
// the raw wire (the Go client's window stays below it): a session
// holds at most sessionQueue pending requests, the executing one
// included. Its first step parks on a held lock and a burst of 200
// more follows in one frame; the burst's first 127 are queued and every
// later one is refused bad-request at once, echoing the session's sid.
// Once the lock frees, the queued requests are answered in submission
// order, and the session goes on to commit.
func TestServerSessionQueueBound(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}, GateStripes: 4})
	defer srv.Shutdown(time.Second)
	holder, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	hs, err := holder.Open(model.Txn{Name: "H", Steps: []model.Step{model.LX("a"), model.UX("a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Step(model.LX("a")); err != nil {
		t.Fatal(err)
	}

	const burst = 200
	steps := []model.Step{model.LX("a")}
	for range burst - 1 {
		steps = append(steps, model.W("a"))
	}
	steps = append(steps, model.UX("a"))
	table, csteps := model.CompactTxn(steps)
	c := dialRaw(t, addr)
	defer c.close()
	open := c.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps})
	if !open.OK {
		t.Fatalf("open refused: %+v", open)
	}
	// Request i carries declared step i; request 0 parks on the lock.
	first := c.id + 1
	reqs := make([]wire.Request, burst+1)
	for i := range reqs {
		c.id++
		reqs[i] = wire.Request{ID: c.id, Op: wire.OpStep, SID: open.SID, CStep: csteps[i], HasCompact: true}
	}
	if err := c.wr.WriteRequests(reqs); err != nil {
		t.Fatal(err)
	}
	if err := c.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	read := func(n int) []wire.Response {
		var out []wire.Response
		for len(out) < n {
			resps, err := c.rd.ReadResponses()
			if err != nil {
				t.Fatalf("after %d of %d responses: %v", len(out), n, err)
			}
			out = append(out, resps...)
		}
		if len(out) != n {
			t.Fatalf("read %d responses, want %d", len(out), n)
		}
		return out
	}
	queued := sessionQueue - 1 // behind the executing request 0
	for _, resp := range read(burst - queued) {
		i := int(resp.ID - first)
		if resp.OK || resp.Code != wire.CodeBadReq || resp.Err != "session pipeline deeper than 128 requests" || resp.SID != open.SID {
			t.Fatalf("request %d answered %+v while the session is parked, want the pipeline refusal for sid %d", i, resp, open.SID)
		}
		if i <= queued {
			t.Fatalf("request %d refused; the first refusal must be request %d", i, queued+1)
		}
	}
	if err := hs.Step(model.UX("a")); err != nil {
		t.Fatal(err)
	}
	if err := hs.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, resp := range read(queued + 1) {
		if !resp.OK || resp.ID != first+uint64(i) || resp.SID != open.SID {
			t.Fatalf("answer %d after the lock freed = %+v, want request %d OK", i, resp, i)
		}
	}
	for i := queued + 1; i < len(csteps); i++ {
		if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: csteps[i], HasCompact: true}); !resp.OK {
			t.Fatalf("declared step %d refused after the burst: %+v", i, resp)
		}
	}
	if resp := c.roundTrip(wire.Request{Op: wire.OpCommit, SID: open.SID}); !resp.OK {
		t.Fatalf("commit refused: %+v", resp)
	}
}

// TestServerRefusalsEchoSID pins PROTOCOL.md §3.3 over the raw wire: a
// request that names a session is answered with that sid, refusals
// included — one for a session this connection never opened, and the
// requests pipelined behind a commit that finished their session, which
// are refused whether they were queued behind the commit, reached a
// finished worker or arrived after it was forgotten.
func TestServerRefusalsEchoSID(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}})
	defer srv.Shutdown(time.Second)
	c := dialRaw(t, addr)
	defer c.close()
	table, csteps := model.CompactTxn([]model.Step{model.LX("a"), model.UX("a")})
	// Session ids start at 0, the sid an answer that omits it carries, so
	// the session under test is the second one opened.
	var open wire.Response
	for range 2 {
		if open = c.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps}); !open.OK {
			t.Fatalf("open refused: %+v", open)
		}
	}
	unknown := open.SID + 1000
	if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: unknown, CStep: csteps[0], HasCompact: true}); resp.OK || resp.Code != wire.CodeDone || resp.SID != unknown {
		t.Fatalf("step on unknown sid %d answered %+v, want a done refusal echoing the sid", unknown, resp)
	}
	for _, st := range csteps {
		if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: st, HasCompact: true}); !resp.OK {
			t.Fatalf("step refused: %+v", resp)
		}
	}
	// The commit and three requests behind it in one frame.
	reqs := []wire.Request{{Op: wire.OpCommit, SID: open.SID}, {Op: wire.OpStep, SID: open.SID, CStep: csteps[0], HasCompact: true}, {Op: wire.OpCommit, SID: open.SID}, {Op: wire.OpAbort, SID: open.SID}}
	for i := range reqs {
		c.id++
		reqs[i].ID = c.id
	}
	if err := c.wr.WriteRequests(reqs); err != nil {
		t.Fatal(err)
	}
	if err := c.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var resps []wire.Response
	for len(resps) < len(reqs) {
		got, err := c.rd.ReadResponses()
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, got...)
	}
	for _, resp := range resps {
		if resp.SID != open.SID {
			t.Fatalf("answer %+v does not echo sid %d", resp, open.SID)
		}
		switch {
		case resp.ID == reqs[0].ID:
			if !resp.OK {
				t.Fatalf("commit refused: %+v", resp)
			}
		case resp.OK || resp.Code != wire.CodeDone:
			t.Fatalf("request %d behind the commit answered %+v, want a done refusal", resp.ID, resp)
		}
	}
}

// wireInspection reads a wire inspect answer back into the runtime's
// Inspection, so every substrate is compared through its one Digest.
func wireInspection(ins wire.Inspect) *runtime.Inspection {
	st := ins.Stats
	return &runtime.Inspection{
		Log: ins.Log, State: ins.State, MonitorKey: ins.MonitorKey, Serializable: ins.Serializable,
		Metrics: runtime.Metrics{
			Commits: st.Commits, GaveUp: st.GaveUp, DeadlockAborts: st.DeadlockAborts, PolicyAborts: st.PolicyAborts,
			ImproperAborts: st.ImproperAborts, CascadeAborts: st.CascadeAborts, Events: st.Events,
		},
	}
}

// TestSessionGateEquivalence is the acceptance pin of the service
// layer: the same randomized trace driven through (a) the reference
// drive (runtime.ReplayTrace), (b) in-process runtime Sessions, (c)
// per-step pkg/client sessions and (d) pipelined pkg/client sessions
// against an in-memory lockd produces identical logs, structural
// states, monitor keys, serializability verdicts and abort accounting —
// network sessions add transport, not semantics, whatever the transport
// mode.
//
// The stored-procedure (run-op) arm is compared on a transaction-serial
// rendering of the same systems: run mode executes each declared body
// contiguously, so only serial traces are expressible, and the retry
// budget is set to zero so an abort abandons identically in every arm
// (serially, aborts are deterministic — the replay drops the
// transaction, the clients observe ErrAbandoned, and the engine-side
// run loop terminates instead of re-hitting the same veto and skewing
// the abort counts).
//
// The committing arm is driven once more with TruncateLog on — the log
// truncated and the settled transactions retired from the monitors as
// the trace runs — and every client arm must then report the untruncated
// replay's outcome: the same commits, give-ups, abort counts, final
// state and verdict.
func TestSessionGateEquivalence(t *testing.T) {
	truncated := 0
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
		for seed := int64(0); seed < 15; seed++ {
			sys, sched := workload.Random(rand.New(rand.NewSource(seed)), arm.wl)
			if len(sched) == 0 {
				continue
			}
			cfg := runtime.Config{Policy: arm.pol, GateStripes: 8, CheckpointEvery: 3}

			ref, err := runtime.ReplayTrace(sys, sched, cfg, arm.commit)
			if err != nil {
				t.Fatalf("%s seed %d: batch: %v", arm.name, seed, err)
			}
			want := ref.Digest()

			if got, err := driveInProcess(sys, sched, cfg, arm.commit); err != nil {
				t.Fatalf("%s seed %d: sessions: %v", arm.name, seed, err)
			} else if got.Digest() != want {
				t.Fatalf("%s seed %d: in-process sessions diverge:\n--- sessions ---\n%s\n--- batch ---\n%s", arm.name, seed, got.Digest(), want)
			}
			if got, err := driveNetwork(t, sys, sched, cfg, arm.commit); err != nil {
				t.Fatalf("%s seed %d: network: %v", arm.name, seed, err)
			} else if got.Digest() != want {
				t.Fatalf("%s seed %d: network sessions diverge:\n--- network ---\n%s\n--- batch ---\n%s", arm.name, seed, got.Digest(), want)
			}
			if got, err := driveNetworkPipelined(t, sys, sched, cfg, arm.commit); err != nil {
				t.Fatalf("%s seed %d: pipelined: %v", arm.name, seed, err)
			} else if got.Digest() != want {
				t.Fatalf("%s seed %d: pipelined sessions diverge:\n--- pipelined ---\n%s\n--- batch ---\n%s", arm.name, seed, got.Digest(), want)
			}

			if !arm.commit {
				continue
			}
			// A snapshot after every event: traces this short otherwise end
			// before a boundary separates anything.
			tcfg := cfg
			tcfg.TruncateLog, tcfg.CheckpointEvery = true, 1
			sameOutcome := func(name string, got, want *runtime.Inspection) {
				t.Helper()
				if got.MonitorKey == "(truncated)" {
					truncated++
				}
				if g, w := got.Outcome(), want.Outcome(); g != w {
					t.Fatalf("%s seed %d: %s with TruncateLog diverges from the untruncated replay:\n--- truncating ---\n%s\n--- batch ---\n%s", arm.name, seed, name, g, w)
				}
			}
			if got, err := driveInProcess(sys, sched, tcfg, true); err != nil {
				t.Fatalf("%s seed %d: truncating sessions: %v", arm.name, seed, err)
			} else {
				sameOutcome("in-process", got, ref)
			}
			if got, err := driveNetwork(t, sys, sched, tcfg, true); err != nil {
				t.Fatalf("%s seed %d: truncating network: %v", arm.name, seed, err)
			} else {
				sameOutcome("per-step", got, ref)
			}
			// Serial rendering: each declared body contiguous, committed at
			// its end, zero retry budget — the trace shape run mode can
			// express. All four client arms must match the replay on it.
			var serial model.Schedule
			for ti, tx := range sys.Txns {
				for _, st := range tx.Steps {
					serial = append(serial, model.Ev{T: model.TID(ti), S: st})
				}
			}
			scfg := cfg
			scfg.MaxRetries = -1
			scfg.Backoff = -1
			sref, err := runtime.ReplayTrace(sys, serial, scfg, true)
			if err != nil {
				t.Fatalf("%s seed %d: serial batch: %v", arm.name, seed, err)
			}
			swant := sref.Digest()
			if got, err := driveNetwork(t, sys, serial, scfg, true); err != nil {
				t.Fatalf("%s seed %d: serial network: %v", arm.name, seed, err)
			} else if got.Digest() != swant {
				t.Fatalf("%s seed %d: serial per-step diverges:\n--- per-step ---\n%s\n--- batch ---\n%s", arm.name, seed, got.Digest(), swant)
			}
			if got, err := driveNetworkPipelined(t, sys, serial, scfg, true); err != nil {
				t.Fatalf("%s seed %d: serial pipelined: %v", arm.name, seed, err)
			} else if got.Digest() != swant {
				t.Fatalf("%s seed %d: serial pipelined diverges:\n--- pipelined ---\n%s\n--- batch ---\n%s", arm.name, seed, got.Digest(), swant)
			}
			if got, err := driveNetworkRun(t, sys, scfg); err != nil {
				t.Fatalf("%s seed %d: run mode: %v", arm.name, seed, err)
			} else if got.Digest() != swant {
				t.Fatalf("%s seed %d: run mode diverges:\n--- run ---\n%s\n--- batch ---\n%s", arm.name, seed, got.Digest(), swant)
			}
			tscfg := scfg
			tscfg.TruncateLog, tscfg.CheckpointEvery = true, 1
			if got, err := driveNetworkPipelined(t, sys, serial, tscfg, true); err != nil {
				t.Fatalf("%s seed %d: truncating serial pipelined: %v", arm.name, seed, err)
			} else {
				sameOutcome("serial pipelined", got, sref)
			}
			if got, err := driveNetworkRun(t, sys, tscfg); err != nil {
				t.Fatalf("%s seed %d: truncating run mode: %v", arm.name, seed, err)
			} else {
				sameOutcome("run mode", got, sref)
			}
		}
	}
	t.Logf("%d TruncateLog drives truncated", truncated)
	if truncated < 10 {
		t.Fatalf("only %d TruncateLog drives truncated; the arm is not exercised", truncated)
	}
}

// driveInProcess replays the trace through runtime Sessions on a grown
// engine, single-threaded, dropping a transaction on abort exactly as
// the reference drive does.
func driveInProcess(sys *model.System, sched model.Schedule, cfg runtime.Config, commit bool) (*runtime.Inspection, error) {
	e := runtime.NewSessionEngine(sys.Init, cfg)
	sess := make([]*runtime.Session, len(sys.Txns))
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
			if errors.Is(err, runtime.ErrAborted) || errors.Is(err, runtime.ErrAbandoned) {
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

// driveNetwork replays the trace through pkg/client sessions against an
// in-memory lockd on loopback, single-threaded.
func driveNetwork(t *testing.T, sys *model.System, sched model.Schedule, cfg runtime.Config, commit bool) (*runtime.Inspection, error) {
	srv, addr := startServer(t, sys.Init, cfg)
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	sess := make([]*client.Session, len(sys.Txns))
	for i, tx := range sys.Txns {
		s, err := c.Open(tx)
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
			if errors.Is(err, client.ErrAborted) || errors.Is(err, client.ErrAbandoned) {
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
	ins, err := c.Inspect()
	if err != nil {
		return nil, err
	}
	d := wireInspection(ins)
	// Leave the still-open sessions to the connection teardown; the
	// digest is already taken.
	c.Close()
	if _, err := srv.Shutdown(time.Second); err != nil {
		return nil, fmt.Errorf("shutdown after drive: %v", err)
	}
	return d, nil
}

// driveNetworkPipelined replays the trace through the async client API:
// consecutive events of the same transaction travel as one pipelined
// burst, flushed before the trace switches transactions, so the engine
// still executes in trace order (at most one session has requests in
// flight) while the transport carries whole segments per round trip. A
// commit rides the same burst as its transaction's last steps.
func driveNetworkPipelined(t *testing.T, sys *model.System, sched model.Schedule, cfg runtime.Config, commit bool) (*runtime.Inspection, error) {
	srv, addr := startServer(t, sys.Init, cfg)
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	sess := make([]*client.Session, len(sys.Txns))
	for i, tx := range sys.Txns {
		s, err := c.Open(tx)
		if err != nil {
			return nil, err
		}
		sess[i] = s
	}
	dropped := make([]bool, len(sys.Txns))
	fed := make([]int, len(sys.Txns))
	flush := func(tn int) error {
		err := sess[tn].Flush()
		if err == nil {
			return nil
		}
		if errors.Is(err, client.ErrAborted) || errors.Is(err, client.ErrAbandoned) {
			dropped[tn] = true
			return nil
		}
		return err
	}
	cur := -1
	for _, ev := range sched {
		tn := int(ev.T)
		if tn != cur {
			if cur >= 0 {
				if err := flush(cur); err != nil {
					return nil, err
				}
			}
			cur = tn
		}
		if dropped[tn] {
			continue
		}
		if err := sess[tn].StepAsync(); err != nil {
			if errors.Is(err, client.ErrAborted) || errors.Is(err, client.ErrAbandoned) {
				dropped[tn] = true
				continue
			}
			return nil, err
		}
		fed[tn]++
		if commit && fed[tn] == sys.Txns[tn].Len() {
			// Queued behind the steps on the same session worker, so it
			// still executes immediately after the last event, before any
			// other transaction's next step (the switch flush is a
			// barrier). If a step of this burst aborts, the commit is
			// refused stale without executing.
			if err := sess[tn].CommitAsync(); err != nil {
				return nil, err
			}
		}
	}
	if cur >= 0 {
		if err := flush(cur); err != nil {
			return nil, err
		}
	}
	ins, err := c.Inspect()
	if err != nil {
		return nil, err
	}
	d := wireInspection(ins)
	c.Close()
	if _, err := srv.Shutdown(time.Second); err != nil {
		return nil, fmt.Errorf("shutdown after pipelined drive: %v", err)
	}
	return d, nil
}

// driveNetworkRun executes each declared transaction in stored-procedure
// mode, in order: the body ships once per transaction and the engine
// drives it server-side. With a zero retry budget an aborted
// transaction answers ErrAbandoned, mirroring the replay's drop.
func driveNetworkRun(t *testing.T, sys *model.System, cfg runtime.Config) (*runtime.Inspection, error) {
	srv, addr := startServer(t, sys.Init, cfg)
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for _, tx := range sys.Txns {
		if tx.Len() == 0 {
			// An empty body contributes no trace events, so the
			// trace-driven arms open it but never feed or commit it.
			// Mirror that: register it with the monitor and leave it.
			if _, err := c.Open(tx); err != nil {
				return nil, err
			}
			continue
		}
		if err := c.Run(tx); err != nil {
			if errors.Is(err, client.ErrAbandoned) {
				continue
			}
			return nil, err
		}
	}
	ins, err := c.Inspect()
	if err != nil {
		return nil, err
	}
	d := wireInspection(ins)
	c.Close()
	if _, err := srv.Shutdown(time.Second); err != nil {
		return nil, fmt.Errorf("shutdown after run drive: %v", err)
	}
	return d, nil
}

// TestClientPipelinedAbortRetry pins the attempt-tag protocol on a
// deterministic abort: a pipelined attempt whose middle step aborts
// (reading an entity that does not exist yet) must drain its already-
// submitted tail as stale — the server refuses the steps without
// executing them, so the reset cursor is not corrupted — and the retry,
// after another session creates the entity, commits cleanly. The retry
// rides a *resumed* session: the reader's connection dies after the
// abort, the server parks the session, and a second connection resumes
// it — the stale-drain bookkeeping must survive the park/resume cycle
// (both sides restart at attempt 0).
func TestClientPipelinedAbortRetry(t *testing.T) {
	srv, addr := startServer(t, model.NewState(), runtime.Config{
		Policy: policy.TwoPhase{}, Backoff: -1,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reader, err := c.Open(model.Txn{Name: "reader", Steps: []model.Step{model.LX("x"), model.R("x"), model.UX("x")}})
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline the whole attempt: (R x) aborts (x does not exist), and
	// the already-submitted (UX x) and commit must come back as stale
	// refusals, not executions against the reset cursor.
	for i := 0; i < 3; i++ {
		if err := reader.StepAsync(); err != nil {
			t.Fatalf("StepAsync %d: %v", i, err)
		}
	}
	if err := reader.CommitAsync(); err != nil {
		t.Fatal(err)
	}
	if err := reader.Flush(); !errors.Is(err, client.ErrAborted) {
		t.Fatalf("pipelined flush = %v, want ErrAborted", err)
	}

	creator, err := c.Open(model.Txn{Name: "creator", Steps: []model.Step{model.LX("x"), model.I("x"), model.UX("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := creator.Run(0); err != nil {
		t.Fatal(err)
	}

	// The reader's connection dies between the abort and the retry; the
	// server parks the session within its lease.
	c.Close()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The retry resumes the parked session on the new connection and
	// re-pipelines from the first declared step — and must commit: x
	// exists now.
	resumed := resumeRetry(t, c2, reader)
	if err := resumed.RunPipelined(client.Backoff{Base: -1}); err != nil {
		t.Fatalf("pipelined retry after resume = %v, want commit", err)
	}

	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Commits != 2 || m.ImproperAborts != 1 || m.GaveUp != 0 {
		t.Fatalf("commits=%d improper=%d gaveup=%d, want 2/1/0", m.Commits, m.ImproperAborts, m.GaveUp)
	}
}

// TestServerConcurrentPipelinedSessions hammers one connection with
// concurrent sessions in every transport mode — per-step, pipelined and
// stored-procedure — over conflicting bodies; the race job runs this
// under -race to check the async client plumbing and the server's
// coalescing writer. The committed schedule is verified at drain.
func TestServerConcurrentPipelinedSessions(t *testing.T) {
	ents := []model.Entity{"h0", "h1", "h2", "h3"}
	srv, addr := startServer(t, model.NewState(ents...), runtime.Config{
		Policy:      policy.TwoPhase{},
		Shards:      8,
		GateStripes: 8,
		Backoff:     20 * time.Microsecond,
		MaxRetries:  600,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sessions = 6
	const rounds = 6
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			rng := rand.New(rand.NewSource(int64(i)))
			b := client.Backoff{Base: 50 * time.Microsecond}
			for k := 0; k < rounds; k++ {
				perm := append([]model.Entity(nil), ents...)
				rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
				tx := model.Txn{Steps: workload.TwoPhaseSteps(perm[:2])}
				var err error
				switch k % 3 {
				case 0:
					err = c.Run(tx)
				case 1:
					var s *client.Session
					if s, err = c.Open(tx); err == nil {
						err = s.RunPipelined(b)
					}
				default:
					var s *client.Session
					if s, err = c.Open(tx); err == nil {
						err = s.RunWith(b)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("session %d round %d: %w", i, k, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits != sessions*rounds {
		t.Fatalf("commits=%d, want %d", res.Metrics.Commits, sessions*rounds)
	}
}

// TestServerLeaseExpiry is the network half of the stalled-client
// story: a client that stops talking mid-transaction is aborted after
// its lease, its locks are released, and another client's session
// proceeds. The clock is injected and Reap called explicitly, so the
// expiry itself is deterministic.
func TestServerLeaseExpiry(t *testing.T) {
	var now atomic.Int64
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{
		Policy: policy.TwoPhase{},
		Lease:  time.Second,
		Clock:  func() time.Time { return time.Unix(0, now.Load()) },
	})
	body := model.Txn{Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}

	stalledC, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalledC.Close()
	stalled, err := stalledC.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := stalled.Step(model.LX("a")); err != nil {
		t.Fatal(err)
	}
	if err := stalled.Step(model.W("a")); err != nil {
		t.Fatal(err)
	}

	// The stalled client now holds the lock and goes silent. Advance
	// past its lease *before* opening the waiter, whose fresh deadline
	// keeps it safe from the reap.
	now.Add(int64(2 * time.Second))
	waiterC, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiterC.Close()
	waiter, err := waiterC.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- waiter.Run(0) }()

	if n := srv.Engine().Reap(); n != 1 {
		t.Fatalf("Reap() = %d, want 1", n)
	}
	if err := <-waited; err != nil {
		t.Fatalf("waiting session did not proceed: %v", err)
	}
	if err := stalled.Step(model.UX("a")); !errors.Is(err, client.ErrLeaseExpired) {
		t.Fatalf("stalled step = %v, want ErrLeaseExpired", err)
	}
	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Commits != 1 || m.LeaseExpired != 1 || m.GaveUp != 1 {
		t.Fatalf("commits=%d leaseexpired=%d gaveup=%d, want 1/1/1", m.Commits, m.LeaseExpired, m.GaveUp)
	}
}

// TestServerDrainAbortsStragglers pins graceful drain: a session left
// open past the drain timeout is force-aborted, the committed schedule
// verifies, and the final accounting balances.
func TestServerDrainAbortsStragglers(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a", "b"), runtime.Config{Policy: policy.TwoPhase{}})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done, err := c.Open(model.Txn{Steps: []model.Step{model.LX("b"), model.W("b"), model.UX("b")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Run(0); err != nil {
		t.Fatal(err)
	}
	straggler, err := c.Open(model.Txn{Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := straggler.Step(model.LX("a")); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Shutdown(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Commits != 1 || m.GaveUp != 1 {
		t.Fatalf("commits=%d gaveup=%d, want 1/1", m.Commits, m.GaveUp)
	}
	if m.Events != 3 {
		t.Fatalf("events=%d, want 3 (the straggler's lock must be erased)", m.Events)
	}
	// The drained server refuses everything.
	if _, err := srv.Shutdown(time.Second); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("second shutdown = %v, want ErrClosed", err)
	}
}

// TestServerShutdownWithInflightWork drains a server while a
// stored-procedure Run is parked on a held lock and a pipelined session
// has unreconciled steps parked behind the same lock. Shutdown must
// force-abort both and return (no hang, no leaked session), every
// blocked client call must come back with a terminal error, and nothing
// may be counted committed.
func TestServerShutdownWithInflightWork(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{
		Policy:  policy.TwoPhase{},
		Backoff: 50 * time.Microsecond,
	})
	body := model.Txn{Name: "V", Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}

	// The holder pins the lock so both victims park server-side.
	holder, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	hs, err := holder.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Step(model.LX("a")); err != nil {
		t.Fatal(err)
	}

	// Victim 1: a stored-procedure Run, parked inside the engine.
	runC, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer runC.Close()
	runDone := make(chan error, 1)
	go func() { runDone <- runC.Run(body) }()

	// Victim 2: a pipelined session with its whole attempt in flight —
	// the first step parked on the lock, the rest queued behind it.
	pipeC, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pipeC.Close()
	ps, err := pipeC.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < body.Len(); i++ {
		if err := ps.StepAsync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.CommitAsync(); err != nil {
		t.Fatal(err)
	}
	flushDone := make(chan error, 1)
	go func() { flushDone <- ps.Flush() }()

	// Let both park, then pull the floor out from under them.
	time.Sleep(50 * time.Millisecond)
	shutDone := make(chan error, 1)
	go func() {
		res, serr := srv.Shutdown(100 * time.Millisecond)
		if serr == nil && res.Metrics.Commits != 0 {
			serr = fmt.Errorf("drained with %d commits, want 0", res.Metrics.Commits)
		}
		shutDone <- serr
	}()

	wait := func(name string, ch <-chan error, wantErr bool) {
		t.Helper()
		select {
		case err := <-ch:
			if wantErr && err == nil {
				t.Errorf("%s returned nil; its lock was never granted, so it cannot have committed", name)
			}
			if !wantErr && err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung across shutdown", name)
		}
	}
	wait("shutdown", shutDone, false)
	wait("parked Run", runDone, true)
	wait("pipelined Flush", flushDone, true)
}

// TestServerConcurrentClients hammers one server with conflicting
// clients over real TCP — the race job's network stress. The committed
// schedule is verified at drain.
func TestServerConcurrentClients(t *testing.T) {
	ents := []model.Entity{"h0", "h1", "h2", "h3"}
	srv, addr := startServer(t, model.NewState(ents...), runtime.Config{
		Policy:      policy.TwoPhase{},
		Shards:      8,
		GateStripes: 8,
		Backoff:     20 * time.Microsecond,
		MaxRetries:  600,
	})
	const clients = 6
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 4; k++ {
				perm := append([]model.Entity(nil), ents...)
				rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
				s, err := c.Open(model.Txn{Steps: workload.TwoPhaseSteps(perm[:2])})
				if err != nil {
					errs <- err
					return
				}
				if err := s.Run(50 * time.Microsecond); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits != clients*4 {
		t.Fatalf("commits=%d, want %d", res.Metrics.Commits, clients*4)
	}
}
