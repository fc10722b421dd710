package server

// Resumption contract tests: a lost connection parks its sessions
// instead of aborting them, and a later connection reattaches a parked
// session by presenting its sid, resume token and declared body. The
// contract under test:
//
//   - disconnect → park → resume on a fresh connection drives to commit,
//     and the park released the session's locks in the meantime;
//   - a resume with the wrong token is refused without touching the
//     session (the correct resume still works afterwards);
//   - a resume after lease expiry is refused CodeExpired, or CodeDone
//     naming the abandonment if the reaper got there first — reopening
//     is the only way forward;
//   - duplicate concurrent resumes: exactly one wins, the loser is
//     refused CodeBadReq (engine: ErrNotResumable) or, if the winner
//     already committed, CodeDone naming the outcome;
//   - a resume whose declared body differs from the declaration on
//     record is refused and the session is parked again, resumable;
//   - in-flight pipelined steps of the dead connection drain without
//     executing (the park erased the attempt), so the resumed session
//     replays from the first declared step with no duplicated events.

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/runtime"
	"locksafe/internal/wire"
	"locksafe/pkg/client"
)

// resumeReq builds a resume request for the given body.
func resumeReq(sid, token uint64, steps []model.Step) wire.Request {
	table, csteps := model.CompactTxn(steps)
	return wire.Request{Op: wire.OpResume, SID: sid, Token: token, Table: table, CSteps: csteps}
}

// waitParked blocks until the session is parked server-side. The park
// happens on the dead connection's teardown goroutine, so a resume
// racing it may find the session still attached (ErrNotResumable). The
// probe presents the correct token with a deliberately mismatched body:
// once the engine grants the resume, the server sees the mismatch,
// parks the session again synchronously and answers with the body
// refusal — observing the park without consuming it.
func waitParked(t *testing.T, addr string, sid, token uint64) {
	t.Helper()
	probe := dialRaw(t, addr)
	defer probe.close()
	wrong := []model.Step{model.LX("wrong-body-probe")}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := probe.roundTrip(resumeReq(sid, token, wrong))
		if resp.OK {
			t.Fatalf("mismatched-body resume succeeded: %+v", resp)
		}
		if strings.Contains(resp.Err, "declared body") {
			return // the engine granted the resume: it was parked (and is again)
		}
		if resp.Code != wire.CodeBadReq {
			t.Fatalf("park probe = %+v, want CodeBadReq while the teardown races", resp)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d never parked; last refusal: %+v", sid, resp)
		}
		time.Sleep(time.Millisecond)
	}
}

// resumeRetry reattaches prev via the client API, retrying the
// park-race refusal (ErrProtocol) until the teardown lands.
func resumeRetry(t *testing.T, c *client.Client, prev *client.Session) *client.Session {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := c.Resume(prev)
		if err == nil {
			return s
		}
		if !errors.Is(err, client.ErrProtocol) || time.Now().After(deadline) {
			t.Fatalf("resume: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerResumeAfterDisconnect is the happy path end to end: a
// client takes a lock, dies, and a second client resumes the parked
// session and drives it to commit — while the park window proves the
// locks were released (a conflicting transaction commits in between).
func TestServerResumeAfterDisconnect(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}})
	body := model.Txn{Name: "T", Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c1.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Token() == 0 {
		t.Fatal("open response carried no resume token")
	}
	if err := s1.Step(model.LX("a")); err != nil {
		t.Fatal(err)
	}
	c1.Close() // dies holding LX a; the server parks the session

	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rs := resumeRetry(t, c2, s1)
	if rs.SID() != s1.SID() {
		t.Fatalf("resumed sid = %d, want %d", rs.SID(), s1.SID())
	}

	// The park released LX a: a conflicting transaction commits while
	// the resumed session has not re-acquired anything yet.
	other, err := c2.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Run(0); err != nil {
		t.Fatalf("conflicting txn while parked session's lock should be free: %v", err)
	}

	// The resumed session replays from the first declared step.
	if err := rs.Run(0); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Commits != 2 || m.GaveUp != 0 {
		t.Fatalf("commits=%d gaveup=%d, want 2/0", m.Commits, m.GaveUp)
	}
	if m.Events != 6 {
		t.Fatalf("events=%d, want 6 (the pre-disconnect step was erased by the park)", m.Events)
	}
}

// TestServerResumeWrongToken pins that a resume presenting the wrong
// token is refused CodeBadReq without touching the session: the
// correct token still resumes it afterwards and the replay commits.
func TestServerResumeWrongToken(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}})
	defer srv.Shutdown(time.Second)
	steps := []model.Step{model.LX("a"), model.W("a"), model.UX("a")}
	table, csteps := model.CompactTxn(steps)

	c1 := dialRaw(t, addr)
	open := c1.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps})
	if !open.OK || open.Token == 0 {
		t.Fatalf("open = %+v, want OK with a resume token", open)
	}
	if resp := c1.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID,
		CStep: csteps[0], HasCompact: true}); !resp.OK {
		t.Fatalf("step refused: %+v", resp)
	}
	c1.close()
	waitParked(t, addr, open.SID, open.Token)

	c2 := dialRaw(t, addr)
	defer c2.close()
	// Wrong token: refused as a bad request, session untouched.
	if resp := c2.roundTrip(resumeReq(open.SID, open.Token^1, steps)); resp.OK || resp.Code != wire.CodeBadReq {
		t.Fatalf("wrong-token resume = %+v, want CodeBadReq", resp)
	}
	// An unknown sid is the same refusal class.
	if resp := c2.roundTrip(resumeReq(open.SID+1000, open.Token, steps)); resp.OK || resp.Code != wire.CodeBadReq {
		t.Fatalf("unknown-sid resume = %+v, want CodeBadReq", resp)
	}
	// The correct token still works: nothing was consumed or aborted.
	res := c2.roundTrip(resumeReq(open.SID, open.Token, steps))
	if !res.OK {
		t.Fatalf("correct resume after wrong-token refusals: %+v", res)
	}
	for i, cs := range csteps {
		if resp := c2.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID,
			CStep: cs, HasCompact: true}); !resp.OK {
			t.Fatalf("resumed step %d refused: %+v", i, resp)
		}
	}
	if resp := c2.roundTrip(wire.Request{Op: wire.OpCommit, SID: open.SID}); !resp.OK {
		t.Fatalf("resumed commit refused: %+v", resp)
	}
	stats := c2.roundTrip(wire.Request{Op: wire.OpStats})
	if stats.Stats == nil || stats.Stats.Commits != 1 || stats.Stats.Events != 3 {
		t.Fatalf("stats = %+v, want commits=1 events=3", stats.Stats)
	}
}

// TestServerResumeLeaseExpired pins the too-late resume, both ways it
// can be found out. A resume that itself finds the parked session's
// lease run out reaps it on the spot and is refused CodeExpired (client:
// ErrLeaseExpired); a resume arriving after the reaper already took the
// session finds it finished and is refused CodeDone, the text naming
// the abandonment and its cause. Neither session can be revived, only
// reopened.
func TestServerResumeLeaseExpired(t *testing.T) {
	var now atomic.Int64
	srv, addr := startServer(t, model.NewState("a", "b"), runtime.Config{
		Policy: policy.TwoPhase{},
		Lease:  time.Second,
		Clock:  func() time.Time { return time.Unix(0, now.Load()) },
	})
	defer srv.Shutdown(time.Second)

	c1 := dialRaw(t, addr)
	var opens [2]wire.Response
	var bodies [2][]model.Step
	for i, e := range []model.Entity{"a", "b"} {
		bodies[i] = []model.Step{model.LX(e), model.W(e), model.UX(e)}
		table, csteps := model.CompactTxn(bodies[i])
		opens[i] = c1.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps})
		if !opens[i].OK {
			t.Fatalf("open refused: %+v", opens[i])
		}
		if resp := c1.roundTrip(wire.Request{Op: wire.OpStep, SID: opens[i].SID,
			CStep: csteps[0], HasCompact: true}); !resp.OK {
			t.Fatalf("step refused: %+v", resp)
		}
	}
	c1.close()
	// The parks must land before the clock moves: the teardown's
	// Interrupt restarts the lease window at the then-current clock.
	for _, o := range opens {
		waitParked(t, addr, o.SID, o.Token)
	}
	now.Add(int64(2 * time.Second))

	c2 := dialRaw(t, addr)
	defer c2.close()
	if resp := c2.roundTrip(resumeReq(opens[0].SID, opens[0].Token, bodies[0])); resp.OK || resp.Code != wire.CodeExpired {
		t.Fatalf("resume finding the lease expired = %+v, want CodeExpired", resp)
	}
	if n := srv.Engine().Reap(); n != 1 {
		t.Fatalf("Reap() = %d, want 1 (the other parked session's lease ran out)", n)
	}
	resp := c2.roundTrip(resumeReq(opens[1].SID, opens[1].Token, bodies[1]))
	if resp.OK || resp.Code != wire.CodeDone || !strings.Contains(resp.Err, "abandoned") || !strings.Contains(resp.Err, "lease") {
		t.Fatalf("resume after the reaper = %+v, want CodeDone naming the abandonment and the lease", resp)
	}
}

// TestServerResumeDuplicateConcurrent races two clients resuming the
// same parked session with the same valid credentials: exactly one
// wins. What the loser is told depends on when it arrives, and the
// protocol allows both: CodeBadReq (client: ErrProtocol) while the
// winner is still attached, or CodeDone naming the outcome (client:
// ErrSessionDone, "committed") once the winner has finished. Either
// way the transaction commits exactly once.
func TestServerResumeDuplicateConcurrent(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}})
	body := model.Txn{Name: "T", Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c1.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Step(model.LX("a")); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	waitParked(t, addr, s1.SID(), s1.Token())

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := client.Dial(addr)
			if err != nil {
				results <- err
				return
			}
			defer c.Close()
			s, err := c.Resume(s1)
			if err == nil {
				// The winner drives the session to commit before its
				// connection closes (a close would just re-park it).
				err = s.Run(0)
			}
			results <- err
		}()
	}
	var wins, refused int
	for i := 0; i < 2; i++ {
		switch err := <-results; {
		case err == nil:
			wins++
		case errors.Is(err, client.ErrProtocol):
			refused++
		case errors.Is(err, client.ErrSessionDone) && strings.Contains(err.Error(), "committed"):
			refused++
		default:
			t.Fatalf("duplicate resume: unexpected error %v", err)
		}
	}
	if wins != 1 || refused != 1 {
		t.Fatalf("wins=%d refused=%d, want exactly one winner and one refusal", wins, refused)
	}
	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits != 1 {
		t.Fatalf("commits=%d, want 1", res.Metrics.Commits)
	}
}

// TestServerResumeBodyMismatch pins the confused-client refusal: a
// resume whose declared body is not the declaration on record is
// refused CodeBadReq and the session is parked again — the right body
// still resumes it, and the replay commits.
func TestServerResumeBodyMismatch(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a", "b"), runtime.Config{Policy: policy.TwoPhase{}})
	defer srv.Shutdown(time.Second)
	steps := []model.Step{model.LX("a"), model.W("a"), model.UX("a")}
	table, csteps := model.CompactTxn(steps)

	c1 := dialRaw(t, addr)
	open := c1.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps})
	if !open.OK {
		t.Fatalf("open refused: %+v", open)
	}
	if resp := c1.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID,
		CStep: csteps[0], HasCompact: true}); !resp.OK {
		t.Fatalf("step refused: %+v", resp)
	}
	c1.close()
	waitParked(t, addr, open.SID, open.Token)

	c2 := dialRaw(t, addr)
	defer c2.close()
	// A body that differs from the declaration on record: refused, and
	// the refusal names the mismatch. The engine granted the resume
	// before the server compared bodies, so the session was re-parked.
	wrong := []model.Step{model.LX("b"), model.W("b"), model.UX("b")}
	resp := c2.roundTrip(resumeReq(open.SID, open.Token, wrong))
	if resp.OK || resp.Code != wire.CodeBadReq || !strings.Contains(resp.Err, "declared body") {
		t.Fatalf("mismatched-body resume = %+v, want CodeBadReq naming the body", resp)
	}
	// Re-parked: the recorded body resumes it and runs to commit.
	if resp := c2.roundTrip(resumeReq(open.SID, open.Token, steps)); !resp.OK {
		t.Fatalf("resume after body-mismatch refusal: %+v", resp)
	}
	for i, cs := range csteps {
		if resp := c2.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID,
			CStep: cs, HasCompact: true}); !resp.OK {
			t.Fatalf("resumed step %d refused: %+v", i, resp)
		}
	}
	if resp := c2.roundTrip(wire.Request{Op: wire.OpCommit, SID: open.SID}); !resp.OK {
		t.Fatalf("resumed commit refused: %+v", resp)
	}
	stats := c2.roundTrip(wire.Request{Op: wire.OpStats})
	if stats.Stats == nil || stats.Stats.Commits != 1 || stats.Stats.Events != 3 {
		t.Fatalf("stats = %+v, want commits=1 events=3", stats.Stats)
	}
}

// TestServerPipelinedDisconnectResume kills a connection with a whole
// pipelined attempt in flight — the first step parked inside the
// admission gate behind another session's lock, the rest queued behind
// it. The teardown's park must erase the attempt (waking the blocked
// step) and drain the queued steps without executing them, so the
// resumed session replays from the first declared step and the event
// log shows each declared step exactly once.
func TestServerPipelinedDisconnectResume(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{
		Policy:  policy.TwoPhase{},
		Backoff: 50 * time.Microsecond,
	})
	body := model.Txn{Name: "V", Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}

	// The holder pins LX a so the victim's first step parks.
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

	victim, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := victim.Open(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < body.Len(); i++ {
		if err := vs.StepAsync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := vs.CommitAsync(); err != nil {
		t.Fatal(err)
	}
	// Let the burst reach the server and its first step park on the
	// held lock, then kill the connection with everything unreconciled.
	time.Sleep(50 * time.Millisecond)
	victim.Close()
	waitParked(t, addr, vs.SID(), vs.Token())

	// The holder finishes; its lock is released.
	if err := hs.Step(model.W("a")); err != nil {
		t.Fatal(err)
	}
	if err := hs.Step(model.UX("a")); err != nil {
		t.Fatal(err)
	}
	if err := hs.Commit(); err != nil {
		t.Fatal(err)
	}

	// Resume and replay: the erased attempt left no events behind, so
	// the full declared body is re-driven.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rs := resumeRetry(t, c2, vs)
	if err := rs.RunPipelined(client.Backoff{Base: 50 * time.Microsecond}); err != nil {
		t.Fatalf("resumed pipelined run: %v", err)
	}

	res, err := srv.Shutdown(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Commits != 2 || m.GaveUp != 0 {
		t.Fatalf("commits=%d gaveup=%d, want 2/0", m.Commits, m.GaveUp)
	}
	if m.Events != 6 {
		t.Fatalf("events=%d, want 6 (each declared step exactly once; the dead connection's in-flight steps must not execute)", m.Events)
	}
}
