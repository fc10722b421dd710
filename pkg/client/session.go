package client

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/wire"
)

// maxInflight bounds a session's unreconciled pipelined requests, kept
// below the server's per-session bound of 128 pending requests, which it
// enforces by refusing the excess bad-request.
const maxInflight = 96

// Session is one declared transaction open on the server. Not safe for
// concurrent use: the async methods pipeline requests within the
// session, but submission and reconciliation belong to one goroutine.
type Session struct {
	c   *Client
	sid uint64
	// token is the resume token the open response carried: the
	// credential a later Resume presents to reattach this session after a
	// lost connection.
	token uint64
	tx    model.Txn

	// Compact encoding state: the entity table as declared to the server
	// at open and the declared body in compact form. Step requests ship
	// (opByte, entityIndex) against this table; the server resolves
	// indices against its own copy, so both orders must be the declared
	// one — they are, both sides keep the open request's table verbatim.
	table  []model.Entity
	csteps []model.CompactStep

	pos  int // declared steps confirmed admitted in the current attempt
	sent int // declared steps submitted (>= pos while pipelining)
	// attempt tags outgoing step/commit requests; it is bumped in
	// lockstep with the server's counter (each side bumps when it
	// observes a real abort of the current attempt), so responses for a
	// torn-down attempt reconcile as stale instead of corrupting the
	// retry's cursor.
	attempt  int
	inflight []inflightOp
}

// inflightOp is one submitted-but-unreconciled pipelined request.
type inflightOp struct {
	id      uint64
	ch      chan wire.Response
	attempt int
	commit  bool
}

// Open declares a transaction on the server and returns its session.
func (c *Client) Open(tx model.Txn) (*Session, error) {
	s := &Session{c: c, tx: tx.Clone()}
	return s.attach(wire.Request{Op: wire.OpOpen})
}

// attach ships the session's declared body — as the entity table plus
// compact steps the session keeps for its step requests — with an open
// or resume request, and adopts the answer's sid, token and attempt tag.
func (s *Session) attach(req wire.Request) (*Session, error) {
	s.table, s.csteps = model.CompactTxn(s.tx.Steps)
	req.Name, req.Table, req.CSteps = s.tx.Name, s.table, s.csteps
	resp, err := s.c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	s.sid, s.token, s.attempt = resp.SID, resp.Token, resp.Attempt
	return s, nil
}

// Resume reattaches a session parked server-side — typically by a lost
// connection (the server parks a dead connection's sessions instead of
// aborting them) — on this client's connection. prev is the parked
// session's handle, usually from a now-dead Client: its sid,
// resume token and declared body identify and re-arm the session. The
// returned session is fresh, positioned at the first declared step with
// a reset attempt counter; drive it exactly like a newly opened one.
// Refusals: wrong token, unknown sid or a session that is not parked
// wrap ErrProtocol (the request was unusable, nothing was touched); a
// session whose lease expired wraps ErrLeaseExpired; a session that
// already finished wraps ErrSessionDone with the outcome in the text
// ("the transaction committed" / "was abandoned") — the way to resolve
// a commit whose answer was lost with the connection.
func (c *Client) Resume(prev *Session) (*Session, error) {
	s := &Session{c: c, tx: prev.tx.Clone()}
	return s.attach(wire.Request{Op: wire.OpResume, SID: prev.sid, Token: prev.token})
}

// Declared returns the session's declared transaction.
func (s *Session) Declared() model.Txn { return s.tx }

// SID returns the server-assigned session id: an engine-wide id that
// survives the connection (the handle Resume presents).
func (s *Session) SID() uint64 { return s.sid }

// Token returns the resume token issued at open.
func (s *Session) Token() uint64 { return s.token }

// Step submits the next declared step and waits for its admission. On
// ErrAborted the attempt was erased server-side; the session survives
// and the cursor resets to the first declared step. Not usable while
// async submissions are unreconciled — Flush first.
func (s *Session) Step(st model.Step) error {
	if len(s.inflight) > 0 {
		return fmt.Errorf("%w: sync Step with pipelined requests in flight; Flush first", ErrProtocol)
	}
	idx := slices.Index(s.table, st.Ent)
	if idx < 0 {
		// The wire can only name declared entities; a step outside the
		// table cannot be the declared next step, so this is the same
		// refusal the server would answer with — and like the server's, it
		// leaves the session untouched.
		return fmt.Errorf("%w: step %s names an entity outside the declared body", ErrStepMismatch, st)
	}
	_, err := s.c.roundTrip(wire.Request{Op: wire.OpStep, SID: s.sid, Attempt: s.attempt,
		CStep: model.CompactStep{Op: st.Op, Idx: uint32(idx)}, HasCompact: true})
	if err == nil {
		s.pos++
		s.sent = s.pos
		return nil
	}
	if errors.Is(err, ErrAborted) {
		s.abortReset()
	}
	return err
}

// Commit finalizes the session after all declared steps were admitted.
func (s *Session) Commit() error {
	if len(s.inflight) > 0 {
		return fmt.Errorf("%w: sync Commit with pipelined requests in flight; Flush first", ErrProtocol)
	}
	_, err := s.c.roundTrip(wire.Request{Op: wire.OpCommit, SID: s.sid, Attempt: s.attempt})
	if err != nil && errors.Is(err, ErrAborted) {
		s.abortReset()
	}
	return err
}

// Abort closes the session, erasing its attempt and releasing its
// locks. Pipelined requests still in flight are drained first (their
// outcomes discarded) so the abort is not reordered before them.
func (s *Session) Abort() error {
	for len(s.inflight) > 0 {
		s.reconcileOne()
	}
	_, err := s.c.roundTrip(wire.Request{Op: wire.OpAbort, SID: s.sid})
	return err
}

// abortReset adopts a server-side abort: bump the attempt tag (the
// server bumped its counter when it reported the abort) and rewind the
// cursor to the first declared step.
func (s *Session) abortReset() {
	s.attempt++
	s.pos, s.sent = 0, 0
}

// StepAsync submits the next unsubmitted declared step without waiting
// for its response. When the in-flight window is full it reconciles
// oldest responses first, so an error return may be a reconciliation
// outcome (ErrAborted rewinds the cursor; submitted-but-unreconciled
// requests become stale and are drained by Flush or later reconciles).
func (s *Session) StepAsync() error {
	if s.sent >= s.tx.Len() {
		return fmt.Errorf("%w: all %d declared steps already submitted", ErrProtocol, s.tx.Len())
	}
	for len(s.inflight) >= maxInflight {
		if err := s.reconcileOne(); err != nil {
			return err
		}
	}
	id, ch, err := s.c.send(wire.Request{Op: wire.OpStep, SID: s.sid, Attempt: s.attempt,
		CStep: s.csteps[s.sent], HasCompact: true})
	if err != nil {
		return err
	}
	s.inflight = append(s.inflight, inflightOp{id: id, ch: ch, attempt: s.attempt})
	s.sent++
	return nil
}

// CommitAsync submits the commit without waiting; Flush observes its
// outcome.
func (s *Session) CommitAsync() error {
	id, ch, err := s.c.send(wire.Request{Op: wire.OpCommit, SID: s.sid, Attempt: s.attempt})
	if err != nil {
		return err
	}
	s.inflight = append(s.inflight, inflightOp{id: id, ch: ch, attempt: s.attempt, commit: true})
	return nil
}

// Flush reconciles every in-flight request and returns the first real
// failure (stale responses of a torn-down attempt reconcile silently).
// After a nil Flush that included CommitAsync, the transaction is
// committed.
func (s *Session) Flush() error {
	var first error
	for len(s.inflight) > 0 {
		if err := s.reconcileOne(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// reconcileOne consumes the oldest in-flight response. Responses tagged
// with a previous attempt are stale — the server refused them without
// executing — and reconcile to nil. A real abort of the current attempt
// bumps the tag, rewinds the cursor and returns ErrAborted (everything
// still in flight just became stale).
func (s *Session) reconcileOne() error {
	op := s.inflight[0]
	s.inflight = s.inflight[1:]
	resp, ok := <-op.ch
	if !ok {
		return s.c.deadErr()
	}
	s.c.recycle(op.ch)
	if op.attempt != s.attempt {
		return nil // stale: late response of a torn-down attempt
	}
	if resp.OK {
		if !op.commit {
			s.pos++
		}
		return nil
	}
	err := codeError(resp)
	if errors.Is(err, ErrAborted) {
		s.abortReset()
	}
	return err
}

// Run drives the declared transaction to commit with synchronous
// per-step round trips, retrying on ErrAborted with the capped,
// jittered backoff over the given base delay (0 means none). The
// simplest loop; RunWith takes the same pacing as a Backoff and
// RunPipelined is the pipelined variant.
func (s *Session) Run(backoff time.Duration) error {
	return s.RunWith(Backoff{Base: backoff})
}

// RunWith is Run with explicit backoff configuration.
func (s *Session) RunWith(b Backoff) error {
	return b.retry(s.runOnce)
}

func (s *Session) runOnce() error {
	for s.pos < s.tx.Len() {
		if err := s.Step(s.tx.Steps[s.pos]); err != nil {
			return err
		}
	}
	return s.Commit()
}

// RunPipelined drives the declared transaction to commit by pipelining:
// each attempt submits every declared step and the commit without
// waiting, then reconciles, so an attempt costs ~one round trip. On
// ErrAborted it drains the torn-down attempt's stale responses and
// retries with the given backoff.
func (s *Session) RunPipelined(b Backoff) error {
	return b.retry(s.runPipelinedOnce)
}

// runPipelinedOnce submits one full pipelined attempt and reconciles
// it. Any error return leaves no unreconciled in-flight requests.
func (s *Session) runPipelinedOnce() error {
	for s.sent < s.tx.Len() {
		if err := s.StepAsync(); err != nil {
			if ferr := s.Flush(); ferr != nil && errors.Is(err, ErrAborted) && !errors.Is(ferr, ErrAborted) {
				// The windowed reconcile saw the abort; a later response
				// carried a terminal error — report that instead.
				return ferr
			}
			return err
		}
	}
	if err := s.CommitAsync(); err != nil {
		s.Flush()
		return err
	}
	return s.Flush()
}
