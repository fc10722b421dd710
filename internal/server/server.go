// Package server exposes the session runtime (internal/runtime.SessionEngine)
// over the network as the lockd service: length-prefixed frames
// (internal/wire: a JSON hello, then the binary codec) over TCP, one
// reader goroutine per connection, one worker goroutine per open
// session so a session parked on a lock never blocks the connection's
// other sessions, and pipelined requests with out-of-order responses
// matched by request id. Frames may batch many messages; a single
// coalescing writer goroutine per connection drains the whole response
// backlog into batch frames and flushes only when it runs empty, so a
// pipelined burst costs one syscall per direction.
// docs/PROTOCOL.md specifies the wire format; docs/OPERATIONS.md is the
// operator's manual.
//
// Step and commit requests carry the client's attempt tag; the worker
// refuses — without executing — any tagged below the session's current
// attempt, so late pipelined requests of a torn-down attempt cannot be
// mistaken for the retry's resubmission (the reset cursor would happily
// execute them as the retry's first steps). The run op ships a declared
// body once and the engine drives the whole step/commit/abort/retry
// loop server-side, answering with a single terminal response.
//
// The server adds no concurrency control of its own: every open, step,
// commit, abort and run is a direct call into the engine's session API,
// so the gate-equivalence and session-safety arguments of DESIGN.md
// carry over to network execution unchanged. A connection that drops
// *parks* its open sessions (locks released, session resumable by sid +
// token within the lease — the resume op) and cancels its
// stored-procedure runs. A connection that merely stalls is the lease
// reaper's problem.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/runtime"
	"locksafe/internal/wire"
)

// sessionQueue bounds the per-session pipeline depth; a reader blocks
// (backpressuring its connection) when a session's queue is full.
const sessionQueue = 128

// teardownFlush bounds how long a closing connection waits for its
// final responses (cancellation answers) to reach a possibly-dead
// client.
const teardownFlush = 2 * time.Second

// Server is one lockd instance: an engine plus its listener plumbing.
// The engine has runtime.Config.Partitions partitions (one by default);
// the wire protocol is identical for every count — partitioning is
// invisible to clients.
type Server struct {
	eng    runtime.SessionEngine
	policy string

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // connection handlers
}

// New builds a server over a fresh memory-only engine with the given
// initial structural state and runtime configuration: NewDurable without
// a DataDir.
func New(init model.State, cfg runtime.Config) *Server {
	cfg.DataDir = ""
	s, _, _ := NewDurable(init, cfg) // cannot fail: nothing is restored
	return s
}

// NewDurable builds a server over a durable engine persisting into
// cfg.DataDir (restoring whatever history the directory holds first —
// see runtime.NewDurableSessionEngine). Sessions restored parked are
// reachable through the resume op with their persisted tokens.
func NewDurable(init model.State, cfg runtime.Config) (*Server, *runtime.RestoreInfo, error) {
	name := "unrestricted"
	if cfg.Policy != nil {
		name = cfg.Policy.Name()
	}
	eng, info, err := runtime.NewDurableSessionEngine(init, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Server{
		eng:    eng,
		policy: name,
		conns:  make(map[*conn]struct{}),
	}, info, nil
}

// Engine exposes the underlying engine (tests and embedders; the
// lockbench in-process loopback uses it for final verification).
func (s *Server) Engine() runtime.SessionEngine { return s.eng }

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a Shutdown-initiated stop, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return runtime.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		c := &conn{
			srv:      s,
			nc:       nc,
			rd:       wire.NewReader(nc),
			wake:     make(chan struct{}, 1),
			wdone:    make(chan struct{}),
			sessions: make(map[uint64]*sessWorker),
			runs:     make(map[runtime.Sess]struct{}),
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
		}()
	}
}

// Shutdown drains the server: stop accepting, refuse new sessions, wait
// up to timeout for the sessions a client is still attached to to finish
// (or be parked by their connection's death), force-abort the rest, then
// close the engine (which verifies the committed schedule is
// serializable) and disconnect everyone. It returns the engine's final
// result.
func (s *Server) Shutdown(timeout time.Duration) (*runtime.Result, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, runtime.ErrClosed
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Parked sessions have no connection and cannot progress: the grace
	// period is for the attached ones only.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	s.eng.AwaitDetached(ctx)
	cancel()
	// Close force-aborts whatever is still open and waits out
	// engine-driven re-runs before verifying the committed schedule.
	res, err := s.eng.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return res, err
}

// conn is one client connection: a frame reader, a coalescing response
// writer, and the session workers it has opened.
type conn struct {
	srv *Server
	nc  net.Conn
	rd  *wire.Reader // owned by the serve goroutine

	wmu   sync.Mutex      // outgoing responses + writer lifecycle
	outq  []wire.Response // pending responses (nil when drained)
	spare []wire.Response // recycled backlog slice from the last drain
	wstop bool
	wake  chan struct{} // kicks the writer; buffered 1
	wdone chan struct{} // closed when the writer exits

	smu      sync.Mutex
	sessions map[uint64]*sessWorker
	runs     map[runtime.Sess]struct{} // stored-procedure sessions in flight
	closing  bool

	workers sync.WaitGroup
}

// sessWorker serializes one session's requests: dispatch appends to the
// queue, and a single runner goroutine — spawned on demand, exiting
// when the queue empties — executes them in submission order. A
// finished session leaves no goroutine and no queue behind, so a
// long-lived connection can open millions of sessions without
// accumulating workers.
type sessWorker struct {
	sess runtime.Sess
	// table is the session's declared entity table; step requests
	// resolve their entity index against it. Written once at open, read
	// only by the runner.
	table []model.Entity

	mu       sync.Mutex
	queue    []wire.Request // awaiting pickup by the runner
	spare    []wire.Request // recycled batch from the runner's last grab
	pending  int            // queued + executing requests (pipeline bound)
	running  bool
	finished bool

	// attempt is the session's current retry attempt, bumped each time
	// the worker reports a real abort. Only the runner goroutine touches
	// it (successive runners are ordered by the running-flag handoff
	// under mu). A queued step/commit tagged below it is refused stale.
	attempt int
}

func (c *conn) serve() {
	defer c.close()
	defer c.rd.Release()
	w := wire.NewWriter(c.nc)
	if !c.hello(w) {
		w.Release()
		return
	}
	c.rd.SetCodec(wire.CodecBinary)
	w.SetCodec(wire.CodecBinary)
	go c.writeLoop(w)
	defer c.teardown()
	for {
		reqs, err := c.rd.ReadRequests()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Protocol error or mid-frame disconnect: nothing more to
				// parse on this stream either way.
				c.send(wire.Response{Code: wire.CodeBadReq, Err: err.Error()})
			}
			return
		}
		for _, req := range reqs {
			c.handle(req)
		}
	}
}

// hello performs the handshake, synchronously and before the writer
// goroutine exists: the connection's first frame must be the JSON hello
// naming wire.Version, and it is answered in JSON — a refusal too, so a
// client of any vintage can read it. It reports whether the connection
// may proceed (in the binary codec, both directions, from here on).
func (c *conn) hello(w *wire.Writer) bool {
	reqs, err := c.rd.ReadRequests()
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return false
	}
	var resp wire.Response
	switch {
	case err != nil:
		resp = wire.Response{Code: wire.CodeBadReq, Err: "the first frame must be a JSON hello: " + err.Error()}
	case reqs[0].Op != wire.OpHello:
		resp = wire.Response{ID: reqs[0].ID, Code: wire.CodeBadReq,
			Err: fmt.Sprintf("the first frame must be hello, got %q", reqs[0].Op)}
	case reqs[0].Version != wire.Version:
		resp = wire.Response{ID: reqs[0].ID, Code: wire.CodeVersion,
			Err: fmt.Sprintf("server speaks protocol version %d only, client sent %d", wire.Version, reqs[0].Version)}
	default:
		resp = wire.Response{ID: reqs[0].ID, OK: true, Version: wire.Version, Policy: c.srv.policy}
	}
	if w.WriteResponses([]wire.Response{resp}) != nil || w.Flush() != nil {
		return false
	}
	return resp.OK
}

// handle routes one post-hello request.
func (c *conn) handle(req wire.Request) {
	switch req.Op {
	case wire.OpStats:
		c.send(statsResponse(req.ID, c.srv.eng))
	case wire.OpInspect:
		// Heavyweight (drains the gate, builds the serializability
		// graph); run off the reader so the connection keeps flowing.
		go func(id uint64) { c.send(inspectResponse(id, c.srv.eng)) }(req.ID)
	case wire.OpOpen:
		// Open may block on the MPL gate; run it off the reader.
		go c.open(req)
	case wire.OpResume:
		// Resume competes for an MPL slot like open; off the reader.
		go c.resume(req)
	case wire.OpRun:
		// The whole transaction runs engine-side; off the reader, since
		// it blocks on locks and the MPL gate for its full lifetime.
		go c.runProc(req)
	case wire.OpStep, wire.OpCommit, wire.OpAbort:
		c.dispatch(req)
	default:
		// A second hello (the handshake consumed the first), or an op the
		// decoder knows and this switch does not.
		c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, Err: fmt.Sprintf("unexpected op %q", req.Op)})
	}
}

// send queues one response for the writer. After the writer has stopped
// (write error or teardown) responses are dropped — the client is gone.
func (c *conn) send(resp wire.Response) {
	c.wmu.Lock()
	if c.wstop {
		c.wmu.Unlock()
		return
	}
	if c.outq == nil && c.spare != nil {
		c.outq, c.spare = c.spare, nil
	}
	c.outq = append(c.outq, resp)
	c.wmu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// writeLoop is the connection's coalescing writer: it drains the whole
// response backlog per iteration into batch frames on a buffered writer
// and flushes only when the backlog runs empty, so responses to a
// pipelined burst leave in one frame and one syscall.
func (c *conn) writeLoop(w *wire.Writer) {
	defer close(c.wdone)
	defer w.Release()
	for {
		c.wmu.Lock()
		batch := c.outq
		c.outq = nil
		stop := c.wstop
		c.wmu.Unlock()
		if len(batch) == 0 {
			if err := w.Flush(); err != nil {
				c.wfail()
				return
			}
			if stop {
				return
			}
			<-c.wake
			continue
		}
		if err := w.WriteResponses(batch); err != nil {
			c.wfail()
			return
		}
		// Recycle the drained backlog so a steady-state connection stops
		// allocating response slices.
		c.wmu.Lock()
		if c.spare == nil {
			c.spare = batch[:0]
		}
		c.wmu.Unlock()
	}
}

// wfail handles a write error: stop accepting responses and close the
// connection so the reader notices and tears down.
func (c *conn) wfail() {
	c.wmu.Lock()
	c.wstop = true
	c.outq = nil
	c.wmu.Unlock()
	c.nc.Close()
}

// open admits a new session and registers its worker.
func (c *conn) open(req wire.Request) {
	if c.srv.isDraining() {
		c.send(wire.Response{ID: req.ID, Code: wire.CodeClosed, Err: "server draining"})
		return
	}
	steps, err := req.DeclaredSteps()
	if err != nil {
		c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, Err: err.Error()})
		return
	}
	sess, err := c.srv.eng.OpenSession(model.Txn{Name: req.Name, Steps: steps})
	if err != nil {
		code := wire.CodeMalformed
		if errors.Is(err, runtime.ErrClosed) {
			code = wire.CodeClosed
		}
		c.send(wire.Response{ID: req.ID, Code: code, Err: err.Error()})
		return
	}
	w := &sessWorker{sess: sess, table: req.Table}
	c.smu.Lock()
	if c.closing {
		c.smu.Unlock()
		sess.Cancel()
		c.send(wire.Response{ID: req.ID, Code: wire.CodeClosed, Err: "connection closing"})
		return
	}
	// Sessions are addressed by their engine-wide session id, which
	// survives the connection: a resume on a later connection names the
	// same sid and presents the token answered here.
	sid := uint64(sess.SID())
	c.sessions[sid] = w
	c.smu.Unlock()
	c.send(wire.Response{ID: req.ID, OK: true, SID: sid, Token: sess.Token()})
}

// resume reattaches a parked session: the client presents the sid and
// token from the session's open response plus the session's declared
// body, which must match the declaration on record —
// resumption re-arms the cursor at the first declared step, so a client
// with a different body is a confused client, refused with the session
// left parked.
func (c *conn) resume(req wire.Request) {
	if c.srv.isDraining() {
		c.send(wire.Response{ID: req.ID, Code: wire.CodeClosed, Err: "server draining"})
		return
	}
	steps, err := req.DeclaredSteps()
	if err != nil {
		c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, Err: err.Error()})
		return
	}
	sess, err := c.srv.eng.Resume(int(req.SID), req.Token)
	if err != nil {
		c.send(wire.Response{ID: req.ID, Code: codeFor(err), Err: err.Error(), SID: req.SID})
		return
	}
	if decl := sess.Declared(); !stepsEqual(decl.Steps, steps) {
		// Park the session again: it stays resumable with the right body.
		sess.Interrupt()
		c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, SID: req.SID,
			Err: "declared body does not match the session's declaration"})
		return
	}
	w := &sessWorker{sess: sess, table: req.Table}
	c.smu.Lock()
	if c.closing {
		c.smu.Unlock()
		sess.Interrupt()
		c.send(wire.Response{ID: req.ID, Code: wire.CodeClosed, Err: "connection closing"})
		return
	}
	c.sessions[req.SID] = w
	c.smu.Unlock()
	// The reattached session restarts at attempt 0 and the first declared
	// step, whatever the pre-disconnect attempt was: the park erased the
	// in-flight attempt.
	c.send(wire.Response{ID: req.ID, OK: true, SID: req.SID, Token: sess.Token()})
}

// stepsEqual reports whether two declared bodies are identical.
func stepsEqual(a, b []model.Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runProc executes one stored-procedure request: open the declared
// body, let the engine drive it to a terminal outcome (abort/retry
// happens engine-side with the runtime's backoff), answer once.
func (c *conn) runProc(req wire.Request) {
	if c.srv.isDraining() {
		c.send(wire.Response{ID: req.ID, Code: wire.CodeClosed, Err: "server draining"})
		return
	}
	steps, err := req.DeclaredSteps()
	if err != nil {
		c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, Err: err.Error()})
		return
	}
	sess, err := c.srv.eng.OpenRun(model.Txn{Name: req.Name, Steps: steps})
	if err != nil {
		code := wire.CodeMalformed
		if errors.Is(err, runtime.ErrClosed) {
			code = wire.CodeClosed
		}
		c.send(wire.Response{ID: req.ID, Code: code, Err: err.Error()})
		return
	}
	c.smu.Lock()
	if c.closing {
		c.smu.Unlock()
		sess.Cancel()
		c.send(wire.Response{ID: req.ID, Code: wire.CodeClosed, Err: "connection closing"})
		return
	}
	c.runs[sess] = struct{}{}
	c.smu.Unlock()
	err = sess.Run()
	c.smu.Lock()
	delete(c.runs, sess)
	c.smu.Unlock()
	resp := wire.Response{ID: req.ID, OK: err == nil}
	if err != nil {
		resp.Code, resp.Err = codeFor(err), err.Error()
	}
	c.send(resp)
}

// dispatch enqueues a session request on its worker, spawning the
// runner if the queue was idle.
func (c *conn) dispatch(req wire.Request) {
	c.smu.Lock()
	w := c.sessions[req.SID]
	c.smu.Unlock()
	if w == nil {
		c.send(wire.Response{ID: req.ID, Code: wire.CodeDone, Err: fmt.Sprintf("no open session %d on this connection", req.SID)})
		return
	}
	w.mu.Lock()
	switch {
	case w.finished:
		w.mu.Unlock()
		c.send(wire.Response{ID: req.ID, Code: wire.CodeDone, Err: "session already finished"})
	case w.pending >= sessionQueue:
		w.mu.Unlock()
		c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, Err: fmt.Sprintf("session pipeline deeper than %d requests", sessionQueue)})
	default:
		if w.queue == nil && w.spare != nil {
			w.queue, w.spare = w.spare, nil
		}
		w.queue = append(w.queue, req)
		w.pending++
		if !w.running {
			w.running = true
			c.workers.Add(1)
			go c.runWorker(req.SID, w)
		}
		w.mu.Unlock()
	}
}

// runWorker executes one session's queued requests in order, exiting
// when the queue empties or the session finishes. It takes the queued
// backlog a whole batch at a time and hands the processed batch back as
// the dispatcher's spare, so a steady-state pipeline recycles two
// request slices instead of allocating.
func (c *conn) runWorker(sid uint64, w *sessWorker) {
	defer c.workers.Done()
	var done []wire.Request // last processed batch, recycled via spare
	for {
		w.mu.Lock()
		if done != nil && w.spare == nil {
			w.spare = done[:0]
		}
		done = nil
		if len(w.queue) == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		work := w.queue
		w.queue = nil
		w.mu.Unlock()

		for wi := range work {
			req := work[wi]

			// Attempt gate for step/commit: a request tagged below the
			// session's current attempt is a late pipelined message of an
			// attempt this worker already reported aborted. Executing it
			// would corrupt the retry (the reset cursor would accept it as
			// the retry's next declared step), so refuse without executing.
			// Abort is exempt: it closes the session whatever the attempt.
			if req.Op == wire.OpStep || req.Op == wire.OpCommit {
				if req.Attempt < w.attempt {
					c.send(wire.Response{ID: req.ID, Code: wire.CodeAborted, SID: sid,
						Err: fmt.Sprintf("stale attempt %d (session is on attempt %d); retry from the first declared step", req.Attempt, w.attempt)})
					w.decrement()
					continue
				}
				if req.Attempt > w.attempt {
					c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, SID: sid,
						Err: fmt.Sprintf("attempt %d is ahead of the session's attempt %d", req.Attempt, w.attempt)})
					w.decrement()
					continue
				}
			}

			var err error
			switch req.Op {
			case wire.OpStep:
				// Resolve (opByte, entityIndex) against the table declared at
				// open — no parsing, no allocation.
				st, perr := req.CStep.Resolve(w.table)
				if perr != nil {
					// An out-of-range index is the *request's* problem, not
					// the session's: refuse it and leave the session (and its
					// locks, cursor and lease) untouched.
					c.send(wire.Response{ID: req.ID, Code: wire.CodeBadReq, Err: perr.Error(), SID: sid})
					w.decrement()
					continue
				}
				err = w.sess.Step(st)
			case wire.OpCommit:
				err = w.sess.Commit()
			case wire.OpAbort:
				err = w.sess.Abort()
			}
			if errors.Is(err, runtime.ErrAborted) {
				// The client bumps its attempt counter when it sees this
				// response; bump ours in lockstep.
				w.attempt++
			}
			resp := wire.Response{ID: req.ID, OK: err == nil, SID: sid}
			if err != nil {
				resp.Code, resp.Err = codeFor(err), err.Error()
			}
			if sessionOver(req.Op, err) {
				w.mu.Lock()
				w.finished = true
				w.running = false
				rest := w.queue
				w.queue = nil
				w.pending = 0
				w.mu.Unlock()
				c.send(resp)
				for _, r := range work[wi+1:] {
					c.send(wire.Response{ID: r.ID, Code: wire.CodeDone, Err: "session already finished"})
				}
				for _, r := range rest {
					c.send(wire.Response{ID: r.ID, Code: wire.CodeDone, Err: "session already finished"})
				}
				c.forget(sid, w)
				return
			}
			c.send(resp)
			w.decrement()
		}
		done = work
	}
}

// decrement releases one slot of the session's pipeline bound after its
// request has been answered.
func (w *sessWorker) decrement() {
	w.mu.Lock()
	w.pending--
	w.mu.Unlock()
}

// sessionOver reports whether the request left the session finished.
func sessionOver(op string, err error) bool {
	switch {
	case err == nil:
		return op == wire.OpCommit || op == wire.OpAbort
	case errors.Is(err, runtime.ErrAborted), errors.Is(err, runtime.ErrStepMismatch):
		return false // session still open
	default:
		return true
	}
}

// forget unregisters a finished session. The identity check matters
// under resume: a stale fenced worker of a since-resumed sid finishing
// late must not evict the live worker registered under the same sid.
func (c *conn) forget(sid uint64, w *sessWorker) {
	c.smu.Lock()
	if c.sessions[sid] == w {
		delete(c.sessions, sid)
	}
	c.smu.Unlock()
}

// teardown settles every unfinished session — the client is gone, so
// its locks must not outlive it. Sessions are *parked* (Interrupt): the
// attempt is erased and the locks released, but the session stays open
// for a resume within its lease window. Stored-procedure runs are
// cancelled outright (a run has no resumable client-side cursor). Both
// wake a step parked inside a lock acquisition. Then: wait out the
// workers and give the writer a bounded chance to flush the final
// responses.
func (c *conn) teardown() {
	c.smu.Lock()
	c.closing = true
	workers := make([]*sessWorker, 0, len(c.sessions))
	for _, w := range c.sessions {
		workers = append(workers, w)
	}
	c.sessions = make(map[uint64]*sessWorker)
	runs := make([]runtime.Sess, 0, len(c.runs))
	for sess := range c.runs {
		runs = append(runs, sess)
	}
	c.smu.Unlock()
	for _, w := range workers {
		w.sess.Interrupt()
	}
	for _, sess := range runs {
		sess.Cancel()
	}
	c.workers.Wait()
	// Stop the writer after the workers' final responses are queued; the
	// deadline bounds the flush so a dead client cannot wedge teardown.
	c.nc.SetWriteDeadline(time.Now().Add(teardownFlush))
	c.wmu.Lock()
	c.wstop = true
	c.wmu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	<-c.wdone
}

// close disconnects the client and unregisters the connection.
func (c *conn) close() {
	c.nc.Close()
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// codeFor maps the session API's error vocabulary onto wire codes.
func codeFor(err error) string {
	switch {
	case errors.Is(err, runtime.ErrAborted):
		return wire.CodeAborted
	case errors.Is(err, runtime.ErrAbandoned):
		return wire.CodeAbandoned
	case errors.Is(err, runtime.ErrLeaseExpired):
		return wire.CodeExpired
	case errors.Is(err, runtime.ErrClosed), errors.Is(err, runtime.ErrCancelled):
		return wire.CodeClosed
	case errors.Is(err, runtime.ErrSessionDone):
		return wire.CodeDone
	case errors.Is(err, runtime.ErrStepMismatch):
		return wire.CodeMismatch
	case errors.Is(err, runtime.ErrUnknownSession), errors.Is(err, runtime.ErrBadToken), errors.Is(err, runtime.ErrNotResumable):
		// An unusable resume: the request's problem, nothing was touched.
		return wire.CodeBadReq
	default:
		return wire.CodeInternal
	}
}

func statsOf(m runtime.Metrics, open int) wire.Stats {
	return wire.Stats{
		Commits:        m.Commits,
		GaveUp:         m.GaveUp,
		DeadlockAborts: m.DeadlockAborts,
		PolicyAborts:   m.PolicyAborts,
		ImproperAborts: m.ImproperAborts,
		CascadeAborts:  m.CascadeAborts,
		LeaseExpired:   m.LeaseExpired,
		Events:         m.Events,
		Replayed:       m.Replayed,
		OpenSessions:   open,
		WaitNS:         int64(m.Wait),
		ElapsedNS:      int64(m.Elapsed),
	}
}

func statsResponse(id uint64, eng runtime.SessionEngine) wire.Response {
	st := statsOf(eng.Stats(), eng.OpenSessions())
	return wire.Response{ID: id, OK: true, Stats: &st}
}

func inspectResponse(id uint64, eng runtime.SessionEngine) wire.Response {
	ins := eng.Inspect()
	return wire.Response{ID: id, OK: true, Inspect: &wire.Inspect{
		Log:          ins.Log,
		State:        ins.State,
		MonitorKey:   ins.MonitorKey,
		Serializable: ins.Serializable,
		Stats:        statsOf(ins.Metrics, ins.OpenSessions),
	}}
}
