package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/model"
)

// This file is the session layer over the striped runtime: the session
// lifecycle (sessHost, Session) of the long-lived session engine, whose
// transaction population is not known up front, and the row machine's
// session entry points (readRow, teardown). Clients open a Session
// by declaring the transaction's full step sequence (the paper's
// policies are properties of declared transaction bodies: the altruistic
// locked point and the DTR tree-locking check need the whole text, and
// cascade recovery must be able to re-run a committed transaction
// without its client), then drive the declared steps one at a time
// through the row machine's lock-manager and gate-admission code paths,
// the ones the engine's own cascade re-runs take, whatever the session's
// span. The
// engine is PartitionedEngine (partition.go); the network service in
// internal/server is a thin transport over its SessionEngine surface.

// Sentinel errors of the session API. Step, Commit and Abort wrap them
// with cause detail; test with errors.Is.
var (
	// ErrClosed: the engine is shut down (or shutting down); no further
	// sessions or session operations are accepted.
	ErrClosed = errors.New("engine closed")
	// ErrAborted: the session's current attempt was torn down (policy
	// veto, deadlock victim, improper step, cascade). Its events are
	// erased and its locks released; the session remains open and the
	// client may retry by re-sending the declared steps from the first.
	ErrAborted = errors.New("session attempt aborted; retry from the first declared step")
	// ErrAbandoned: the session exceeded its retry budget
	// (Config.MaxRetries) and was abandoned. Terminal.
	ErrAbandoned = errors.New("session abandoned: retry budget exhausted")
	// ErrLeaseExpired: the session sat idle past Config.Lease and was
	// reaped — events erased, locks released. Terminal.
	ErrLeaseExpired = errors.New("session lease expired")
	// ErrSessionDone: the session already committed or was closed.
	ErrSessionDone = errors.New("session already finished")
	// ErrCancelled: the session was terminated engine-side by Cancel
	// (for example because its network connection died). Terminal.
	ErrCancelled = errors.New("session cancelled")
	// ErrStepMismatch: the submitted step is not the declared
	// transaction's next step (or steps remain at Commit).
	ErrStepMismatch = errors.New("step does not match the declared transaction")
	// ErrUnknownSession: Resume named a session id the engine has never
	// issued.
	ErrUnknownSession = errors.New("unknown session id")
	// ErrBadToken: Resume presented the wrong resume token. The session
	// is left untouched — a guess must not perturb the real owner.
	ErrBadToken = errors.New("resume token does not match")
	// ErrNotResumable: the session is not parked (it is being driven, was
	// already resumed by a concurrent Resume, or cannot be reattached).
	ErrNotResumable = errors.New("session is not parked")
	// ErrMalformed: the declared body was refused at open — not
	// well-formed, or it locks an entity more than once. Nothing was
	// touched.
	ErrMalformed = errors.New("declared transaction rejected")
)

// sessHost is the session lifecycle, written once: the registry of open
// sessions, lease accounting and the reaper, MPL slots, the park arbiter
// and the shutdown sequence. The session engine embeds one; whatever a
// session's span, its row machine (txn) is what its methods drive.
type sessHost struct {
	now   func() time.Time
	lease time.Duration
	// wallClock reports that no Clock was injected, so startReaper may
	// start the background lease reaper.
	wallClock bool
	// sem is the MPL semaphore (nil = unbounded), shared with the
	// engine's re-runs (runTxn): a transaction occupies one slot
	// engine-wide, wherever it runs.
	sem chan struct{}

	// lifecycle: session operations hold it for read; Close holds it
	// for write to wait out in-flight operations.
	lifecycle sync.RWMutex
	closed    atomic.Bool
	closedCh  chan struct{} // closed by Close; unblocks MPL waiters

	mu       sync.Mutex
	sessions map[int]*Session // by session id
	// attached counts the registered sessions that are not parked — the
	// ones a client can still drive. idle, when non-nil, is closed as the
	// count reaches zero (AwaitDetached).
	attached int
	idle     chan struct{}

	reapStop chan struct{}
	reapDone chan struct{}
}

func (h *sessHost) init(cfg Config) {
	h.now, h.lease = cfg.Clock, cfg.Lease
	if cfg.MPL > 0 {
		h.sem = make(chan struct{}, cfg.MPL)
	}
	if h.now == nil {
		h.now = time.Now
		h.wallClock = true
	}
	h.closedCh = make(chan struct{})
	h.sessions = make(map[int]*Session)
}

// startReaper starts the background lease reaper if the host runs on
// the wall clock with leases enabled. Idempotent.
func (h *sessHost) startReaper() {
	if h.wallClock && h.lease > 0 && h.reapStop == nil {
		h.reapStop = make(chan struct{})
		h.reapDone = make(chan struct{})
		go h.reapLoop()
	}
}

// sessState is the lifecycle state of one transaction's session,
// shared by every Session object ever handed out for it: a Resume
// returns a *fresh* Session (so a dead connection's worker, which may
// still hold the old object, can never corrupt the new owner's
// cursor), and all incarnations share this struct — the exactly-once
// release discipline, the MPL slot accounting and the park arbiter
// live here.
type sessState struct {
	// token is the server-issued resume credential, fixed at open.
	token uint64
	// deadline is the lease deadline in unix nanoseconds (0 = no
	// lease); busy marks an in-flight request, during which the reaper
	// leaves the session alone. term records the terminal sentinel a
	// reaper or drain imposed.
	deadline atomic.Int64
	busy     atomic.Bool
	term     atomic.Pointer[error]
	finished atomic.Bool // release() ran (slot given back, deregistered)
	// parked is the resume arbiter: set by Interrupt, cleared by the
	// single winning Resume (CompareAndSwap).
	parked atomic.Bool
	// attached tracks whether this session currently occupies an MPL
	// slot and counts in sessHost.attached (guarded by the host's mu),
	// which makes detaching exactly-once across racing
	// Interrupt/Resume/forceAbort/release.
	attached bool
	// parks counts Interrupts; a Session object whose snapshot disagrees
	// predates a park and is permanently fenced from the engine.
	parks atomic.Int64
}

// Session is one client-paced transaction of a PartitionedEngine: its row
// spans its home partition, or every partition if its body spans them —
// the client cannot tell. A Session is not safe for concurrent use: each
// session serves one client, and its methods must not overlap (the
// network server serializes a session's requests through one worker
// goroutine). Cancel and Interrupt are the exceptions.
type Session struct {
	h    *sessHost
	x    txn // its row (a value: every incarnation holds a copy)
	tx   model.Txn
	gen  int // generation of the current attempt, from the client's view
	pos  int // declared steps admitted in the current attempt
	done bool
	// myParks snapshots st.parks at creation/resume; a mismatch fences
	// this object (see sessState.parks).
	myParks int64

	st *sessState
}

// checkDeclared validates a declared transaction body at the API edge.
func checkDeclared(tx model.Txn) error {
	if err := tx.WellFormed(); err != nil {
		return fmt.Errorf("runtime: %w: %w", ErrMalformed, err)
	}
	if !tx.LocksAtMostOnce() {
		return fmt.Errorf("runtime: %w: %q locks an entity more than once", ErrMalformed, tx.Name)
	}
	return nil
}

// acquireSlot takes an MPL slot, blocking until one frees or the engine
// closes.
func (h *sessHost) acquireSlot() error {
	if h.sem == nil {
		return nil
	}
	select {
	case h.sem <- struct{}{}:
		return nil
	case <-h.closedCh:
		return ErrClosed
	}
}

func (h *sessHost) freeSlot() {
	if h.sem != nil {
		<-h.sem
	}
}

// newSessState mints the shared state of a session being opened: a
// fresh resume token and the first lease deadline (0 without leases).
func (h *sessHost) newSessState() *sessState {
	st := &sessState{token: newToken()}
	if h.lease > 0 {
		st.deadline.Store(h.now().Add(h.lease).UnixNano())
	}
	return st
}

// adopt is the one Session constructor — an open, a resume and a restore
// all come through here: a fresh owner object for row x (session id
// x.sid), at generation gen, snapshotting the park fence, registered as
// the session's current owner. attach marks it as holding the MPL slot
// its caller acquired; a restore registers its sessions parked, holding
// none. Returns nil if the session finished meanwhile (only a resume can
// lose that race).
func (h *sessHost) adopt(x txn, tx model.Txn, st *sessState, gen int, attach bool) *Session {
	s := &Session{h: h, x: x, tx: tx, gen: gen, myParks: st.parks.Load(), st: st}
	h.mu.Lock()
	defer h.mu.Unlock()
	if st.finished.Load() {
		return nil
	}
	h.sessions[x.sid] = s
	if attach {
		st.attached = true
		h.attached++
	}
	return s
}

// detachLocked is the one place a session stops being attached — it
// finished or was parked: the MPL slot goes back and a drain waiting in
// AwaitDetached is woken once nobody is left. Exactly once per attach,
// whoever races (h.mu held).
func (h *sessHost) detachLocked(st *sessState) {
	if !st.attached {
		return
	}
	st.attached = false
	h.freeSlot()
	h.attached--
	if h.attached == 0 && h.idle != nil {
		close(h.idle)
		h.idle = nil
	}
}

// release deregisters the session and detaches it, exactly once (the
// client's own finish can race a reaper's).
func (h *sessHost) release(s *Session) {
	if s.st.finished.Swap(true) {
		return
	}
	h.mu.Lock()
	delete(h.sessions, s.x.sid)
	h.detachLocked(s.st)
	h.mu.Unlock()
}

// AwaitDetached blocks until no attached session is left — every open
// session has finished or is parked, so no client can make further
// progress — or ctx ends. The server's shutdown drain waits here.
func (h *sessHost) AwaitDetached(ctx context.Context) {
	h.mu.Lock()
	if h.attached == 0 {
		h.mu.Unlock()
		return
	}
	if h.idle == nil {
		h.idle = make(chan struct{})
	}
	idle := h.idle
	h.mu.Unlock()
	select {
	case <-idle:
	case <-ctx.Done():
	}
}

// SID returns the engine-wide session id, the identity a client quotes
// to Resume after a connection loss.
func (s *Session) SID() int { return s.x.sid }

// Token returns the server-issued resume credential.
func (s *Session) Token() uint64 { return s.st.token }

// Declared returns the session's declared transaction body.
func (s *Session) Declared() model.Txn { return s.tx }

// touch renews the lease deadline.
func (s *Session) touch() {
	if s.h.lease > 0 {
		s.st.deadline.Store(s.h.now().Add(s.h.lease).UnixNano())
	}
}

// errFenced is what an owner object gets once a park has torn its view
// down: its connection is gone and the transaction awaits (or already
// got) a Resume. Only the Session returned by Resume may drive the
// transaction now.
var errFenced = fmt.Errorf("%w (session parked; reattach with resume)", ErrCancelled)

// begin guards a session operation: lifecycle read lock, closed, done
// and park-fence checks, lease renewal, busy marking. Every return path
// that got past begin must go through end.
func (s *Session) begin() error {
	if s.done {
		if p := s.st.term.Load(); p != nil {
			return *p
		}
		return ErrSessionDone
	}
	if s.st.parks.Load() != s.myParks {
		s.done = true
		return errFenced
	}
	s.h.lifecycle.RLock()
	if s.h.closed.Load() {
		s.h.lifecycle.RUnlock()
		return ErrClosed
	}
	s.st.busy.Store(true)
	s.touch()
	return nil
}

func (s *Session) end() {
	s.touch()
	s.st.busy.Store(false)
	s.h.lifecycle.RUnlock()
}

// failure translates a torn-down attempt into the session API's error
// vocabulary, adopting the new generation so the client can retry.
func (s *Session) failure() error {
	if s.st.parks.Load() != s.myParks {
		// Fenced mid-flight. Leave the shared state alone — the
		// transaction lives on for Resume.
		s.done = true
		return errFenced
	}
	row := s.x.readRow()
	s.gen, s.pos = row.gen, 0
	if row.fatal != nil {
		s.done = true
		s.h.release(s)
		return fmt.Errorf("runtime: engine failed: %w", row.fatal)
	}
	if row.status == txActive {
		if row.cause != nil {
			return fmt.Errorf("%w (cause: %v)", ErrAborted, row.cause)
		}
		return ErrAborted
	}
	// Terminal: reaped, drained or out of retries.
	s.done = true
	s.h.release(s)
	if p := s.st.term.Load(); p != nil {
		return fmt.Errorf("%w (cause: %v)", *p, row.cause)
	}
	if row.cause != nil {
		return fmt.Errorf("%w (last cause: %v)", ErrAbandoned, row.cause)
	}
	return ErrAbandoned
}

// Step executes the next declared step of the session's transaction: st
// must equal that step (the declaration is the contract; the submitted
// step is verified against it). On success the cursor advances. An
// ErrAborted return means the attempt — including any previously
// admitted steps — was erased; the client retries by re-sending the
// declared steps from the first. ErrAbandoned, ErrLeaseExpired and
// ErrClosed are terminal.
func (s *Session) Step(st model.Step) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	if s.pos >= s.tx.Len() {
		return fmt.Errorf("%w: all %d declared steps already executed", ErrStepMismatch, s.tx.Len())
	}
	if want := s.tx.Steps[s.pos]; st != want {
		return fmt.Errorf("%w: got %s, declared step %d is %s", ErrStepMismatch, st, s.pos, want)
	}
	// A cascade (or the reaper) may have torn the attempt down since the
	// last request; notice before doing any work.
	if row := s.x.readRow(); row.fatal != nil || row.gen != s.gen || row.status != txActive {
		return s.failure()
	}
	if !s.x.execStep(s.gen, st) {
		return s.failure()
	}
	s.pos++
	return nil
}

// Commit finalizes the session after every declared step was admitted.
// On success the transaction is durably in the committed schedule
// (subject to the cascade caveat documented in DESIGN.md: a later
// cascade may un-commit it, in which case the engine itself re-runs the
// declared body to completion, through runTxn). ErrAborted
// means the attempt died before the commit took; retry from the first
// step.
func (s *Session) Commit() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	if s.pos != s.tx.Len() {
		return fmt.Errorf("%w: %d of %d declared steps executed", ErrStepMismatch, s.pos, s.tx.Len())
	}
	if !s.x.commit(s.gen) {
		return s.failure()
	}
	s.done = true
	s.h.release(s)
	return nil
}

// Run drives the session's declared transaction to commit engine-side:
// it finishes the current attempt from the cursor and commits, then,
// whenever the attempt is torn down, retries the whole body after the
// engine's capped+jittered backoff — the loop the engine runs for its
// cascade re-runs (txn.retry), exposed so a client can ship the declared
// body once and receive a single terminal answer (the wire protocol's
// run op). The retry budget is the engine's (Config.MaxRetries). A park
// (Interrupt) stops the loop: the session must not have been parked
// since this Session was made. Returns nil on commit; any other error is
// terminal for this Session object.
func (s *Session) Run() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	live := func() bool { return s.st.parks.Load() == s.myParks }
	if !s.x.retry(s.x.finish(s.gen, s.tx.Steps[s.pos:]), live) {
		return s.failure()
	}
	s.done = true
	s.h.release(s)
	return nil
}

// Abort closes the session at the client's request: its events are
// erased (cascading as needed), its locks released and the transaction
// abandoned (counted in Metrics.GaveUp). The session is finished.
func (s *Session) Abort() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	_, fatal := s.x.teardown(nil, false, false, nil)
	s.done = true
	s.h.release(s)
	if fatal != nil {
		return fmt.Errorf("runtime: engine failed: %w", fatal)
	}
	return nil
}

// Cancel terminates the session engine-side: its current attempt is
// erased, its locks released and the transaction abandoned (counted in
// Metrics.GaveUp). Unlike the owner-only methods, Cancel is safe to
// call concurrently with an in-flight Step/Commit/Abort — the network
// server uses it to tear down the sessions of a dead connection, which
// wakes a step parked inside a lock acquisition. The owner's in-flight
// and subsequent calls fail with ErrCancelled. Cancelling a finished
// session is a no-op.
func (s *Session) Cancel() {
	s.h.forceAbort(s, ErrCancelled, errors.New("session cancelled (connection closed)"), false)
}

// forceAbort tears down an open session engine-side (cancel, lease
// reaper, shutdown): erase its events, release its locks, abandon it.
// Reports whether the session was actually torn down (false if it
// already finished or the engine is failing).
func (h *sessHost) forceAbort(s *Session, term, cause error, lease bool) bool {
	done, _ := s.x.teardown(cause, false, lease, func() bool {
		if s.st.finished.Load() {
			return false
		}
		// A parked Step woken by the teardown must find the terminal
		// sentinel set, or it would misreport the cause as ErrAbandoned.
		s.st.term.Store(&term)
		return true
	})
	if done {
		h.release(s)
	}
	return done
}

// Interrupt parks the session engine-side: its in-flight attempt is
// erased (locks released, a step parked inside a lock acquisition woken
// with a cancellation) and its MPL slot returned, but the transaction
// stays open — a client that reconnects within the lease window (which
// restarts at the park) reattaches with Resume and the session's token.
// Safe to call concurrently with an in-flight owner call, like Cancel;
// interrupting a finished or already-parked session is a no-op. The
// network server parks the sessions of a lost connection this way so a
// resuming client finds them intact.
func (s *Session) Interrupt() {
	h := s.h
	s.x.teardown(errParked, true, false, func() bool {
		if s.st.finished.Load() || s.st.parked.Load() {
			return false
		}
		// The fence rises before anything is woken: a woken step sees the
		// parks mismatch and dies without touching shared cursor state.
		s.st.parks.Add(1)
		s.touch() // the lease window restarts at the park
		// The slot goes back before the park is published, so the Resume
		// that wins it finds the accounting settled.
		h.mu.Lock()
		h.detachLocked(s.st)
		h.mu.Unlock()
		s.st.parked.Store(true)
		return true
	})
}

// errParked is the abort cause recorded for a parked session's erased
// attempt.
var errParked = errors.New("session parked (connection lost)")

// Reap aborts every open session whose lease deadline has passed and
// returns how many it reaped. A session with an in-flight request is
// never reaped — the lease bounds client idleness, not lock waits. With
// an injected Clock the embedder calls Reap after advancing the clock;
// with the real clock a background goroutine calls it periodically.
func (h *sessHost) Reap() int {
	if h.lease <= 0 {
		return 0
	}
	now := h.now().UnixNano()
	h.mu.Lock()
	var expired []*Session
	for _, s := range h.sessions {
		if d := s.st.deadline.Load(); d != 0 && d <= now && !s.st.busy.Load() {
			expired = append(expired, s)
		}
	}
	h.mu.Unlock()
	n := 0
	for _, s := range expired {
		if h.forceAbort(s, ErrLeaseExpired, fmt.Errorf("lease of %v expired", h.lease), true) {
			n++
		}
	}
	return n
}

func (h *sessHost) reapLoop() {
	defer close(h.reapDone)
	period := h.lease / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-h.reapStop:
			return
		case <-tick.C:
			h.Reap()
		}
	}
}

// OpenSessions returns the number of currently open sessions, parked
// ones included.
func (h *sessHost) OpenSessions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// abortAll force-aborts every open session (shutdown): each loses its
// in-flight attempt, is abandoned and — if parked inside a lock
// acquisition — woken with a cancellation.
func (h *sessHost) abortAll() {
	h.mu.Lock()
	snap := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		snap = append(snap, s)
	}
	h.mu.Unlock()
	for _, s := range snap {
		h.forceAbort(s, ErrClosed, errors.New("engine shutting down"), false)
	}
}

// shutdown is the session half of Close: new sessions and session
// operations are refused, the reaper is stopped and every still-open
// session is force-aborted. Reports false if the host was already
// closed; otherwise it returns holding the lifecycle write lock, which
// the caller releases when its own teardown is done.
func (h *sessHost) shutdown() bool {
	if h.closed.Swap(true) {
		return false
	}
	close(h.closedCh)
	if h.reapStop != nil {
		close(h.reapStop)
		<-h.reapDone
	}
	// The first pass unwedges sessions parked inside lock acquisitions so
	// in-flight operations can finish and the lifecycle write lock is
	// reachable; the second pass (exclusive) closes the window where an
	// open raced the first.
	h.abortAll()
	h.lifecycle.Lock()
	h.abortAll()
	return true
}

// addTxnDrained appends one transaction row, session id sid, to the
// runner: the system, the recovery core, the owner table and every
// per-transaction bookkeeping slice grow in lockstep. Called with a full
// drain held, sequencer flushed.
func (r *runner) addTxnDrained(tx model.Txn, sid int) int {
	t := int(r.sys.Add(tx))
	r.rec.Grow(len(r.sys.Txns))
	r.owners = append(r.owners, sid)
	r.status = append(r.status, txActive)
	r.gen = append(r.gen, 0)
	r.attempts = append(r.attempts, 0)
	r.abortCause = append(r.abortCause, nil)
	return t
}

// rowState is a snapshot of one row's bookkeeping and a fatal error.
type rowState struct {
	gen, attempts int
	status        txnStatus
	cause, fatal  error
}

// readRow snapshots x's row at its owner replica, with the first fatal
// error recorded on any span member: a failed write records it on its
// own partition only. Each member's is read under the row's stripe
// there, which suffices because fatal is written under a full drain.
func (x *txn) readRow() rowState {
	o, t := x.own()
	row := o.readRow(t)
	for i := 1; i < len(x.span) && row.fatal == nil; i++ {
		row.fatal = x.span[i].readRow(x.locs[i]).fatal
	}
	return row
}

// readRow snapshots row t under t's stripe.
func (r *runner) readRow(t int) rowState {
	var buf [maxStripeBuf]int
	tset := r.txnStripes(buf[:0], t)
	r.gate.lockSet(tset)
	row := rowState{gen: r.gen[t], attempts: r.attempts[t], status: r.status[t], cause: r.abortCause[t], fatal: r.fatal}
	r.gate.unlockSet(tset)
	return row
}

// teardown ends x's in-flight attempt from outside the step path, under
// the span's drain. Unless the engine has failed, x is no longer active,
// or admit (evaluated under the drain; nil means yes) refuses, it erases
// the attempt's events (cascading as needed), bumps the generation and
// records cause; then it abandons x — status persisted, counted in
// GaveUp and, with lease, LeaseExpired — or, with park, leaves it active
// for a Resume. x's locks are released after the drain, which wakes a
// step parked inside a lock acquisition; whatever admit publishes is
// therefore visible to it. Reports whether the teardown happened, and
// the fatal error.
func (x *txn) teardown(cause error, park, lease bool, admit func() bool) (bool, error) {
	x.span.drain()
	o, t := x.own()
	if fatal := x.span.fatal(); fatal != nil || o.status[t] != txActive || (admit != nil && !admit()) {
		x.span.undrain()
		if fatal != nil {
			// A failed engine admits nothing more; shedding the row's locks
			// lets whoever waits on them find that out.
			o.pe.mgr.ReleaseAll(x.sid)
		}
		return false, fatal
	}
	eraseDrained(x.span, x)
	o.gen[t]++
	o.abortCause[t] = cause
	if !park {
		o.met.GaveUp++
		if lease {
			o.met.LeaseExpired++
		}
		x.setStatusDrained(txAbandoned)
	}
	fatal := x.span.fatal()
	x.span.undrain()
	o.pe.mgr.ReleaseAll(x.sid)
	return true, fatal
}
