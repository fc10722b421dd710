// Package client is the Go client of the lockd network lock service: it
// speaks the length-prefixed frame protocol of internal/wire (specified
// in docs/PROTOCOL.md: protocol version 4 — a JSON hello, then the
// binary codec, with session resumption) over one TCP connection and
// mirrors the session runtime's error vocabulary as exported sentinels.
//
// A transaction is declared in full at Open (the paper's policies are
// properties of declared bodies; the server also needs the body to
// re-run the transaction through cascade recovery), then driven in one
// of three ways, in ascending throughput:
//
//   - per-step: Session.Step / Session.Commit, one synchronous round
//     trip each — the right shape when the client computes between
//     steps and wants each admission confirmed before proceeding;
//   - pipelined: Session.StepAsync / Session.CommitAsync / Session.Flush
//     (or the Session.RunPipelined retry loop) fire the declared steps
//     without awaiting each response and reconcile at commit, so an
//     attempt costs ~one round trip instead of one per step;
//   - stored-procedure: Client.Run ships the declared body once and the
//     server drives the whole step/commit/abort/retry loop engine-side,
//     answering with a single terminal response.
//
// A session that loses its connection is *parked* server-side, not
// aborted: its locks are released but the
// session stays open within its lease window, and Client.Resume on a
// fresh connection reattaches it by sid + resume token (issued at open)
// and re-drives the declared body from the first step.
//
// On ErrAborted the server has erased the attempt and released its
// locks; the session survives and the client retries from the first
// declared step (the Run variants do the retry loop, with capped,
// jittered backoff — see Backoff).
//
// Concurrency contract: a Client is safe for concurrent use and
// multiplexes any number of sessions over one connection (requests
// carry ids, frames may batch many messages, responses interleave). A
// Session is NOT safe for concurrent use — the async API pipelines
// requests *within* a session, but submission and reconciliation must
// stay on a single goroutine per session, matching the server's one
// worker goroutine per session. Pipelined requests are attempt-tagged
// so that late responses of a torn-down attempt are drained as stale
// rather than mistaken for the retry's.
//
// New completes the hello on the calling goroutine before it starts the
// connection's two goroutines: the response reader and the writer of
// the connection's wire.Outbox, the coalescing outgoing half the server
// uses for its responses too.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/wire"
)

// Sentinel errors, mirroring the wire codes (and internal/runtime's
// session vocabulary). Test with errors.Is.
var (
	ErrAborted      = errors.New("client: attempt aborted; retry from the first declared step")
	ErrAbandoned    = errors.New("client: session abandoned by the server")
	ErrLeaseExpired = errors.New("client: session lease expired")
	ErrClosed       = errors.New("client: server closed or draining")
	ErrSessionDone  = errors.New("client: session already finished")
	ErrStepMismatch = errors.New("client: step does not match the declared transaction")
	ErrProtocol     = errors.New("client: protocol error")
	// ErrVersion: the server refused our protocol version at handshake
	// (this client dialing a lockd from before or after protocol 4).
	ErrVersion = errors.New("client: protocol version refused by server")
	// ErrConnLost: the TCP connection died mid-flight (read or write
	// error, not a server refusal and not Client.Close). The critical
	// distinction from every other sentinel: a refusal proves the request
	// did NOT take effect, but a lost connection proves nothing — an
	// in-flight commit or Run may have landed server-side before the wire
	// broke. A caller seeing ErrConnLost must treat the outcome as
	// unknown and may only retry operations it knows to be idempotent or
	// whose duplicate effect it can tolerate; blind retry can double-run
	// a transaction.
	ErrConnLost = errors.New("client: connection lost; in-flight outcomes unknown")
)

// Backoff is the retry pacing of the Run variants, the runtime's curve
// (runtime.Config.Backoff): the k-th retry waits k*Base, capped at
// 100*Base, then jittered down by up to half so clients aborted by the
// same conflict do not retry in lockstep.
type Backoff struct {
	// Base is the linear base delay; 0 or negative means no backoff.
	Base time.Duration
}

// delay returns the k-th retry's pause.
func (b Backoff) delay(k int) time.Duration {
	d := min(time.Duration(k)*b.Base, 100*b.Base)
	if d <= 0 {
		return 0
	}
	return time.Duration(float64(d) * (1 - 0.5*rand.Float64()))
}

// retry calls attempt until it returns anything but ErrAborted, pausing
// before the k-th retry for delay(k).
func (b Backoff) retry(attempt func() error) error {
	for k := 1; ; k++ {
		err := attempt()
		if !errors.Is(err, ErrAborted) {
			return err
		}
		if d := b.delay(k); d > 0 {
			time.Sleep(d)
		}
	}
}

// Client is one connection to a lockd server. Safe for concurrent use.
type Client struct {
	nc  net.Conn
	rd  *wire.Reader // owned by readLoop
	out *wire.Outbox[wire.Request]

	mu     sync.Mutex // pending map, id counter, terminal error
	nextID uint64
	pend   map[uint64]chan wire.Response
	dead   error

	chpool sync.Pool // recycled response channels (cap-1 chan wire.Response)

	policy string
}

// Dial connects, performs the version handshake and returns the client.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(nc)
}

// New wraps an established connection (tests use net.Pipe or an
// in-process listener) and performs the version handshake. On failure
// it closes nc: a transport error wraps ErrConnLost, a refusal maps to
// its sentinel (ErrVersion for a server of another protocol version).
func New(nc net.Conn) (*Client, error) {
	rd, wr := wire.NewReader(nc), wire.NewWriter(nc)
	policy, err := hello(rd, wr)
	if err != nil {
		rd.Release()
		wr.Release()
		nc.Close()
		return nil, err
	}
	// The hello exchange is JSON and everything after it binary; no
	// goroutine exists yet, so both streams switch between frames.
	rd.SetCodec(wire.CodecBinary)
	wr.SetCodec(wire.CodecBinary)
	c := &Client{
		nc:     nc,
		rd:     rd,
		out:    wire.NewOutbox(wr, (*wire.Writer).WriteRequests),
		nextID: 1, // the hello's
		pend:   make(map[uint64]chan wire.Response),
		policy: policy,
	}
	go c.readLoop()
	go func() {
		if err := c.out.Run(); err != nil {
			c.failConn(err)
		}
	}()
	return c, nil
}

// hello performs the handshake on the calling goroutine — the hello
// request, id 1, and its answer — and returns the server's policy name.
func hello(rd *wire.Reader, wr *wire.Writer) (string, error) {
	err := wr.WriteRequests([]wire.Request{{ID: 1, Op: wire.OpHello, Version: wire.Version}})
	if err == nil {
		err = wr.Flush()
	}
	var resps []wire.Response
	if err == nil {
		resps, err = rd.ReadResponses()
	}
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	if !resps[0].OK {
		return "", codeError(resps[0])
	}
	return resps[0].Policy, nil
}

// Policy returns the server's policy name, as reported at handshake.
func (c *Client) Policy() string { return c.policy }

// Close tears the connection down. The server parks this connection's
// unfinished sessions — their locks are released, and each stays
// resumable (Resume) until its lease runs out — and cancels its
// in-flight Runs. Requests failing after Close wrap ErrClosed — a
// deliberate local shutdown, not ErrConnLost.
func (c *Client) Close() error {
	c.fail(ErrClosed, errors.New("client closed"))
	return nil
}

// fail records the terminal error (wrapping the given sentinel), fails
// every pending request, stops the outbox and closes the connection.
// Idempotent (first error wins — so a Close racing a transport death
// reports whichever happened first).
func (c *Client) fail(base, err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = fmt.Errorf("%w: %v", base, err)
	}
	for id, ch := range c.pend {
		close(ch)
		delete(c.pend, id)
	}
	c.mu.Unlock()
	c.out.Stop()
	c.nc.Close()
}

// failConn is fail for transport deaths: the connection broke under us
// (rather than being closed by us), so pending and future requests wrap
// ErrConnLost — their outcomes are unknown, not refused.
func (c *Client) failConn(err error) {
	c.fail(ErrConnLost, err)
}

func (c *Client) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// readLoop routes responses — possibly many per frame — to their
// waiting requests by id.
func (c *Client) readLoop() {
	defer c.rd.Release()
	for {
		resps, err := c.rd.ReadResponses()
		if err != nil {
			c.failConn(err)
			return
		}
		for i := range resps {
			resp := resps[i]
			c.mu.Lock()
			ch := c.pend[resp.ID]
			delete(c.pend, resp.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- resp
			}
		}
	}
}

// getch takes a response channel from the pool. A channel may be
// recycled (recycle) only after a successful receive — a channel the
// fail path may still close must never re-enter the pool.
func (c *Client) getch() chan wire.Response {
	if v := c.chpool.Get(); v != nil {
		return v.(chan wire.Response)
	}
	return make(chan wire.Response, 1)
}

// recycle returns a drained response channel to the pool.
func (c *Client) recycle(ch chan wire.Response) {
	c.chpool.Put(ch)
}

// send assigns the request an id, registers its response channel and
// queues it on the outbox. The async submission primitive: callers
// receive the response later on ch (closed if the connection dies).
func (c *Client) send(req wire.Request) (uint64, chan wire.Response, error) {
	ch := c.getch()
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		c.recycle(ch)
		return 0, nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pend[req.ID] = ch
	// Queued under mu, so ids leave in increasing order. A stopped outbox
	// refuses the request; the fail that stopped it closes ch.
	c.out.Send(req)
	c.mu.Unlock()
	return req.ID, ch, nil
}

// roundTrip sends one request and waits for its response.
func (c *Client) roundTrip(req wire.Request) (wire.Response, error) {
	_, ch, err := c.send(req)
	if err != nil {
		return wire.Response{}, err
	}
	resp, ok := <-ch
	if !ok {
		return wire.Response{}, c.deadErr()
	}
	c.recycle(ch)
	if !resp.OK {
		return resp, codeError(resp)
	}
	return resp, nil
}

// codeError maps a refused response to the sentinel vocabulary.
func codeError(resp wire.Response) error {
	var base error
	switch resp.Code {
	case wire.CodeAborted:
		base = ErrAborted
	case wire.CodeAbandoned:
		base = ErrAbandoned
	case wire.CodeExpired:
		base = ErrLeaseExpired
	case wire.CodeClosed:
		base = ErrClosed
	case wire.CodeDone:
		base = ErrSessionDone
	case wire.CodeMismatch:
		base = ErrStepMismatch
	case wire.CodeVersion:
		base = ErrVersion
	default:
		base = ErrProtocol
	}
	return fmt.Errorf("%w: %s", base, resp.Err)
}

// Run executes the declared transaction in stored-procedure mode: the
// body travels once and the server drives the whole step/commit loop —
// including abort/retry with the engine's backoff — answering with a
// single terminal response. Nil means committed; the abort/retry cycle
// is invisible here (no ErrAborted), and terminal failures arrive as
// the usual sentinels. An ErrConnLost return is the one ambiguous case:
// the body travelled in full or in part and the connection died before
// the terminal response — the server may well have committed it, so
// resubmitting on a fresh connection can run the transaction twice.
func (c *Client) Run(tx model.Txn) error {
	req := wire.Request{Op: wire.OpRun, Name: tx.Name}
	req.Table, req.CSteps = model.CompactTxn(tx.Steps)
	_, err := c.roundTrip(req)
	return err
}

// Stats polls the server's metrics snapshot.
func (c *Client) Stats() (wire.Stats, error) {
	return diagnostic(c, wire.OpStats, func(r *wire.Response) *wire.Stats { return r.Stats })
}

// Inspect fetches the server's diagnostic world-state snapshot (the
// surviving log, structural state, monitor key and serializability
// verdict). Heavyweight server-side; meant for tests, debugging and
// final verification, not routine polling.
func (c *Client) Inspect() (wire.Inspect, error) {
	return diagnostic(c, wire.OpInspect, func(r *wire.Response) *wire.Inspect { return r.Inspect })
}

// diagnostic sends a request that names nothing but its op and returns
// the payload its answer must carry.
func diagnostic[T any](c *Client, op string, payload func(*wire.Response) *T) (T, error) {
	var zero T
	resp, err := c.roundTrip(wire.Request{Op: op})
	if err != nil {
		return zero, err
	}
	p := payload(&resp)
	if p == nil {
		return zero, fmt.Errorf("%w: %s response without payload", ErrProtocol, op)
	}
	return *p, nil
}
