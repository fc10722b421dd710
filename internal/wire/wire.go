// Package wire defines the lockd network protocol: length-prefixed
// frames over a byte stream, with a hello handshake, session lifecycle
// requests (open / step / commit / abort / resume), a one-round-trip
// stored-procedure mode (run), and diagnostics (stats / inspect). It is
// shared by the server (internal/server) and the Go client (pkg/client);
// docs/PROTOCOL.md is the normative description, with a worked example
// transcript.
//
// Framing: every message is a 4-byte big-endian payload length followed
// by that many payload bytes. The first frame in each direction is the
// hello exchange, one bare JSON object each way — the only JSON on the
// wire, so that a peer of any vintage can read a version refusal. Every
// later frame is the binary codec (binary.go): a 0xB3 magic byte, a
// message count, and that many compact binary messages, so a pipelined
// burst costs one frame (and typically one syscall) per direction
// instead of one per step. Frames are bounded by MaxFrame; an oversized
// length is a protocol error and the peer closes the connection.
//
// Pipelining: a client may send further requests before earlier
// responses arrive. Responses carry the request's id and may arrive out
// of order — requests for the *same* session are executed in
// submission order, requests for different sessions (and diagnostics)
// are concurrent. Step and commit requests carry the client's attempt
// tag; the server refuses (without executing) any tagged below the
// session's current attempt, so pipelined steps of an already-aborted
// attempt are drained as stale instead of being mistaken for the
// retry's resubmission.
//
// Both endpoints run a connection the same way: the hello exchange
// completes before any goroutine starts, both streams then switch to the
// binary codec, and from then on one goroutine reads while every
// outgoing message leaves through the connection's Outbox (outbox.go),
// whose writer coalesces a burst into batch frames and one flush.
package wire

import "locksafe/internal/model"

// Version is the one protocol version this tree speaks: a JSON hello,
// then the binary codec, with engine-wide session ids, resume tokens on
// open answers and the resume op. A hello naming any other version is
// refused CodeVersion (versions 2 and 3 were retired in PR 15).
const Version = 4

// MaxFrame bounds a frame's payload (requests and responses); the
// dominant size is a declared transaction body or an inspect log dump.
// Batch writers split a larger burst across several frames.
const MaxFrame = 1 << 20

// Request ops.
const (
	OpHello   = "hello"
	OpOpen    = "open"
	OpStep    = "step"
	OpCommit  = "commit"
	OpAbort   = "abort"
	OpRun     = "run"
	OpStats   = "stats"
	OpInspect = "inspect"
	// OpResume reattaches a parked session: the client re-sends the
	// declared body (as at open) plus the session's sid and the resume
	// token the open response carried. On success the session is live
	// again with a fresh attempt counter (Response.Attempt) and the client
	// replays its steps from the first.
	OpResume = "resume"
)

// Response codes (Code is set only when OK is false). CodeAborted is
// the one retryable failure: the session survives and the client may
// re-send the declared steps from the first. Everything else is
// terminal for the session (or the request).
const (
	CodeAborted   = "aborted"     // attempt torn down; session open, retry from step 0
	CodeAbandoned = "abandoned"   // retry budget exhausted; session finished
	CodeExpired   = "expired"     // lease expired; session finished
	CodeClosed    = "closed"      // server draining or engine closed
	CodeDone      = "done"        // session already committed/aborted or unknown sid
	CodeMismatch  = "mismatch"    // step does not match the declared body
	CodeMalformed = "malformed"   // declared body rejected (well-formedness)
	CodeBadReq    = "bad-request" // unparsable request, unknown op, missing field
	CodeVersion   = "version"     // hello version mismatch
	CodeInternal  = "internal"    // engine failure; the server is dying
)

// Request is a client→server message. The JSON tags are the hello
// frame: only id, op and version ever travel as JSON.
type Request struct {
	ID uint64 `json:"id"`
	Op string `json:"op"`
	// Version accompanies hello.
	Version int `json:"version,omitempty"`
	// Name accompanies open, run and resume: the transaction's display
	// name.
	Name string `json:"-"`
	// SID addresses an open session (step, commit, abort, resume).
	SID uint64 `json:"-"`
	// Attempt tags step and commit requests with the client's retry
	// attempt (0 for the first). The server executes the request only
	// when the tag equals the session's current attempt; a lower tag is
	// a late message of a torn-down attempt and is refused CodeAborted
	// without touching the session.
	Attempt int `json:"-"`
	// Token accompanies resume: the resume token issued by the open
	// response of the session being reattached.
	Token uint64 `json:"-"`

	// Open, run and resume carry the declared body as an entity table
	// plus (op, index) steps against it; step requests carry CStep, one
	// such pair against the table the session's open shipped (HasCompact
	// distinguishes a real step from the zero value).
	Table      []model.Entity      `json:"-"`
	CSteps     []model.CompactStep `json:"-"`
	CStep      model.CompactStep   `json:"-"`
	HasCompact bool                `json:"-"`
}

// DeclaredSteps expands an open/run/resume request's declared body.
func (r *Request) DeclaredSteps() ([]model.Step, error) {
	return model.ExpandCompact(r.Table, r.CSteps)
}

// Response is a server→client message. The JSON tags are the hello
// answer: only id, ok, code, error, version and policy ever travel as
// JSON.
type Response struct {
	ID   uint64 `json:"id"`
	OK   bool   `json:"ok"`
	Code string `json:"code,omitempty"`
	Err  string `json:"error,omitempty"`
	// Version and Policy answer hello.
	Version int    `json:"version,omitempty"`
	Policy  string `json:"policy,omitempty"`
	// SID echoes the session a request addressed, and answers open with
	// the new session's; stats, inspect and run answers carry 0.
	SID uint64 `json:"-"`
	// Token answers open and resume: the resume token to present with a
	// later resume of this session.
	Token uint64 `json:"-"`
	// Attempt answers resume: the attempt tag the reattached session's
	// next step must carry (the attempt counter restarts at 0).
	Attempt int `json:"-"`
	// Stats answers stats; Inspect answers inspect.
	Stats   *Stats   `json:"-"`
	Inspect *Inspect `json:"-"`
}

// Stats mirrors runtime.Metrics plus the open-session gauge; durations
// travel as nanoseconds.
type Stats struct {
	Commits        int
	GaveUp         int
	DeadlockAborts int
	PolicyAborts   int
	ImproperAborts int
	CascadeAborts  int
	LeaseExpired   int
	Events         int
	Replayed       int
	OpenSessions   int
	WaitNS         int64
	ElapsedNS      int64
}

// Inspect is the diagnostic world-state snapshot: the surviving log,
// the structural state, the policy monitor's key and the log's
// serializability verdict (the equivalence-test digest vocabulary).
type Inspect struct {
	Log          string
	State        string
	MonitorKey   string
	Serializable bool
	Stats        Stats
}
