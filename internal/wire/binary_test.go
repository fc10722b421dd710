package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"locksafe/internal/model"
)

// sampleRequests covers every op the binary codec encodes.
func sampleRequests() []Request {
	table, csteps := model.CompactTxn([]model.Step{
		model.LX("accounts/7"), model.W("accounts/7"), model.LS("rates"),
		model.R("rates"), model.US("rates"), model.UX("accounts/7"),
	})
	return []Request{
		{ID: 1, Op: OpHello, Version: Version},
		{ID: 2, Op: OpOpen, Name: "transfer", Table: table, CSteps: csteps},
		{ID: 3, Op: OpRun, Name: "", Table: table, CSteps: csteps},
		{ID: 4, Op: OpOpen, Name: "empty"}, // empty declared body
		{ID: 5, Op: OpStep, SID: 9, Attempt: 2, CStep: model.CompactStep{Op: model.Write, Idx: 1}, HasCompact: true},
		{ID: 6, Op: OpCommit, SID: 9, Attempt: 2},
		{ID: 7, Op: OpAbort, SID: 9},
		{ID: 8, Op: OpStats},
		{ID: 9, Op: OpInspect},
		{ID: 10, Op: OpResume, Name: "transfer", Table: table, CSteps: csteps,
			SID: 9, Token: 0xDEADBEEFCAFE},
		{ID: 11, Op: OpResume, Name: "empty", SID: 3, Token: 1},
	}
}

// sampleResponses covers every code, flag block and field combination.
func sampleResponses() []Response {
	stats := &Stats{Commits: 12, GaveUp: 1, DeadlockAborts: 2, PolicyAborts: 3,
		ImproperAborts: 4, CascadeAborts: 5, LeaseExpired: 6, Events: 700,
		Replayed: 8, OpenSessions: 9, WaitNS: 123456789, ElapsedNS: 987654321}
	resps := []Response{
		{ID: 1, OK: true, Version: Version, Policy: "2PL"},
		{ID: 2, OK: true, SID: 41},
		{ID: 3, OK: true},
		{ID: 4, OK: true, Stats: stats},
		{ID: 5, OK: true, Inspect: &Inspect{Log: "(LX a)(W a)", State: "a=1",
			MonitorKey: "2pl", Serializable: true, Stats: *stats}},
		{ID: 6, OK: true, SID: 41, Token: 0xFEEDFACE0, Attempt: 0},
		{ID: 7, OK: true, SID: 41, Attempt: 3},
	}
	for _, code := range []string{CodeAborted, CodeAbandoned, CodeExpired,
		CodeClosed, CodeDone, CodeMismatch, CodeMalformed, CodeBadReq,
		CodeVersion, CodeInternal} {
		resps = append(resps, Response{ID: 10, Code: code, Err: "refused: " + code, SID: 41})
	}
	return resps
}

// binaryRoundTripReqs pushes requests through a binary Writer/Reader
// pair and returns the decoded copy.
func binaryRoundTripReqs(t *testing.T, reqs []Request) []Request {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetCodec(CodecBinary)
	if err := w.WriteRequests(reqs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.SetCodec(CodecBinary)
	var got []Request
	for len(got) < len(reqs) {
		batch, err := r.ReadRequests()
		if err != nil {
			t.Fatalf("decode after %d of %d: %v", len(got), len(reqs), err)
		}
		got = append(got, batch...)
	}
	return got
}

func binaryRoundTripResps(t *testing.T, resps []Response) []Response {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetCodec(CodecBinary)
	if err := w.WriteResponses(resps); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.SetCodec(CodecBinary)
	var got []Response
	for len(got) < len(resps) {
		batch, err := r.ReadResponses()
		if err != nil {
			t.Fatalf("decode after %d of %d: %v", len(got), len(resps), err)
		}
		got = append(got, batch...)
	}
	return got
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := sampleRequests()
	got := binaryRoundTripReqs(t, reqs)
	for i := range reqs {
		if !reflect.DeepEqual(got[i], reqs[i]) {
			t.Errorf("request %d: got %+v, want %+v", i, got[i], reqs[i])
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := sampleResponses()
	got := binaryRoundTripResps(t, resps)
	for i := range resps {
		if !reflect.DeepEqual(got[i], resps[i]) {
			t.Errorf("response %d: got %+v, want %+v", i, got[i], resps[i])
		}
	}
}

// TestBinaryCodecSwitchMidStream pins the handshake mechanics: a stream
// that starts with the JSON hello and switches to binary after it
// decodes cleanly when the reader switches at the same boundary.
func TestBinaryCodecSwitchMidStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	hello := Request{ID: 1, Op: OpHello, Version: Version}
	if err := w.WriteRequests([]Request{hello}); err != nil {
		t.Fatal(err)
	}
	w.SetCodec(CodecBinary)
	rest := []Request{{ID: 2, Op: OpCommit, SID: 5}, {ID: 3, Op: OpAbort, SID: 5}}
	if err := w.WriteRequests(rest); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	first, err := r.ReadRequests()
	if err != nil {
		t.Fatalf("JSON hello: %v", err)
	}
	if len(first) != 1 || !reflect.DeepEqual(first[0], hello) {
		t.Fatalf("hello = %+v", first)
	}
	r.SetCodec(CodecBinary)
	var got []Request
	for len(got) < len(rest) {
		batch, err := r.ReadRequests()
		if err != nil {
			t.Fatalf("binary tail: %v", err)
		}
		got = append(got, batch...)
	}
	if !reflect.DeepEqual(got, rest) {
		t.Fatalf("tail = %+v, want %+v", got, rest)
	}
}

// frame wraps a payload in the 4-byte big-endian length header.
func frame(payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(out, payload...)
}

// validStepPayload builds one well-formed single-step binary payload.
func validStepPayload(t *testing.T) []byte {
	t.Helper()
	payload := []byte{binMagic, 1}
	payload, err := appendRequest(payload, &Request{ID: 7, Op: OpStep, SID: 3,
		CStep: model.CompactStep{Op: model.Read, Idx: 0}, HasCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestBinaryMangledFramesFailCleanly: corrupted frames must produce
// decode errors, never panics or silent misparses into valid requests.
func TestBinaryMangledFramesFailCleanly(t *testing.T) {
	good := validStepPayload(t)
	readFrom := func(stream []byte) ([]Request, error) {
		r := NewReader(bytes.NewReader(stream))
		r.SetCodec(CodecBinary)
		return r.ReadRequests()
	}
	if _, err := readFrom(frame(good)); err != nil {
		t.Fatalf("control: %v", err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[0] ^= 0xFF
		if _, err := readFrom(frame(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want magic complaint", err)
		}
	})
	t.Run("zero count", func(t *testing.T) {
		if _, err := readFrom(frame([]byte{binMagic, 0})); err == nil {
			t.Fatal("empty batch decoded")
		}
	})
	t.Run("count exceeds payload", func(t *testing.T) {
		if _, err := readFrom(frame([]byte{binMagic, 200, byte(0)})); err == nil {
			t.Fatal("overlong batch count decoded")
		}
	})
	t.Run("unknown op byte", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[2] = 0xEE // op byte of the first message
		if _, err := readFrom(frame(bad)); err == nil {
			t.Fatal("unknown op decoded")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := readFrom(frame(append(bytes.Clone(good), 0x00))); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		full := frame(good)
		if _, err := readFrom(full[:len(full)-2]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("death on header boundary", func(t *testing.T) {
		// The header arrived but zero payload bytes: a mid-frame death,
		// normalized to ErrUnexpectedEOF (never a clean EOF).
		if _, err := readFrom(frame(good)[:4]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := readFrom(frame(good)[:2]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("oversize length", func(t *testing.T) {
		// Refused on the header alone, before any payload is awaited.
		hdr := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
		if _, err := readFrom(hdr); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
			t.Fatalf("err = %v, want MaxFrame refusal", err)
		}
	})
}

// TestBinaryMidFrameDrop sweeps every possible cut point of a real
// batch frame — the byte-exact truncations the chaos proxy's kill plan
// produces when a connection dies mid-send. Whatever the offset, the
// reader must fail cleanly (no partial batch, no hang, no panic): a cut
// before any byte is the clean between-frames close (io.EOF), every
// other cut — inside the header, on the header/payload boundary, inside
// any message — is io.ErrUnexpectedEOF, so the server can tell the two
// apart.
func TestBinaryMidFrameDrop(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetCodec(CodecBinary)
	if err := w.WriteRequests(sampleRequests()[1:4]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	reqFrame := bytes.Clone(buf.Bytes())
	buf.Reset()
	if err := w.WriteResponses(sampleResponses()[:3]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	respFrame := buf.Bytes()

	read := func(stream []byte, resp bool) (int, error) {
		r := NewReader(bytes.NewReader(stream))
		r.SetCodec(CodecBinary)
		if resp {
			got, err := r.ReadResponses()
			return len(got), err
		}
		got, err := r.ReadRequests()
		return len(got), err
	}
	for _, dir := range []struct {
		name  string
		frame []byte
		resp  bool
	}{{"request", reqFrame, false}, {"response", respFrame, true}} {
		if n, err := read(dir.frame, dir.resp); err != nil || n != 3 {
			t.Fatalf("%s control: %d messages, err %v", dir.name, n, err)
		}
		for cut := 0; cut < len(dir.frame); cut++ {
			n, err := read(dir.frame[:cut], dir.resp)
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			if err != want || n != 0 {
				t.Fatalf("%s cut at byte %d of %d: %d messages, err %v, want %v", dir.name, cut, len(dir.frame), n, err, want)
			}
		}
	}
}

// TestHelloFrame pins the one JSON frame of the protocol: before the
// codec switch a frame is exactly one bare JSON object, in either
// direction — anything else fails to decode, and a batch has no
// encoding.
func TestHelloFrame(t *testing.T) {
	readReq := func(payload string) ([]Request, error) {
		return NewReader(bytes.NewReader(frame([]byte(payload)))).ReadRequests()
	}
	reqs, err := readReq(`{"id":1,"op":"hello","version":4}`)
	if err != nil || len(reqs) != 1 || !reflect.DeepEqual(reqs[0], Request{ID: 1, Op: OpHello, Version: Version}) {
		t.Fatalf("hello = %+v, %v", reqs, err)
	}
	for _, bad := range []string{
		`{"id":`,                    // malformed object
		`[{"id":1,"op":"hello"}]`,   // a batch: not a bare object
		`[]`,                        // an empty batch
		`not json`,                  // garbage
		string(validStepPayload(t)), // a binary payload before the switch
	} {
		if got, err := readReq(bad); err == nil {
			t.Errorf("hello reader accepted %q as %+v", bad, got)
		}
		if got, err := NewReader(bytes.NewReader(frame([]byte(bad)))).ReadResponses(); err == nil {
			t.Errorf("hello-answer reader accepted %q as %+v", bad, got)
		}
	}

	// The answer — a refusal here, the frame an old client must be able
	// to read — round-trips through the same path.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	refusal := Response{ID: 1, Code: CodeVersion, Err: "server speaks protocol version 4 only"}
	if err := w.WriteResponses([]Response{refusal}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	resps, err := NewReader(&buf).ReadResponses()
	if err != nil || len(resps) != 1 || !reflect.DeepEqual(resps[0], refusal) {
		t.Fatalf("refusal = %+v, %v", resps, err)
	}

	// One message per frame until the switch.
	if err := w.WriteRequests(sampleRequests()[:2]); err == nil {
		t.Fatal("pre-switch request batch encoded")
	}
	if err := w.WriteResponses(sampleResponses()[:2]); err == nil {
		t.Fatal("pre-switch response batch encoded")
	}
}

// TestBinaryUnencodable pins the encoder's refusal to ship malformed
// messages: a step request without its compact step, and responses
// whose field combinations have no binary representation.
func TestBinaryUnencodable(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"unknown op", func() error {
			_, err := appendRequest(nil, &Request{Op: "bogus"})
			return err
		}},
		{"step without compact form", func() error {
			_, err := appendRequest(nil, &Request{Op: OpStep, SID: 1})
			return err
		}},
		{"OK with refusal fields", func() error {
			_, err := appendResponse(nil, &Response{OK: true, Err: "boom"})
			return err
		}},
		{"refusal with unknown code", func() error {
			_, err := appendResponse(nil, &Response{Code: "no-such-code"})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.err(); err == nil {
				t.Fatal("encoded, want error")
			}
		})
	}
}

// TestBinaryFramePacking: a large batch must split across frames, each
// at most MaxFrame, and reassemble to the original sequence; a message
// that alone exceeds MaxFrame is unsendable.
func TestBinaryFramePacking(t *testing.T) {
	big := strings.Repeat("x", MaxFrame/3)
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{ID: uint64(i), Op: OpOpen, Name: big,
			Table:  []model.Entity{model.Entity(big)},
			CSteps: []model.CompactStep{{Op: model.LockExclusive, Idx: 0}}}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetCodec(CodecBinary)
	if err := w.WriteRequests(reqs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// The split: each message is ~2/3 MaxFrame, so no two share a frame,
	// and no frame's length field exceeds the bound.
	frames := 0
	for stream := buf.Bytes(); len(stream) > 0; frames++ {
		n := binary.BigEndian.Uint32(stream)
		if n > MaxFrame {
			t.Fatalf("frame %d carries %d payload bytes, over MaxFrame", frames, n)
		}
		stream = stream[4+n:]
	}
	if frames != len(reqs) {
		t.Fatalf("burst packed into %d frames, want %d", frames, len(reqs))
	}

	// The reassembly: one frame per read, the original sequence overall.
	r := NewReader(&buf)
	r.SetCodec(CodecBinary)
	var got []Request
	for len(got) < len(reqs) {
		batch, err := r.ReadRequests()
		if err != nil {
			t.Fatalf("decode after %d of %d: %v", len(got), len(reqs), err)
		}
		got = append(got, batch...)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatal("multi-frame batch did not reassemble")
	}

	huge := []Request{{ID: 1, Op: OpOpen, Name: strings.Repeat("x", MaxFrame)}}
	if err := w.WriteRequests(huge); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized single message: err = %v, want MaxFrame refusal", err)
	}
}

// TestBinarySteadyStateAllocs pins the codec's steady-state allocation
// cost exactly: after warm-up, one WriteRequests+Flush+ReadRequests
// round of step/commit messages over a bytes.Buffer (and the same in
// the response direction) allocates at most twice, and the count does
// not depend on how many messages the frame carries — the pooled
// scratch, not the batch, pays. The traced bench run's
// wire.codec_allocs_per_commit and server.allocs_per_commit are the
// end-to-end view of the same property.
func TestBinarySteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	w, r := NewWriter(&buf), NewReader(&buf)
	w.SetCodec(CodecBinary)
	r.SetCodec(CodecBinary)
	defer w.Release()
	defer r.Release()

	batch := func(n int) ([]Request, []Response) {
		reqs, resps := make([]Request, n), make([]Response, n)
		for i := range reqs {
			reqs[i] = Request{ID: uint64(i + 1), Op: OpStep, SID: 9, Attempt: 2,
				CStep: model.CompactStep{Op: model.Write, Idx: uint32(i)}, HasCompact: true}
			if i == n-1 {
				reqs[i] = Request{ID: uint64(i + 1), Op: OpCommit, SID: 9, Attempt: 2}
			}
			resps[i] = Response{ID: uint64(i + 1), OK: true, SID: 9, Attempt: 2}
		}
		return reqs, resps
	}
	measure := func(n int) (reqAllocs, respAllocs float64) {
		reqs, resps := batch(n)
		reqRound := func() {
			if err := w.WriteRequests(reqs); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, err := r.ReadRequests(); err != nil || len(got) != n {
				t.Fatalf("read %d requests, err %v, want %d", len(got), err, n)
			}
		}
		respRound := func() {
			if err := w.WriteResponses(resps); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, err := r.ReadResponses(); err != nil || len(got) != n {
				t.Fatalf("read %d responses, err %v, want %d", len(got), err, n)
			}
		}
		// AllocsPerRun's own warm-up call sizes the scratch.
		return testing.AllocsPerRun(100, reqRound), testing.AllocsPerRun(100, respRound)
	}
	req1, resp1 := measure(1)
	req16, resp16 := measure(16)
	t.Logf("allocs per round: requests %v (n=1) %v (n=16), responses %v (n=1) %v (n=16)", req1, req16, resp1, resp16)
	if req1 != req16 || resp1 != resp16 {
		t.Errorf("allocations depend on batch size: requests %v vs %v, responses %v vs %v", req1, req16, resp1, resp16)
	}
	if req16 > 2 || resp16 > 2 {
		t.Errorf("steady-state round allocates: requests %v, responses %v, want <= 2 each", req16, resp16)
	}
}
