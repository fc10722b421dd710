package wire

// binary.go is the payload codec of every frame after the hello
// exchange. A binary payload is
//
//	0xB3  uvarint(count)  count × message
//
// and must be consumed exactly — trailing bytes are a protocol error.
// Integers are unsigned varints (ids, sids, lengths, counts) or zigzag
// signed varints (version, attempt, stats counters); strings are a
// uvarint length followed by raw bytes; ops and response codes are
// single bytes. Steps travel as (opByte, entityIndex) pairs — the
// CompactStep form — indexed against the entity table the open/run
// request shipped, so the per-step path never carries or parses an
// entity name.
//
// The hello exchange itself is one JSON object each way, after which
// both endpoints switch to binary for good. Reader and Writer carry
// that per-connection state plus reusable scratch (payload buffer,
// decoded message slice, encode buffer), recycled through sync.Pools
// across connections, so a steady-state step request is decoded and its
// response encoded without allocating.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"locksafe/internal/model"
)

// Codec is a connection's position in the protocol: the hello exchange
// or everything after it.
type Codec uint8

const (
	// CodecJSON is the hello exchange: exactly one JSON object per frame.
	// Every Reader and Writer starts here.
	CodecJSON Codec = iota
	// CodecBinary is the payload encoding of every frame after the hello.
	CodecBinary
)

// binMagic is the first byte of every binary payload; it can never open
// a JSON payload, so a codec mismatch fails immediately and loudly.
const binMagic = 0xB3

// Request op bytes (0 is invalid).
var binOps = map[string]byte{
	OpHello:   1,
	OpOpen:    2,
	OpStep:    3,
	OpCommit:  4,
	OpAbort:   5,
	OpRun:     6,
	OpStats:   7,
	OpInspect: 8,
	OpResume:  9,
}

var binOpNames = invert(binOps)

// Response code bytes; 0 is OK (no code).
var binCodes = map[string]byte{
	CodeAborted:   1,
	CodeAbandoned: 2,
	CodeExpired:   3,
	CodeClosed:    4,
	CodeDone:      5,
	CodeMismatch:  6,
	CodeMalformed: 7,
	CodeBadReq:    8,
	CodeVersion:   9,
	CodeInternal:  10,
}

var binCodeNames = invert(binCodes)

// invert maps each byte of a table back to its name; a byte the table
// does not use maps to "".
func invert(table map[string]byte) (names [256]string) {
	for name, b := range table {
		names[b] = name
	}
	return names
}

// Response presence flags.
const (
	binFlagHello   = 1 << iota // Version + Policy follow
	binFlagStats               // Stats block follows
	binFlagInspect             // Inspect block follows
	binFlagToken               // Token + Attempt follow (open/resume answers)
)

// ---------------------------------------------------------------------
// Encoding

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStats(b []byte, s *Stats) []byte {
	b = binary.AppendVarint(b, int64(s.Commits))
	b = binary.AppendVarint(b, int64(s.GaveUp))
	b = binary.AppendVarint(b, int64(s.DeadlockAborts))
	b = binary.AppendVarint(b, int64(s.PolicyAborts))
	b = binary.AppendVarint(b, int64(s.ImproperAborts))
	b = binary.AppendVarint(b, int64(s.CascadeAborts))
	b = binary.AppendVarint(b, int64(s.LeaseExpired))
	b = binary.AppendVarint(b, int64(s.Events))
	b = binary.AppendVarint(b, int64(s.Replayed))
	b = binary.AppendVarint(b, int64(s.OpenSessions))
	b = binary.AppendVarint(b, s.WaitNS)
	b = binary.AppendVarint(b, s.ElapsedNS)
	return b
}

// appendRequest encodes one request in binary form.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	op, ok := binOps[r.Op]
	if !ok {
		return nil, fmt.Errorf("wire: op %q has no binary encoding", r.Op)
	}
	b = append(b, op)
	b = binary.AppendUvarint(b, r.ID)
	switch r.Op {
	case OpHello:
		b = binary.AppendVarint(b, int64(r.Version))
	case OpOpen, OpRun, OpResume:
		b = appendString(b, r.Name)
		b = binary.AppendUvarint(b, uint64(len(r.Table)))
		for _, e := range r.Table {
			b = appendString(b, string(e))
		}
		b = binary.AppendUvarint(b, uint64(len(r.CSteps)))
		for _, cs := range r.CSteps {
			b = append(b, byte(cs.Op))
			b = binary.AppendUvarint(b, uint64(cs.Idx))
		}
		if r.Op == OpResume {
			b = binary.AppendUvarint(b, r.SID)
			b = binary.AppendUvarint(b, r.Token)
		}
	case OpStep:
		if !r.HasCompact {
			return nil, fmt.Errorf("wire: step request without a compact step (CStep, HasCompact)")
		}
		b = binary.AppendUvarint(b, r.SID)
		b = binary.AppendVarint(b, int64(r.Attempt))
		b = append(b, byte(r.CStep.Op))
		b = binary.AppendUvarint(b, uint64(r.CStep.Idx))
	case OpCommit:
		b = binary.AppendUvarint(b, r.SID)
		b = binary.AppendVarint(b, int64(r.Attempt))
	case OpAbort:
		b = binary.AppendUvarint(b, r.SID)
	case OpStats, OpInspect:
		// id only
	}
	return b, nil
}

// appendResponse encodes one response in binary form. OK is implied by
// code byte 0, so a response that is OK yet carries refusal fields (or
// refused without a code) has no binary encoding — the server never
// builds one.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	code := byte(0)
	if r.OK {
		if r.Code != "" || r.Err != "" {
			return nil, fmt.Errorf("wire: OK response carries refusal fields; no binary encoding")
		}
	} else {
		c, ok := binCodes[r.Code]
		if !ok {
			return nil, fmt.Errorf("wire: code %q has no binary encoding", r.Code)
		}
		code = c
	}
	b = append(b, code)
	var flags byte
	if r.Version != 0 || r.Policy != "" {
		flags |= binFlagHello
	}
	if r.Stats != nil {
		flags |= binFlagStats
	}
	if r.Inspect != nil {
		flags |= binFlagInspect
	}
	if r.Token != 0 || r.Attempt != 0 {
		flags |= binFlagToken
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, r.ID)
	b = binary.AppendUvarint(b, r.SID)
	if code != 0 {
		b = appendString(b, r.Err)
	}
	if flags&binFlagHello != 0 {
		b = binary.AppendVarint(b, int64(r.Version))
		b = appendString(b, r.Policy)
	}
	if flags&binFlagStats != 0 {
		b = appendStats(b, r.Stats)
	}
	if flags&binFlagInspect != 0 {
		b = appendString(b, r.Inspect.Log)
		b = appendString(b, r.Inspect.State)
		b = appendString(b, r.Inspect.MonitorKey)
		if r.Inspect.Serializable {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendStats(b, &r.Inspect.Stats)
	}
	if flags&binFlagToken != 0 {
		b = binary.AppendUvarint(b, r.Token)
		b = binary.AppendVarint(b, int64(r.Attempt))
	}
	return b, nil
}

// ---------------------------------------------------------------------
// Decoding

// cursor walks a binary payload with bounds-checked primitive reads.
type cursor struct{ b []byte }

func (d *cursor) rem() int { return len(d.b) }

func (d *cursor) u8() (byte, error) {
	if len(d.b) == 0 {
		return 0, fmt.Errorf("wire: binary payload truncated")
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint in binary payload")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *cursor) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint in binary payload")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *cursor) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)) {
		return "", fmt.Errorf("wire: binary string length %d exceeds remaining payload", n)
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

func (d *cursor) compactStep() (model.CompactStep, error) {
	ob, err := d.u8()
	if err != nil {
		return model.CompactStep{}, err
	}
	if !model.Op(ob).Valid() {
		return model.CompactStep{}, fmt.Errorf("wire: invalid step op byte %d", ob)
	}
	ix, err := d.uvarint()
	if err != nil {
		return model.CompactStep{}, err
	}
	if ix > math.MaxUint32 {
		return model.CompactStep{}, fmt.Errorf("wire: entity index %d exceeds uint32", ix)
	}
	return model.CompactStep{Op: model.Op(ob), Idx: uint32(ix)}, nil
}

func (d *cursor) stats(s *Stats) error {
	fields := [...]*int{
		&s.Commits, &s.GaveUp, &s.DeadlockAborts, &s.PolicyAborts,
		&s.ImproperAborts, &s.CascadeAborts, &s.LeaseExpired,
		&s.Events, &s.Replayed, &s.OpenSessions,
	}
	for _, f := range fields {
		v, err := d.varint()
		if err != nil {
			return err
		}
		*f = int(v)
	}
	var err error
	if s.WaitNS, err = d.varint(); err != nil {
		return err
	}
	s.ElapsedNS, err = d.varint()
	return err
}

func (d *cursor) request() (Request, error) {
	var r Request
	op, err := d.u8()
	if err != nil {
		return r, err
	}
	if r.Op = binOpNames[op]; r.Op == "" {
		return r, fmt.Errorf("wire: unknown binary op byte %d", op)
	}
	if r.ID, err = d.uvarint(); err != nil {
		return r, err
	}
	switch r.Op {
	case OpHello:
		v, err := d.varint()
		if err != nil {
			return r, err
		}
		r.Version = int(v)
	case OpOpen, OpRun, OpResume:
		if r.Name, err = d.str(); err != nil {
			return r, err
		}
		n, err := d.uvarint()
		if err != nil {
			return r, err
		}
		if n > uint64(d.rem()) {
			return r, fmt.Errorf("wire: entity table of %d entries exceeds remaining payload", n)
		}
		if n > 0 {
			r.Table = make([]model.Entity, n)
			for i := range r.Table {
				s, err := d.str()
				if err != nil {
					return r, err
				}
				r.Table[i] = model.Entity(s)
			}
		}
		m, err := d.uvarint()
		if err != nil {
			return r, err
		}
		if m > uint64(d.rem()) {
			return r, fmt.Errorf("wire: compact body of %d steps exceeds remaining payload", m)
		}
		if m > 0 {
			r.CSteps = make([]model.CompactStep, m)
			for i := range r.CSteps {
				if r.CSteps[i], err = d.compactStep(); err != nil {
					return r, err
				}
			}
		}
		if r.Op == OpResume {
			if r.SID, err = d.uvarint(); err != nil {
				return r, err
			}
			if r.Token, err = d.uvarint(); err != nil {
				return r, err
			}
		}
	case OpStep:
		if r.SID, err = d.uvarint(); err != nil {
			return r, err
		}
		a, err := d.varint()
		if err != nil {
			return r, err
		}
		r.Attempt = int(a)
		if r.CStep, err = d.compactStep(); err != nil {
			return r, err
		}
		r.HasCompact = true
	case OpCommit:
		if r.SID, err = d.uvarint(); err != nil {
			return r, err
		}
		a, err := d.varint()
		if err != nil {
			return r, err
		}
		r.Attempt = int(a)
	case OpAbort:
		if r.SID, err = d.uvarint(); err != nil {
			return r, err
		}
	case OpStats, OpInspect:
	}
	return r, nil
}

func (d *cursor) response() (Response, error) {
	var r Response
	code, err := d.u8()
	if err != nil {
		return r, err
	}
	if code == 0 {
		r.OK = true
	} else if r.Code = binCodeNames[code]; r.Code == "" {
		return r, fmt.Errorf("wire: unknown binary code byte %d", code)
	}
	flags, err := d.u8()
	if err != nil {
		return r, err
	}
	if flags&^(binFlagHello|binFlagStats|binFlagInspect|binFlagToken) != 0 {
		return r, fmt.Errorf("wire: unknown response flag bits %#x", flags)
	}
	if r.ID, err = d.uvarint(); err != nil {
		return r, err
	}
	if r.SID, err = d.uvarint(); err != nil {
		return r, err
	}
	if code != 0 {
		if r.Err, err = d.str(); err != nil {
			return r, err
		}
	}
	if flags&binFlagHello != 0 {
		v, err := d.varint()
		if err != nil {
			return r, err
		}
		r.Version = int(v)
		if r.Policy, err = d.str(); err != nil {
			return r, err
		}
	}
	if flags&binFlagStats != 0 {
		r.Stats = new(Stats)
		if err := d.stats(r.Stats); err != nil {
			return r, err
		}
	}
	if flags&binFlagInspect != 0 {
		r.Inspect = new(Inspect)
		if r.Inspect.Log, err = d.str(); err != nil {
			return r, err
		}
		if r.Inspect.State, err = d.str(); err != nil {
			return r, err
		}
		if r.Inspect.MonitorKey, err = d.str(); err != nil {
			return r, err
		}
		sz, err := d.u8()
		if err != nil {
			return r, err
		}
		if sz > 1 {
			return r, fmt.Errorf("wire: bad serializable byte %d", sz)
		}
		r.Inspect.Serializable = sz == 1
		if err := d.stats(&r.Inspect.Stats); err != nil {
			return r, err
		}
	}
	if flags&binFlagToken != 0 {
		if r.Token, err = d.uvarint(); err != nil {
			return r, err
		}
		a, err := d.varint()
		if err != nil {
			return r, err
		}
		r.Attempt = int(a)
	}
	return r, nil
}

// batchHeader consumes the magic byte and message count of a binary
// payload.
func (d *cursor) batchHeader() (int, error) {
	m, err := d.u8()
	if err != nil {
		return 0, err
	}
	if m != binMagic {
		return 0, fmt.Errorf("wire: binary frame lacks magic byte (got %#x) — codec mismatch?", m)
	}
	count, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, fmt.Errorf("wire: empty batch frame")
	}
	if count > uint64(d.rem()) {
		return 0, fmt.Errorf("wire: batch count %d exceeds remaining payload", count)
	}
	return int(count), nil
}

// ---------------------------------------------------------------------
// Scratch pools

var (
	byteBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	reqSlcPool  = sync.Pool{New: func() any { s := make([]Request, 0, 16); return &s }}
	respSlcPool = sync.Pool{New: func() any { s := make([]Response, 0, 16); return &s }}
)

func getBuf() []byte {
	return *byteBufPool.Get().(*[]byte)
}

func putBuf(b []byte) {
	b = b[:0]
	byteBufPool.Put(&b)
}

// ---------------------------------------------------------------------
// Reader

// Reader decodes frames from one connection. It owns the buffered
// stream, the per-connection codec state, and reusable decode scratch:
// the slice returned by ReadRequests/ReadResponses (and its elements)
// is valid only until the next call — callers copy the values they
// keep, which Go's value semantics make the default. A Reader is driven
// by one goroutine.
type Reader struct {
	br    *bufio.Reader
	codec Codec
	buf   []byte // payload scratch
	reqs  []Request
	resps []Response
}

// NewReader wraps a connection's read side, starting in CodecJSON.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r), buf: getBuf()}
}

// SetCodec switches the payload codec for subsequent frames.
func (r *Reader) SetCodec(c Codec) { r.codec = c }

// Release returns the Reader's scratch to the shared pools. Call it
// when the connection is done; the Reader must not be used afterwards.
func (r *Reader) Release() {
	if r.buf != nil {
		putBuf(r.buf)
		r.buf = nil
	}
	if r.reqs != nil {
		s := r.reqs[:0]
		clear(s[:cap(s)])
		reqSlcPool.Put(&s)
		r.reqs = nil
	}
	if r.resps != nil {
		s := r.resps[:0]
		clear(s[:cap(s)])
		respSlcPool.Put(&s)
		r.resps = nil
	}
}

// readPayload reads one frame's payload into the reusable buffer.
func (r *Reader) readPayload() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds MaxFrame", n)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	body := r.buf[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		if err == io.EOF {
			// The header promised n payload bytes and the stream ended
			// before the first arrived (a death exactly on the
			// header/payload boundary). ReadFull only says ErrUnexpectedEOF
			// when at least one byte was read; normalize so callers can
			// tell every mid-frame death from a clean between-frames close.
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// ReadRequests reads one frame and decodes the requests it carries: a
// binary batch, or before the codec switch the one JSON hello. The
// returned slice is scratch: valid until the next call.
func (r *Reader) ReadRequests() ([]Request, error) {
	body, err := r.readPayload()
	if err != nil {
		return nil, err
	}
	if r.reqs == nil {
		r.reqs = *reqSlcPool.Get().(*[]Request)
	}
	if r.codec == CodecBinary {
		d := cursor{b: body}
		count, err := d.batchHeader()
		if err != nil {
			return nil, err
		}
		out := r.reqs[:0]
		for i := 0; i < count; i++ {
			req, err := d.request()
			if err != nil {
				return nil, err
			}
			out = append(out, req)
		}
		if d.rem() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes after binary batch", d.rem())
		}
		r.reqs = out
		return out, nil
	}
	// The hello: one JSON object, decoded into a zeroed element.
	r.reqs = append(r.reqs[:0], Request{})
	if err := json.Unmarshal(body, &r.reqs[0]); err != nil {
		return nil, err
	}
	return r.reqs, nil
}

// ReadResponses is ReadRequests for the server→client direction.
func (r *Reader) ReadResponses() ([]Response, error) {
	body, err := r.readPayload()
	if err != nil {
		return nil, err
	}
	if r.resps == nil {
		r.resps = *respSlcPool.Get().(*[]Response)
	}
	if r.codec == CodecBinary {
		d := cursor{b: body}
		count, err := d.batchHeader()
		if err != nil {
			return nil, err
		}
		out := r.resps[:0]
		for i := 0; i < count; i++ {
			resp, err := d.response()
			if err != nil {
				return nil, err
			}
			out = append(out, resp)
		}
		if d.rem() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes after binary batch", d.rem())
		}
		r.resps = out
		return out, nil
	}
	r.resps = append(r.resps[:0], Response{})
	if err := json.Unmarshal(body, &r.resps[0]); err != nil {
		return nil, err
	}
	return r.resps, nil
}

// ---------------------------------------------------------------------
// Writer

// Writer encodes frames onto one connection with a coalescing buffered
// stream and reusable encode scratch. Like Reader, it is driven by one
// goroutine. Nothing reaches the connection until Flush.
type Writer struct {
	bw    *bufio.Writer
	codec Codec
	buf   []byte // binary encode scratch
	ends  []int  // message boundaries within buf
}

// NewWriter wraps a connection's write side, starting in CodecJSON.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w), buf: getBuf()}
}

// SetCodec switches the payload codec for subsequent writes.
func (w *Writer) SetCodec(c Codec) { w.codec = c }

// Flush pushes buffered frames to the connection.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Release returns the Writer's scratch to the shared pools. Call it
// when the connection is done; the Writer must not be used afterwards.
func (w *Writer) Release() {
	if w.buf != nil {
		putBuf(w.buf)
		w.buf = nil
	}
}

// WriteRequests buffers the requests as the fewest binary frames
// respecting MaxFrame — or, before the codec switch, the one hello.
func (w *Writer) WriteRequests(reqs []Request) error {
	if w.codec == CodecBinary {
		w.buf = w.buf[:0]
		w.ends = w.ends[:0]
		for i := range reqs {
			var err error
			if w.buf, err = appendRequest(w.buf, &reqs[i]); err != nil {
				return err
			}
			w.ends = append(w.ends, len(w.buf))
		}
		return w.writeBinaryFrames()
	}
	if len(reqs) != 1 {
		return errHelloBatch
	}
	return w.writeHello(&reqs[0])
}

// WriteResponses is WriteRequests for the server→client direction.
func (w *Writer) WriteResponses(resps []Response) error {
	if w.codec == CodecBinary {
		w.buf = w.buf[:0]
		w.ends = w.ends[:0]
		for i := range resps {
			var err error
			if w.buf, err = appendResponse(w.buf, &resps[i]); err != nil {
				return err
			}
			w.ends = append(w.ends, len(w.buf))
		}
		return w.writeBinaryFrames()
	}
	if len(resps) != 1 {
		return errHelloBatch
	}
	return w.writeHello(&resps[0])
}

// errHelloBatch refuses a batch before the codec switch: the hello
// exchange is one message per frame.
var errHelloBatch = errors.New("wire: the hello exchange carries exactly one message per frame")

// writeHello buffers one side of the hello exchange as a frame holding
// one bare JSON object.
func (w *Writer) writeHello(msg any) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.bw.Write(body)
	return err
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// writeBinaryFrames packs the encoded messages in w.buf (boundaries in
// w.ends) greedily into frames of at most MaxFrame payload bytes.
func (w *Writer) writeBinaryFrames() error {
	start, off := 0, 0
	for start < len(w.ends) {
		end, last := start, off
		for end < len(w.ends) {
			count := end - start + 1
			size := 1 + uvarintLen(uint64(count)) + (w.ends[end] - off)
			if size > MaxFrame {
				break
			}
			last = w.ends[end]
			end++
		}
		if end == start {
			return fmt.Errorf("wire: binary message of %d bytes exceeds MaxFrame", w.ends[start]-off)
		}
		var hdr [4 + 1 + binary.MaxVarintLen64]byte
		n := 5 + binary.PutUvarint(hdr[5:], uint64(end-start))
		binary.BigEndian.PutUint32(hdr[:4], uint32((n-4)+(last-off)))
		hdr[4] = binMagic
		if _, err := w.bw.Write(hdr[:n]); err != nil {
			return err
		}
		if _, err := w.bw.Write(w.buf[off:last]); err != nil {
			return err
		}
		off, start = last, end
	}
	return nil
}
