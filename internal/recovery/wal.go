package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"locksafe/internal/model"
)

// The WAL is a flat stream of records, each framed as
//
//	uvarint bodyLen | body | crc32(body) little-endian
//
// with the record kind in the first body byte. The framing reuses the
// varint discipline of the binary wire codec (internal/wire/binary.go):
// unsigned values are uvarints, signed values are zigzag varints,
// strings are length-prefixed. The CRC covers the body only; the
// length prefix is implicitly validated by the CRC landing where the
// length says it should.
//
// Tail discipline (what makes a broken file readable):
//
//   - A clean-shutdown marker (recClean) as the final record means the
//     writer closed the file deliberately. Any decode failure before a
//     clean marker is corruption and fails loudly.
//   - Without a clean marker, a decode failure whose record extends to
//     exactly the end of the stream is a torn tail — the partial record
//     is dropped and the prefix before it is used. A failure that
//     leaves bytes after the broken record cannot be a torn write and
//     fails loudly.
//
// This is the standard ARIES-family tail rule: crashes can only damage
// the suffix that was in flight, so damage anywhere else is tampering
// or a software bug and must not be silently repaired.
//
// A batch record (recBatch) carries several framed records in its body
// and stands for them in order. The store writes one when an
// acknowledgement makes it flush the records buffered before it (see
// Store), so that one write, and under Fsync one sync, covers them: the
// unsynced region is still at most one record, and the tail rule above
// still covers it. A torn batch is dropped whole. Its CRC vouches for
// every byte inside, so any inner framing failure, a batch nested in a
// batch and a clean marker inside a batch are corruption.

// Record kinds.
const (
	recEvents  = 1 // batch of tagged events appended to the log
	recCompact = 2 // converged victim set erased by a compaction
	recStatus  = 3 // transaction status transition
	recOpen    = 4 // transaction (and optionally session) declaration
	recClean   = 5 // clean-shutdown marker; must be final
	recBatch   = 6 // framed records written and synced as one
)

// Status byte values carried by recStatus records. StatusActive is used
// to un-commit a transaction when a cascade rolls a committed victim
// back for re-execution.
const (
	StatusActive    = 0
	StatusCommitted = 1
	StatusAbandoned = 2
)

// maxWALRecord bounds a single record body. It exists to keep a
// corrupted length prefix from demanding a giant allocation; real
// records (even large event batches) stay far below it.
const maxWALRecord = 8 << 20

// ErrCorrupt wraps all loud decode failures so callers can distinguish
// "the file is damaged" from I/O errors.
var ErrCorrupt = errors.New("recovery: corrupt WAL")

// OpenRec declares a transaction in the WAL: its body, its global row
// (for partitioned engines), and — when it belongs to a live session —
// the resume token and absolute lease deadline.
type OpenRec struct {
	// G is the engine-global row index (equals the local transaction
	// index on an unpartitioned engine).
	G int
	// Mirror marks the row as a cross-partition replica: the
	// transaction spans partitions and this partition holds a mirror.
	Mirror bool
	// Name and Steps are the declared body.
	Name  string
	Steps []model.Step
	// Token is the server-issued resume token. Every transaction is a
	// session's, run-mode ones included, so it is never zero.
	Token uint64
	// Deadline is the absolute lease deadline in Unix nanoseconds;
	// zero means no lease.
	Deadline int64
}

// Rec is one decoded WAL record. Exactly one of the payload groups is
// meaningful, selected by Kind.
type Rec struct {
	Kind byte

	// recEvents
	Events []model.Ev
	Tags   []uint64

	// recCompact
	Victims []int

	// recStatus
	TID    int
	Status byte

	// recOpen
	Open OpenRec
}

// --- encoding ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendWalString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRecord frames a body: length prefix, body, CRC.
func appendRecord(dst, body []byte) []byte {
	dst = appendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(dst, crc[:]...)
}

// AppendEventsRec encodes a batch of tagged events as one framed record.
func AppendEventsRec(dst []byte, evs []model.Ev, tags []uint64) []byte {
	body := make([]byte, 0, 16+len(evs)*8)
	body = append(body, recEvents)
	body = appendUvarint(body, uint64(len(evs)))
	for i, ev := range evs {
		body = appendUvarint(body, uint64(ev.T))
		body = append(body, byte(ev.S.Op))
		body = appendWalString(body, string(ev.S.Ent))
		body = appendUvarint(body, tags[i])
	}
	return appendRecord(dst, body)
}

// AppendCompactRec encodes a converged compaction victim set.
func AppendCompactRec(dst []byte, victims []int) []byte {
	body := make([]byte, 0, 4+len(victims)*4)
	body = append(body, recCompact)
	body = appendUvarint(body, uint64(len(victims)))
	for _, v := range victims {
		body = appendUvarint(body, uint64(v))
	}
	return appendRecord(dst, body)
}

// AppendStatusRec encodes a status transition for one transaction.
func AppendStatusRec(dst []byte, tid int, status byte) []byte {
	body := make([]byte, 0, 12)
	body = append(body, recStatus)
	body = appendUvarint(body, uint64(tid))
	body = append(body, status)
	return appendRecord(dst, body)
}

// AppendOpenRec encodes a transaction declaration.
func AppendOpenRec(dst []byte, o OpenRec) []byte {
	body := make([]byte, 0, 32+len(o.Name)+len(o.Steps)*8)
	body = append(body, recOpen)
	body = appendUvarint(body, uint64(o.G))
	var flags byte
	if o.Mirror {
		flags |= 1
	}
	body = append(body, flags)
	body = appendWalString(body, o.Name)
	body = appendUvarint(body, uint64(len(o.Steps)))
	for _, st := range o.Steps {
		body = append(body, byte(st.Op))
		body = appendWalString(body, string(st.Ent))
	}
	body = appendUvarint(body, o.Token)
	body = appendVarint(body, o.Deadline)
	return appendRecord(dst, body)
}

// AppendBatchRec frames already-framed records as one batch record.
func AppendBatchRec(dst, frames []byte) []byte {
	kind := [1]byte{recBatch}
	dst = appendUvarint(dst, uint64(1+len(frames)))
	dst = append(dst, recBatch)
	dst = append(dst, frames...)
	crc := crc32.Update(crc32.ChecksumIEEE(kind[:]), crc32.IEEETable, frames)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// AppendCleanRec encodes the clean-shutdown marker.
func AppendCleanRec(dst []byte) []byte {
	return appendRecord(dst, []byte{recClean})
}

// --- decoding ---

// walCursor is a bounds-checked reader over a record body, mirroring
// the wire codec's cursor.
type walCursor struct{ b []byte }

func (c *walCursor) rem() int { return len(c.b) }

func (c *walCursor) u8() (byte, error) {
	if len(c.b) == 0 {
		return 0, fmt.Errorf("%w: truncated body", ErrCorrupt)
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

func (c *walCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *walCursor) varint() (int64, error) {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *walCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.b)) {
		return "", fmt.Errorf("%w: string overruns body", ErrCorrupt)
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s, nil
}

// decodeBody parses one CRC-validated record body.
func decodeBody(body []byte) (Rec, error) {
	c := walCursor{body}
	kind, err := c.u8()
	if err != nil {
		return Rec{}, err
	}
	r := Rec{Kind: kind}
	switch kind {
	case recEvents:
		n, err := c.uvarint()
		if err != nil {
			return Rec{}, err
		}
		if n > uint64(c.rem()) { // each event is ≥ 4 bytes; cheap sanity bound
			return Rec{}, fmt.Errorf("%w: event count %d overruns body", ErrCorrupt, n)
		}
		r.Events = make([]model.Ev, 0, n)
		r.Tags = make([]uint64, 0, n)
		for i := uint64(0); i < n; i++ {
			t, err := c.uvarint()
			if err != nil {
				return Rec{}, err
			}
			op, err := c.u8()
			if err != nil {
				return Rec{}, err
			}
			if !model.Op(op).Valid() {
				return Rec{}, fmt.Errorf("%w: invalid op %d", ErrCorrupt, op)
			}
			ent, err := c.str()
			if err != nil {
				return Rec{}, err
			}
			tag, err := c.uvarint()
			if err != nil {
				return Rec{}, err
			}
			r.Events = append(r.Events, model.Ev{T: model.TID(t), S: model.Step{Op: model.Op(op), Ent: model.Entity(ent)}})
			r.Tags = append(r.Tags, tag)
		}
	case recCompact:
		n, err := c.uvarint()
		if err != nil {
			return Rec{}, err
		}
		if n > uint64(c.rem())+1 {
			return Rec{}, fmt.Errorf("%w: victim count %d overruns body", ErrCorrupt, n)
		}
		r.Victims = make([]int, 0, n)
		for i := uint64(0); i < n; i++ {
			v, err := c.uvarint()
			if err != nil {
				return Rec{}, err
			}
			r.Victims = append(r.Victims, int(v))
		}
	case recStatus:
		t, err := c.uvarint()
		if err != nil {
			return Rec{}, err
		}
		s, err := c.u8()
		if err != nil {
			return Rec{}, err
		}
		if s > StatusAbandoned {
			return Rec{}, fmt.Errorf("%w: invalid status %d", ErrCorrupt, s)
		}
		r.TID, r.Status = int(t), s
	case recOpen:
		g, err := c.uvarint()
		if err != nil {
			return Rec{}, err
		}
		flags, err := c.u8()
		if err != nil {
			return Rec{}, err
		}
		if flags&^byte(1) != 0 {
			return Rec{}, fmt.Errorf("%w: unknown open flags %#x", ErrCorrupt, flags)
		}
		name, err := c.str()
		if err != nil {
			return Rec{}, err
		}
		n, err := c.uvarint()
		if err != nil {
			return Rec{}, err
		}
		if n > uint64(c.rem()) {
			return Rec{}, fmt.Errorf("%w: step count %d overruns body", ErrCorrupt, n)
		}
		steps := make([]model.Step, 0, n)
		for i := uint64(0); i < n; i++ {
			op, err := c.u8()
			if err != nil {
				return Rec{}, err
			}
			if !model.Op(op).Valid() {
				return Rec{}, fmt.Errorf("%w: invalid op %d", ErrCorrupt, op)
			}
			ent, err := c.str()
			if err != nil {
				return Rec{}, err
			}
			steps = append(steps, model.Step{Op: model.Op(op), Ent: model.Entity(ent)})
		}
		token, err := c.uvarint()
		if err != nil {
			return Rec{}, err
		}
		deadline, err := c.varint()
		if err != nil {
			return Rec{}, err
		}
		r.Open = OpenRec{G: int(g), Mirror: flags&1 != 0, Name: name, Steps: steps, Token: token, Deadline: deadline}
	case recClean:
		// empty body beyond the kind byte
	default:
		return Rec{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	if c.rem() != 0 {
		return Rec{}, fmt.Errorf("%w: %d trailing bytes in record body", ErrCorrupt, c.rem())
	}
	return r, nil
}

// DecodeWAL parses a WAL byte stream into records, applying the tail
// discipline documented at the top of this file. A batch record is
// returned as the records it carries.
//
// It returns the decoded records (with any clean-shutdown marker
// stripped), whether the stream ended with a clean marker, and the byte
// offset of the end of the last good record — the offset a writer
// should truncate to before resuming appends after a torn tail.
func DecodeWAL(b []byte) (recs []Rec, clean bool, goodLen int64, err error) {
	return decodeFrames(b, false)
}

// decodeFrames parses a stream of framed records: the WAL itself, or
// with inBatch the body of a batch record, whose CRC already vouched
// for it, so nothing inside may be torn, a batch or a clean marker.
func decodeFrames(b []byte, inBatch bool) (recs []Rec, clean bool, goodLen int64, err error) {
	off := 0
	for off < len(b) {
		body, end, torn, err := readFrame(b, off)
		if torn && !inBatch {
			// A torn tail is only tolerable when nothing promised a
			// clean shutdown; we only reach here when no clean marker
			// was seen.
			break
		}
		if err != nil {
			return nil, false, 0, err
		}
		if body[0] == recBatch {
			if inBatch {
				return nil, false, 0, fmt.Errorf("%w: batch nested in a batch at offset %d", ErrCorrupt, off)
			}
			inner, _, _, err := decodeFrames(body[1:], true)
			if err == nil && len(inner) == 0 {
				err = fmt.Errorf("%w: empty batch", ErrCorrupt)
			}
			if err != nil {
				return nil, false, 0, fmt.Errorf("%w (batch at offset %d)", err, off)
			}
			recs = append(recs, inner...)
			off = end
			continue
		}
		rec, err := decodeBody(body)
		if err != nil {
			// CRC-valid but undecodable: the bytes are as written, so
			// this is an encoder bug or tampering, never a torn write.
			return nil, false, 0, fmt.Errorf("%s (record at offset %d)", err, off)
		}
		if rec.Kind == recClean {
			if inBatch {
				return nil, false, 0, fmt.Errorf("%w: clean-shutdown marker inside a batch at offset %d", ErrCorrupt, off)
			}
			if end != len(b) {
				return nil, false, 0, fmt.Errorf("%w: clean-shutdown marker at offset %d is not final", ErrCorrupt, off)
			}
			return recs, true, int64(off), nil
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, false, int64(off), nil
}

// readFrame checks the framing of the record at b[off:] and returns its
// non-empty body and the offset just past it. torn reports a failure a
// cut-short write explains: a length prefix or record that overruns the
// stream, or a CRC mismatch in a record that ends exactly at its end.
func readFrame(b []byte, off int) (body []byte, end int, torn bool, err error) {
	n, ln := binary.Uvarint(b[off:])
	if ln <= 0 {
		if len(b)-off < binary.MaxVarintLen64 {
			return nil, 0, true, fmt.Errorf("%w: truncated length prefix at offset %d", ErrCorrupt, off)
		}
		return nil, 0, false, fmt.Errorf("%w: bad record length prefix at offset %d", ErrCorrupt, off)
	}
	if n > maxWALRecord {
		return nil, 0, false, fmt.Errorf("%w: record length %d exceeds limit at offset %d", ErrCorrupt, n, off)
	}
	end = off + ln + int(n) + 4
	if end > len(b) {
		return nil, 0, true, fmt.Errorf("%w: record overruns stream at offset %d", ErrCorrupt, off)
	}
	body = b[off+ln : off+ln+int(n)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[off+ln+int(n):end]) {
		// A damaged record that reaches exactly the end of the stream
		// is indistinguishable from a torn write.
		return nil, 0, end == len(b), fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	if n == 0 {
		return nil, 0, false, fmt.Errorf("%w: empty record body at offset %d", ErrCorrupt, off)
	}
	return body, end, false, nil
}
