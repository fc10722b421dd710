package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"locksafe/internal/model"
)

// This file gives recovery.Core a disk: an append-only WAL (wal.go has
// the record codec) plus generation-numbered snapshot files. A
// directory holds at most one live generation g:
//
//	snap-<g>   full surviving history at the instant the generation
//	           was opened (events, open/status metadata), sealed with
//	           a clean marker
//	wal-<g>    records appended since
//
// Rotation rewrites the whole history — every open, status and
// surviving event since the directory was created, a truncated prefix
// included — as snap-<g+1>, opens an empty wal-<g+1>, and deletes
// generation g. It is amortised: Core.Truncate asks for it on every
// truncation, but it happens only once wal-<g> has outgrown snap-<g>
// (rotateDue), and an append rotates on the same rule past a 4 MiB
// floor. A rotation therefore writes at most twice the bytes the WAL
// gained since the last one, and the generation count grows with the
// log of the history. The snapshot is written, sealed and synced under
// a temporary name and only then renamed into place, so a crash
// anywhere inside rotation leaves either generation g or a complete
// g+1. Restore reads the highest snapshot, which must therefore decode
// and be sealed: a damaged one is refused (ErrCorrupt), never passed
// over for an older or empty generation.
//
// Appends are buffered until an acknowledgement waits on them. Event
// and compaction records only join a pending buffer. An open or status
// record — the one an open/resume reply or a commit/abandon outcome
// waits on — joins it too and then writes the whole buffer as one
// record (a batch, when it holds more than that one record): one write
// and, under Fsync, one sync per acknowledgement. A crash loses only
// buffered records no one was told about.

// Persister receives the durable mutations of a Core and its runtime.
// All methods are called from the single-owner append path (the
// runtime's drain discipline), never concurrently. Errors are
// permanent: the caller must stop accepting work.
type Persister interface {
	// AppendEvents records tagged events appended to the log.
	AppendEvents(evs []model.Ev, tags []uint64) error
	// AppendCompact records a converged compaction victim set.
	AppendCompact(victims []int) error
	// AppendOpen records a transaction declaration.
	AppendOpen(o OpenRec) error
	// AppendStatus records a transaction status transition.
	AppendStatus(tid int, status byte) error
	// Rotate offers a point to rewrite the snapshot from the on-disk
	// history and delete the old generation; the store decides whether
	// the WAL has grown enough to pay for it.
	Rotate() error
	// Close writes what is pending and seals the WAL with a
	// clean-shutdown marker.
	Close() error
}

// Recovered is the parsed durable history of a directory: the
// surviving events after replaying every compaction record, plus the
// latest per-transaction metadata.
type Recovered struct {
	Events []model.Ev
	Tags   []uint64
	// Opens holds one declaration per transaction in append order.
	Opens []OpenRec
	// Status maps a transaction index to its latest recorded status;
	// absent means StatusActive.
	Status map[int]byte
	// Clean reports whether the WAL ended with a clean-shutdown marker.
	Clean bool
	// Torn reports whether a torn final record was dropped.
	Torn bool
	// Gen is the generation the history was read from.
	Gen uint64
}

// MaxTag returns one past the highest tag in the recovered history, the
// starting point for the restored tag sequencer.
func (r *Recovered) MaxTag() uint64 {
	var max uint64
	for _, t := range r.Tags {
		if t >= max {
			max = t + 1
		}
	}
	return max
}

// replayRecs folds a record stream into a Recovered, applying compact
// records positionally: a victim set erases the victims' events
// appended before the record, exactly as Core.Compact does in memory.
func replayRecs(recs []Rec, into *Recovered) {
	for _, rec := range recs {
		switch rec.Kind {
		case recEvents:
			into.Events = append(into.Events, rec.Events...)
			into.Tags = append(into.Tags, rec.Tags...)
		case recCompact:
			victims := make(map[int]bool, len(rec.Victims))
			for _, v := range rec.Victims {
				victims[v] = true
			}
			keepEvs := into.Events[:0]
			keepTags := into.Tags[:0]
			for i, ev := range into.Events {
				if !victims[int(ev.T)] {
					keepEvs = append(keepEvs, ev)
					keepTags = append(keepTags, into.Tags[i])
				}
			}
			into.Events, into.Tags = keepEvs, keepTags
		case recStatus:
			if into.Status == nil {
				into.Status = map[int]byte{}
			}
			into.Status[rec.TID] = rec.Status
		case recOpen:
			into.Opens = append(into.Opens, rec.Open)
		}
	}
}

func snapName(gen uint64) string { return "snap-" + strconv.FormatUint(gen, 10) }
func walName(gen uint64) string  { return "wal-" + strconv.FormatUint(gen, 10) + ".log" }

// findGen returns a directory's live generation: the highest with a
// snapshot file (a rotation's temporary file does not count), or 0 —
// which needs no snapshot (empty base history).
func findGen(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var gen uint64
	for _, e := range ents {
		if g, ok := strings.CutPrefix(e.Name(), "snap-"); ok {
			if n, err := strconv.ParseUint(g, 10, 64); err == nil {
				gen = max(gen, n)
			}
		}
	}
	return gen, nil
}

// readGen parses one generation (sealed snapshot + WAL with tail
// discipline) into a Recovered. A snapshot that does not decode, or is
// not sealed, is ErrCorrupt naming the file.
func readGen(dir string, gen uint64) (Recovered, int64, error) {
	out := Recovered{Gen: gen}
	snap, err := os.ReadFile(filepath.Join(dir, snapName(gen)))
	switch {
	case err == nil:
		recs, clean, _, derr := DecodeWAL(snap)
		if derr != nil {
			return out, 0, fmt.Errorf("snapshot %s: %w", snapName(gen), derr)
		}
		if !clean {
			return out, 0, fmt.Errorf("%w: snapshot %s is not sealed", ErrCorrupt, snapName(gen))
		}
		replayRecs(recs, &out)
	case errors.Is(err, os.ErrNotExist) && gen == 0:
		// Fresh directory: empty base history.
	default:
		return out, 0, err
	}

	wal, err := os.ReadFile(filepath.Join(dir, walName(gen)))
	if errors.Is(err, os.ErrNotExist) {
		return out, 0, nil
	}
	if err != nil {
		return out, 0, err
	}
	recs, clean, goodLen, derr := DecodeWAL(wal)
	if derr != nil {
		return out, 0, fmt.Errorf("wal %s: %w", walName(gen), derr)
	}
	replayRecs(recs, &out)
	out.Clean = clean
	out.Torn = !clean && goodLen < int64(len(wal))
	return out, goodLen, nil
}

// Restore parses the durable history of a directory without opening it
// for writing. A missing directory yields an empty history.
func Restore(dir string) (Recovered, error) {
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return Recovered{}, nil
	}
	gen, err := findGen(dir)
	if err != nil {
		return Recovered{}, err
	}
	rec, _, err := readGen(dir, gen)
	return rec, err
}

// Options configures a Store.
type Options struct {
	// Fsync syncs the WAL file after every write: each open or status
	// record, with the events and compactions buffered before it.
	// Without it, durability is limited to what the OS flushes on its
	// own, but a torn tail is still recovered cleanly.
	Fsync bool
}

const (
	// rotateBytes is the WAL size past which an append rotates, when
	// the WAL has also outgrown the snapshot (rotateDue).
	rotateBytes = 4 << 20
	// maxPending bounds the pending buffer: past it the buffered
	// records are written without waiting for an acknowledgement, so
	// no batch approaches maxWALRecord.
	maxPending = 1 << 20
)

// ErrClosed is what a Store's appends and Rotate return after Close.
var ErrClosed = errors.New("recovery: store is closed")

// Store is the disk-backed Persister. It owns one generation of one
// directory and appends to its WAL; Rotate advances the generation.
type Store struct {
	mu       sync.Mutex
	dir      string
	opts     Options
	gen      uint64
	wal      *os.File
	walBytes int64
	snapLen  int64
	pending  []byte // framed records not yet written
	npending int    // records in pending
	scratch  []byte
	err      error // sticky: first failure poisons the store
}

// Open restores the durable history of dir (creating it if needed) and
// opens it for appending. The returned Recovered is the base the
// caller must rebuild its in-memory state from before appending.
func Open(dir string, opts Options) (*Store, Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, err
	}
	gen, err := findGen(dir)
	if err != nil {
		return nil, Recovered{}, err
	}
	rec, goodLen, err := readGen(dir, gen)
	if err != nil {
		return nil, Recovered{}, err
	}

	walPath := filepath.Join(dir, walName(gen))
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, Recovered{}, err
	}
	// Resume appending after the last good record: strip a torn tail,
	// and strip the clean marker so the stream stays append-only.
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, Recovered{}, err
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, Recovered{}, err
	}

	st := &Store{dir: dir, opts: opts, gen: gen, wal: f, walBytes: goodLen}
	if fi, err := os.Stat(filepath.Join(dir, snapName(gen))); err == nil {
		st.snapLen = fi.Size()
	}
	st.sweepStale()
	return st, rec, nil
}

// Dir returns the directory the store writes to.
func (s *Store) Dir() string { return s.dir }

// Gen returns the current generation.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// WALBytes returns the bytes of good records currently in the WAL.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// sweepStale removes files from other generations. Only files that
// match our naming scheme are touched.
func (s *Store) sweepStale() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if name == snapName(s.gen) || name == walName(s.gen) {
			continue
		}
		if strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "wal-") {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// usable returns the sticky error, or ErrClosed after Close.
func (s *Store) usable() error {
	if s.err == nil && s.wal == nil {
		return ErrClosed
	}
	return s.err
}

// rotateDue reports whether the WAL has outgrown both floor and the
// live snapshot, so that rewriting the history costs at most twice
// what the WAL gained since the last rotation.
func (s *Store) rotateDue(floor int64) bool {
	return s.walBytes > floor && s.walBytes > s.snapLen
}

// buffer adds the record encode appends to the pending buffer. An
// acknowledgement waits on it when ack is set: the buffer is then
// written and, past rotateBytes, the store rotates.
func (s *Store) buffer(ack bool, encode func([]byte) []byte) error {
	if err := s.usable(); err != nil {
		return err
	}
	s.pending = encode(s.pending)
	s.npending++
	if !ack && len(s.pending) <= maxPending {
		return nil
	}
	if err := s.writePendingLocked(); err != nil {
		return err
	}
	if s.rotateDue(rotateBytes) {
		return s.rotateLocked()
	}
	return nil
}

// writePendingLocked writes the pending records to the WAL as one
// record — bare when there is one, a batch otherwise — in one write,
// synced under Fsync.
func (s *Store) writePendingLocked() error {
	if s.npending == 0 {
		return nil
	}
	frame := s.pending
	if s.npending > 1 {
		s.scratch = AppendBatchRec(s.scratch[:0], s.pending)
		frame = s.scratch
	}
	s.pending, s.npending = s.pending[:0], 0
	if _, err := s.wal.Write(frame); err != nil {
		s.err = err
		return err
	}
	s.walBytes += int64(len(frame))
	if s.opts.Fsync {
		if err := s.wal.Sync(); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// AppendEvents implements Persister.
func (s *Store) AppendEvents(evs []model.Ev, tags []uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffer(false, func(b []byte) []byte { return AppendEventsRec(b, evs, tags) })
}

// AppendCompact implements Persister.
func (s *Store) AppendCompact(victims []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffer(false, func(b []byte) []byte { return AppendCompactRec(b, victims) })
}

// AppendOpen implements Persister.
func (s *Store) AppendOpen(o OpenRec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffer(true, func(b []byte) []byte { return AppendOpenRec(b, o) })
}

// AppendStatus implements Persister.
func (s *Store) AppendStatus(tid int, status byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffer(true, func(b []byte) []byte { return AppendStatusRec(b, tid, status) })
}

// Rotate implements Persister: once the WAL has outgrown the snapshot,
// write the pending records, rewrite the surviving history as the next
// generation's snapshot and delete the current generation. Before
// that it writes nothing and returns nil.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if !s.rotateDue(0) {
		return nil
	}
	return s.rotateLocked()
}

func (s *Store) rotateLocked() error {
	if err := s.writePendingLocked(); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		s.err = err
		return err
	}
	rec, _, err := readGen(s.dir, s.gen)
	if err != nil {
		s.err = err
		return err
	}

	// Serialize the surviving history: opens for every transaction,
	// the latest status of each settled one, then the event log as a
	// single batch, sealed clean.
	var snap []byte
	for _, o := range rec.Opens {
		snap = AppendOpenRec(snap, o)
	}
	tids := make([]int, 0, len(rec.Status))
	for t := range rec.Status {
		tids = append(tids, t)
	}
	sort.Ints(tids)
	for _, t := range tids {
		snap = AppendStatusRec(snap, t, rec.Status[t])
	}
	// Chunk the event history so no single record approaches the
	// decoder's size cap.
	const chunk = 4096
	for i := 0; i < len(rec.Events); i += chunk {
		j := i + chunk
		if j > len(rec.Events) {
			j = len(rec.Events)
		}
		snap = AppendEventsRec(snap, rec.Events[i:j], rec.Tags[i:j])
	}
	snap = AppendCleanRec(snap)

	next := s.gen + 1
	tmp := filepath.Join(s.dir, snapName(next)+".tmp")
	if err := writeFileSync(tmp, snap); err != nil {
		s.err = err
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName(next))); err != nil {
		s.err = err
		return err
	}
	nf, err := os.OpenFile(filepath.Join(s.dir, walName(next)), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		s.err = err
		return err
	}
	if err := syncDir(s.dir); err != nil {
		nf.Close()
		s.err = err
		return err
	}
	old := s.wal
	s.wal, s.gen, s.walBytes, s.snapLen = nf, next, 0, int64(len(snap))
	old.Close()
	s.sweepStale()
	return nil
}

// Close writes the pending records, seals the WAL with a clean-shutdown
// marker and closes it. It returns the store's sticky error, or else
// the first error of writing the records or the marker, syncing it and
// closing the file (and poisons the store with it): a nil Close attests
// the marker reached the disk. A poisoned store writes no marker, and
// every later Close returns the same error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return s.err
	}
	err := s.err
	if err == nil {
		err = s.writePendingLocked()
	}
	if err == nil {
		s.scratch = AppendCleanRec(s.scratch[:0])
		if _, err = s.wal.Write(s.scratch); err == nil {
			err = s.wal.Sync()
		}
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	s.err = err
	return err
}

func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}
