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
// Rotation (triggered by Core.Truncate, and by the WAL outgrowing the
// snapshot) rewrites the whole history — every open, status and
// surviving event since the directory was created, a truncated prefix
// included — as snap-<g+1>, opens an empty wal-<g+1>, and deletes
// generation g. The snapshot is written, sealed and synced under a
// temporary name and only then renamed into place, so a crash anywhere
// inside rotation leaves either generation g or a complete g+1. Restore
// reads the highest snapshot, which must therefore decode and be
// sealed: a damaged one is refused (ErrCorrupt), never passed over for
// an older or empty generation.

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
	// Rotate rewrites the snapshot from the on-disk history and
	// deletes the old generation.
	Rotate() error
	// Close seals the WAL with a clean-shutdown marker.
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
	// Fsync syncs the WAL file after every append batch. Without it,
	// durability is limited to what the OS flushes on its own, but a
	// torn tail is still recovered cleanly.
	Fsync bool
}

// rotateBytes triggers a snapshot rewrite once the WAL exceeds it (and
// the snapshot's own size, so rotation work is amortized).
const rotateBytes = 4 << 20

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

func (s *Store) appendLocked(frame []byte) error {
	if s.err != nil {
		return s.err
	}
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
	if s.walBytes > rotateBytes && s.walBytes > s.snapLen {
		return s.rotateLocked()
	}
	return nil
}

// AppendEvents implements Persister.
func (s *Store) AppendEvents(evs []model.Ev, tags []uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch = AppendEventsRec(s.scratch[:0], evs, tags)
	return s.appendLocked(s.scratch)
}

// AppendCompact implements Persister.
func (s *Store) AppendCompact(victims []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch = AppendCompactRec(s.scratch[:0], victims)
	return s.appendLocked(s.scratch)
}

// AppendOpen implements Persister.
func (s *Store) AppendOpen(o OpenRec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch = AppendOpenRec(s.scratch[:0], o)
	return s.appendLocked(s.scratch)
}

// AppendStatus implements Persister.
func (s *Store) AppendStatus(tid int, status byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch = AppendStatusRec(s.scratch[:0], tid, status)
	return s.appendLocked(s.scratch)
}

// Rotate implements Persister: rewrite the surviving history as the
// next generation's snapshot and delete the current generation.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.rotateLocked()
}

func (s *Store) rotateLocked() error {
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

// Close seals the WAL with a clean-shutdown marker and closes it. It
// returns the store's sticky error, or else the first error of writing
// the marker, syncing it and closing the file (and poisons the store
// with it): a nil Close attests the marker reached the disk. A poisoned
// store writes no marker.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.err
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
