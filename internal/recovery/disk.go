package recovery

import (
	"bufio"
	"errors"
	"fmt"
	"io"
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
// directory holds one live snapshot s and the chain of WAL segments
// appended since:
//
//	snap-<s>             full surviving history at the instant segment s
//	                     was opened (events, open/status metadata), sealed
//	                     with a clean marker; absent for s = 0
//	wal-<s> … wal-<h>    records appended since, in order; every segment
//	                     but the last ends in a continuation marker
//
// A rotation has two halves, and no append waits for the second. Under
// the store's lock it writes the pending records, seals wal-<h> with a
// continuation marker and syncs it, creates wal-<h+1>, syncs the
// directory and switches appends to the new segment. A background build
// then folds the now-immutable snap-<s> and wal-<s> … wal-<h> into
// snap-<h+1> — every open, status and surviving event since the
// directory was created, a truncated prefix included — written, sealed
// and synced under a temporary name, renamed into place, and only then
// deletes the files it replaces. At most one build runs at a time. A
// rotation is due only when none does and the live segment has
// outgrown the snapshot (rotateDue): the runtime asks after every
// truncation that cuts (Core.Truncate), and an append asks on the same rule past a 4 MiB floor.
// A build therefore writes at most twice the bytes the WAL gained since
// the last one, and the generation count grows with the log of the
// history. A failed build poisons the store; Close waits for a running
// build and reports its failure.
//
// Restore reads the highest snapshot, which must decode and be sealed:
// a damaged one is refused (ErrCorrupt), never passed over for an older
// or empty generation. It then reads the contiguous segments from
// wal-<s> on. A segment with a successor must end in its continuation
// marker, or the directory is ErrCorrupt naming it, so a torn tail is
// legal in the last segment only. A crash inside a rotation leaves a
// sealed chain with no new snapshot, a partial snap-<h+1>.tmp beside
// it, or the renamed snapshot beside the files it replaces: each reads
// as the same history, and Open removes what is stale. Restore and a
// build read the chain through one fold (chainFold) that keeps opens
// and events as the bytes they were written as: restore decodes what
// survives the compactions, and a build copies it.
//
// Appends are buffered until an acknowledgement waits on them. Event
// and compaction records only join a pending buffer. An open or status
// record — the one an open/resume reply or a commit/abandon outcome
// waits on — joins it too and then writes the whole buffer as one
// record (a batch, when it holds more than that one record): one write
// and, under Fsync, one sync per acknowledgement. A run's open
// (OpenRec.Run) answers no one — the run's reply is its outcome — so
// it is buffered like an event, ahead of the run's events, and the
// run's status carries all of them; a mirror's open is written at once
// (DESIGN.md, "The restore contract"). A crash loses only buffered
// records no one was told about.

// Persister receives the durable mutations of an execution from the one
// owner of its Core (the runtime's runner), which writes each record
// right after the in-memory change it records, under its drain
// discipline, never concurrently. Errors are permanent: the caller must
// stop accepting work.
type Persister interface {
	// AppendEvents records tagged events appended to the log.
	AppendEvents(evs []model.Ev, tags []uint64) error
	// AppendCompact records a converged compaction victim set.
	AppendCompact(victims []int) error
	// AppendOpen records a transaction declaration.
	AppendOpen(o OpenRec) error
	// AppendStatus records a transaction status transition.
	AppendStatus(tid int, status byte) error
	// Rotate offers a point to start a new WAL segment. Once the WAL has
	// outgrown the snapshot, the store seals the live segment and
	// builds the next snapshot from the sealed ones in the background;
	// the caller waits for the seal only.
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
	// Gen is the last WAL segment the history was read from.
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

func snapName(gen uint64) string { return "snap-" + strconv.FormatUint(gen, 10) }
func walName(gen uint64) string  { return "wal-" + strconv.FormatUint(gen, 10) + ".log" }

// genOf parses the generation out of a file name of the form
// <prefix><gen><suffix>.
func genOf(name, prefix, suffix string) (uint64, bool) {
	g, ok := strings.CutPrefix(name, prefix)
	if g, ok2 := strings.CutSuffix(g, suffix); ok && ok2 {
		n, err := strconv.ParseUint(g, 10, 64)
		return n, err == nil
	}
	return 0, false
}

// nextRecLen is the size of a continuation marker.
var nextRecLen = int64(len(AppendNextRec(nil)))

// findChain returns a directory's live chain: the highest generation
// snap with a snapshot file (a build's temporary file does not count),
// or 0 — which needs no snapshot — and last, the end of the contiguous
// segments wal-<snap> … wal-<last> (snap itself when there are none).
// A segment past a missing one is ErrCorrupt.
func findChain(dir string) (snap, last uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	wals := map[uint64]bool{}
	for _, e := range ents {
		if g, ok := genOf(e.Name(), "snap-", ""); ok {
			snap = max(snap, g)
		}
		if g, ok := genOf(e.Name(), "wal-", ".log"); ok {
			wals[g] = true
		}
	}
	last, missing := snap, snap
	if wals[snap] {
		for wals[last+1] {
			last++
		}
		missing = last + 1
	}
	for g := range wals {
		if g > last {
			return 0, 0, fmt.Errorf("%w: %s is missing, but %s follows it", ErrCorrupt, walName(missing), walName(g))
		}
	}
	return snap, last, nil
}

// readChain parses snap-<snap> and the segments wal-<snap> … wal-<last>
// into a Recovered (foldChain says what it refuses). It also returns
// the offset to resume appending at in wal-<last>: the end of its good
// records, a continuation marker left out.
func readChain(dir string, snap, last uint64) (Recovered, int64, error) {
	f, err := foldChain(dir, snap, last)
	if err != nil {
		return Recovered{Gen: last}, 0, err
	}
	out := Recovered{Status: f.status, Clean: f.clean, Torn: f.torn, Gen: last}
	for _, body := range f.opens {
		rec, err := decodeBody(body)
		if err != nil {
			return out, 0, fmt.Errorf("an open in %s … %s: %w", snapName(snap), walName(last), err)
		}
		out.Opens = append(out.Opens, rec.Open)
	}
	if f.nevents > 0 {
		out.Events = make([]model.Ev, 0, f.nevents)
		out.Tags = make([]uint64, 0, f.nevents)
	}
	for _, body := range f.events {
		walkEvents(body, func(t uint64, op model.Op, ent []byte, tag uint64, _ []byte) { // checked by the fold
			out.Events = append(out.Events, model.Ev{T: model.TID(t), S: model.Step{Op: op, Ent: model.Entity(ent)}})
			out.Tags = append(out.Tags, tag)
		})
	}
	return out, f.goodLen, nil
}

// Restore parses the durable history of a directory without opening it
// for writing. A missing directory yields an empty history.
func Restore(dir string) (Recovered, error) {
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return Recovered{}, nil
	}
	snap, last, err := findChain(dir)
	if err != nil {
		return Recovered{}, err
	}
	rec, _, err := readChain(dir, snap, last)
	return rec, err
}

// Options configures a Store.
type Options struct {
	// Fsync syncs the WAL file after every write: each status record
	// and each open but a local run's, with the records buffered before
	// it.
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

// Store is the disk-backed Persister. It owns the live chain of one
// directory and appends to its last segment; Rotate starts the next.
type Store struct {
	mu       sync.Mutex
	dir      string
	opts     Options
	base     uint64 // the live snapshot's generation, where the chain starts
	gen      uint64 // the segment appends go to, the chain's end
	wal      *os.File
	walBytes int64
	snapLen  int64
	building chan struct{} // non-nil while a snapshot build runs; closed when it ends
	pending  []byte        // framed records not yet written
	npending int           // records in pending
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
	base, gen, err := findChain(dir)
	if err != nil {
		return nil, Recovered{}, err
	}
	rec, goodLen, err := readChain(dir, base, gen)
	if err != nil {
		return nil, Recovered{}, err
	}

	walPath := filepath.Join(dir, walName(gen))
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, Recovered{}, err
	}
	// Resume appending after the last good record: strip a torn tail,
	// and strip a clean or continuation marker so the stream stays
	// append-only.
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, Recovered{}, err
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, Recovered{}, err
	}

	st := &Store{dir: dir, opts: opts, base: base, gen: gen, wal: f, walBytes: goodLen}
	if fi, err := os.Stat(filepath.Join(dir, snapName(base))); err == nil {
		st.snapLen = fi.Size()
	}
	sweepStale(dir, base, gen)
	return st, rec, nil
}

// Dir returns the directory the store writes to.
func (s *Store) Dir() string { return s.dir }

// Gen returns the generation of the segment appends go to.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// WALBytes returns the bytes of good records currently in the segment
// appends go to.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// sweepStale removes every file of dir outside the chain snap-<base>,
// wal-<base> … wal-<last>, a build's temporary snapshot included. Only
// files that match our naming scheme are touched.
func sweepStale(dir string, base, last uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if g, ok := genOf(name, "wal-", ".log"); name == snapName(base) || ok && g >= base && g <= last {
			continue
		}
		if strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "wal-") {
			os.Remove(filepath.Join(dir, name))
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

// poison records err as the store's sticky error and returns it.
func (s *Store) poison(err error) error {
	s.err = err
	return err
}

// rotateDue reports whether no build is running and the live segment
// has outgrown both floor and the live snapshot, so that the next
// build costs at most twice what the WAL gained since the last one.
func (s *Store) rotateDue(floor int64) bool {
	return s.building == nil && s.walBytes > floor && s.walBytes > s.snapLen
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
		return s.poison(err)
	}
	s.walBytes += int64(len(frame))
	if s.opts.Fsync {
		if err := s.wal.Sync(); err != nil {
			return s.poison(err)
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

// AppendOpen implements Persister. A run's open waits in the buffer for
// the run's status, unless it is a mirror's.
func (s *Store) AppendOpen(o OpenRec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffer(!o.Run || o.Mirror, func(b []byte) []byte { return AppendOpenRec(b, o) })
}

// AppendStatus implements Persister.
func (s *Store) AppendStatus(tid int, status byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffer(true, func(b []byte) []byte { return AppendStatusRec(b, tid, status) })
}

// Rotate implements Persister: once the live segment has outgrown the
// snapshot and no build is running, seal the segment and build the
// next snapshot in the background. Before that it writes nothing and
// returns nil.
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

// snapBuild is one background build: snap-<next> from snap-<base> and
// the sealed segments wal-<base> … wal-<next-1>.
type snapBuild struct {
	base, next uint64
	done       chan struct{}
}

func (s *Store) rotateLocked() error {
	b, err := s.sealLocked()
	if err != nil {
		return err
	}
	go s.build(b)
	return nil
}

// sealLocked is the part of a rotation appends wait for: write the
// pending records, seal the live segment with a continuation marker and
// sync it, create the next segment, sync the directory and switch
// appends to it. It returns the build that makes the sealed segments
// redundant, and rotateDue is false until that build ends.
func (s *Store) sealLocked() (snapBuild, error) {
	if err := s.writePendingLocked(); err != nil {
		return snapBuild{}, err
	}
	// The marker is written only once the records before it are on
	// disk, Fsync or not: a crash may tear the segment's last record
	// only.
	if err := s.wal.Sync(); err != nil {
		return snapBuild{}, s.poison(err)
	}
	s.scratch = AppendNextRec(s.scratch[:0])
	if _, err := s.wal.Write(s.scratch); err != nil {
		return snapBuild{}, s.poison(err)
	}
	if err := s.wal.Sync(); err != nil {
		return snapBuild{}, s.poison(err)
	}
	next := s.gen + 1
	nf, err := os.OpenFile(filepath.Join(s.dir, walName(next)), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return snapBuild{}, s.poison(err)
	}
	if err := syncDir(s.dir); err != nil {
		nf.Close()
		return snapBuild{}, s.poison(err)
	}
	s.wal.Close()
	b := snapBuild{base: s.base, next: next, done: make(chan struct{})}
	s.wal, s.gen, s.walBytes, s.building = nf, next, 0, b.done
	return b, nil
}

// build runs b: it writes snap-<b.next>, deletes the files it replaces
// and publishes the new snapshot, or poisons the store with the
// failure. A failed build leaves the chain it read intact.
func (s *Store) build(b snapBuild) {
	size, err := writeSnapshot(s.dir, b.base, b.next)
	if err == nil {
		sweepStale(s.dir, b.next, b.next)
	}
	s.mu.Lock()
	if err == nil {
		s.base, s.snapLen = b.next, size
	} else if s.err == nil {
		s.err = err
	}
	s.building = nil
	s.mu.Unlock()
	close(b.done)
}

// writeSnapshot folds snap-<base> and the sealed segments wal-<base> …
// wal-<next-1> into snap-<next> and returns its size. It is written
// and synced under a temporary name, then renamed into place and the
// directory synced, so no crash leaves a partial snapshot under a live
// name and the files it replaces are deleted only once it is durable.
func writeSnapshot(dir string, base, next uint64) (int64, error) {
	f, err := foldChain(dir, base, next-1)
	if err != nil {
		return 0, fmt.Errorf("building %s: %w", snapName(next), err)
	}
	tmp := filepath.Join(dir, snapName(next)+".tmp")
	size, err := writeFileSync(tmp, f.encode)
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(next))); err != nil {
		return 0, err
	}
	return size, syncDir(dir)
}

// chainFold is a chain's history, kept as the bytes it was written as:
// restore decodes it once folded, and a build copies it into the next
// snapshot without decoding opens or events at all — a build runs
// beside the commit path, and decoding the whole history into model
// values would load the garbage collector every commit shares.
type chainFold struct {
	opens   [][]byte     // open-record bodies, in order
	status  map[int]byte // latest status per transaction; nil until one
	events  [][]byte     // surviving events-record bodies, in order
	nevents int          // events in events

	// The end of the last file folded: whether it ended in a
	// continuation or clean marker or in a torn record, and the end of
	// its good records, a marker left out.
	sealed, clean, torn bool
	goodLen             int64
}

// foldChain folds snap-<snap> and the segments wal-<snap> … wal-<last>.
// A snapshot that does not decode or is not sealed, and a segment with
// a successor that does not end in its continuation marker, are
// ErrCorrupt naming the file. Only snap-0 and, when it is the whole
// chain, wal-<snap> may be missing.
func foldChain(dir string, snap, last uint64) (*chainFold, error) {
	f := &chainFold{}
	b, err := os.ReadFile(filepath.Join(dir, snapName(snap)))
	switch {
	case err == nil:
		if err := f.fold(b); err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", snapName(snap), err)
		}
		if !f.clean {
			return nil, fmt.Errorf("%w: snapshot %s is not sealed", ErrCorrupt, snapName(snap))
		}
	case errors.Is(err, os.ErrNotExist) && snap == 0:
		// Fresh directory: empty base history.
	default:
		return nil, err
	}
	f.clean = false
	for g := snap; g <= last; g++ {
		wal, err := os.ReadFile(filepath.Join(dir, walName(g)))
		if errors.Is(err, os.ErrNotExist) && g == snap && g == last {
			break // no segment yet
		}
		if err != nil {
			return nil, err
		}
		if err := f.fold(wal); err != nil {
			return nil, fmt.Errorf("wal %s: %w", walName(g), err)
		}
		if g < last && !f.sealed {
			return nil, fmt.Errorf("%w: wal %s is not sealed, but %s follows it", ErrCorrupt, walName(g), walName(g+1))
		}
		f.torn = !f.clean && f.goodLen < int64(len(wal))
		if f.sealed {
			f.goodLen -= nextRecLen
		}
	}
	return f, nil
}

// fold folds one file of the chain: compactions erase the events folded
// before them, exactly as Core.Compact does in memory.
func (f *chainFold) fold(b []byte) (err error) {
	f.sealed = false
	f.clean, f.goodLen, err = walkFrames(b, false, f.visit)
	return err
}

func (f *chainFold) visit(body []byte) error {
	switch body[0] {
	case recOpen:
		f.opens = append(f.opens, body)
	case recEvents:
		n, err := walkEvents(body, nil)
		if err != nil {
			return err
		}
		f.events = append(f.events, body)
		f.nevents += n
	default:
		rec, err := decodeBody(body)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case recStatus:
			if f.status == nil {
				f.status = map[int]byte{}
			}
			f.status[rec.TID] = rec.Status
		case recCompact:
			f.erase(rec.Victims)
		case recNext:
			f.sealed = true
		}
	}
	return nil
}

// erase drops the victims' events from the folded events records.
func (f *chainFold) erase(victims []int) {
	drop := make(map[uint64]bool, len(victims))
	for _, v := range victims {
		drop[uint64(v)] = true
	}
	keep := f.events[:0]
	for _, body := range f.events {
		var kept []byte
		left := 0
		n, _ := walkEvents(body, func(t uint64, _ model.Op, _ []byte, _ uint64, enc []byte) { // checked by visit
			if !drop[t] {
				kept = append(kept, enc...)
				left++
			}
		})
		switch {
		case left == n:
			keep = append(keep, body)
		case left > 0:
			keep = append(keep, append(appendUvarint([]byte{recEvents}, uint64(left)), kept...))
		}
		f.nevents -= n - left
	}
	f.events = keep
}

// encode writes the folded history to w as a snapshot: the opens, the
// statuses by transaction, then the events in records of about 4096,
// so no record approaches the decoder's size cap, sealed clean. Each
// record is framed around the folded bytes as they are written, so a
// build holds no second copy of the history. A build runs beside the
// commit path: a copy the size of the history is garbage the commits'
// allocations pay to collect, and growing it moves megabytes in one
// copy that a stop-the-world pause of the collector must wait out.
func (f *chainFold) encode(w *bufio.Writer) {
	for _, body := range f.opens {
		writeRecord(w, body)
	}
	tids := make([]int, 0, len(f.status))
	for t := range f.status {
		tids = append(tids, t)
	}
	sort.Ints(tids)
	var rec []byte
	for _, t := range tids {
		rec = AppendStatusRec(rec[:0], t, f.status[t])
		w.Write(rec)
	}
	const chunk = 4096
	parts := [][]byte{nil} // the record's header, then its events
	count := 0
	for i, body := range f.events {
		n, evs, _ := eventsOf(body) // checked by visit
		parts = append(parts, evs)
		if count += n; count >= chunk || i == len(f.events)-1 {
			parts[0] = appendUvarint([]byte{recEvents}, uint64(count))
			writeRecord(w, parts...)
			parts, count = parts[:1], 0
		}
	}
	w.Write(AppendCleanRec(rec[:0]))
}

// Close waits for a running build, writes the pending records, seals
// the WAL with a clean-shutdown marker and closes it. It returns the
// store's sticky error — a failed build's included — or else the first
// error of writing the records or the marker, syncing it and closing
// the file (and poisons the store with it): a nil Close attests the
// marker reached the disk. A poisoned store writes no marker, and
// every later Close returns the same error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if done := s.building; done != nil {
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
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

// writeFileSync creates path, has write fill it through a buffer, syncs
// it and returns its size.
func writeFileSync(path string, write func(*bufio.Writer)) (int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	write(w)
	err = w.Flush()
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return size, err
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
