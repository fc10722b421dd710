package recovery_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/recovery"
)

func sampleRecords() []byte {
	var b []byte
	b = recovery.AppendOpenRec(b, recovery.OpenRec{
		G: 0, Name: "T1",
		Steps: []model.Step{model.LX("x"), model.I("x"), model.UX("x")},
		Token: 0xdeadbeef, Deadline: 12345,
	})
	b = recovery.AppendOpenRec(b, recovery.OpenRec{G: 1, Mirror: true, Name: "T2", Steps: []model.Step{model.LS("x"), model.R("x"), model.US("x")}})
	b = recovery.AppendEventsRec(b, []model.Ev{
		{T: 0, S: model.LX("x")},
		{T: 0, S: model.I("x")},
	}, []uint64{0, 1})
	b = recovery.AppendEventsRec(b, []model.Ev{{T: 1, S: model.LS("x")}}, []uint64{2})
	b = recovery.AppendStatusRec(b, 0, recovery.StatusCommitted)
	b = recovery.AppendCompactRec(b, []int{1})
	b = recovery.AppendStatusRec(b, 1, recovery.StatusAbandoned)
	return b
}

func TestWALRoundTrip(t *testing.T) {
	b := sampleRecords()
	recs, clean, goodLen, err := recovery.DecodeWAL(b)
	if err != nil {
		t.Fatal(err)
	}
	if clean || goodLen != int64(len(b)) {
		t.Fatalf("clean=%v goodLen=%d, want false/%d", clean, goodLen, len(b))
	}
	if len(recs) != 7 {
		t.Fatalf("decoded %d records, want 7", len(recs))
	}
	if recs[0].Open.Token != 0xdeadbeef || recs[0].Open.Deadline != 12345 {
		t.Fatalf("open record mangled: %+v", recs[0].Open)
	}
	if !recs[1].Open.Mirror {
		t.Fatal("mirror flag lost")
	}
	if len(recs[2].Events) != 2 || recs[2].Tags[1] != 1 {
		t.Fatalf("events record mangled: %+v", recs[2])
	}
	if recs[5].Victims[0] != 1 {
		t.Fatalf("compact record mangled: %+v", recs[5])
	}

	// Sealed stream: the marker is stripped, clean=true, goodLen points
	// at the marker.
	sealed := recovery.AppendCleanRec(b)
	recs2, clean2, goodLen2, err := recovery.DecodeWAL(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !clean2 || len(recs2) != 7 || goodLen2 != int64(len(b)) {
		t.Fatalf("sealed decode: clean=%v n=%d goodLen=%d", clean2, len(recs2), goodLen2)
	}
}

// TestWALTornTail cuts a valid stream at every byte offset of its final
// record: every cut must decode cleanly to the prefix before that
// record, reporting the prefix length as the resume point.
func TestWALTornTail(t *testing.T) {
	b := sampleRecords()
	full, _, _, err := recovery.DecodeWAL(b)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the last record by re-encoding the prefix.
	var prefix []byte
	prefix = recovery.AppendOpenRec(prefix, full[0].Open)
	prefix = recovery.AppendOpenRec(prefix, full[1].Open)
	prefix = recovery.AppendEventsRec(prefix, full[2].Events, full[2].Tags)
	prefix = recovery.AppendEventsRec(prefix, full[3].Events, full[3].Tags)
	prefix = recovery.AppendStatusRec(prefix, full[4].TID, full[4].Status)
	prefix = recovery.AppendCompactRec(prefix, full[5].Victims)
	last := len(prefix)

	for cut := last + 1; cut < len(b); cut++ {
		recs, clean, goodLen, err := recovery.DecodeWAL(b[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if clean {
			t.Fatalf("cut %d: claimed clean", cut)
		}
		if len(recs) != 6 || goodLen != int64(last) {
			t.Fatalf("cut %d: %d records, goodLen %d, want 6/%d", cut, len(recs), goodLen, last)
		}
	}
}

// TestWALCorruption pins the tamper rules: interior damage fails
// loudly, final-record damage without a clean marker is torn, and any
// damage before a clean marker fails loudly.
func TestWALCorruption(t *testing.T) {
	b := sampleRecords()

	// Interior: flip a byte in the first record.
	bad := append([]byte(nil), b...)
	bad[3] ^= 0xff
	if _, _, _, err := recovery.DecodeWAL(bad); !errors.Is(err, recovery.ErrCorrupt) {
		t.Fatalf("interior corruption: err=%v, want ErrCorrupt", err)
	}

	// Final record (no marker): flip its last pre-CRC byte — the
	// record reaches EOF, so this is indistinguishable from a torn
	// write and must be dropped.
	bad = append([]byte(nil), b...)
	bad[len(bad)-5] ^= 0xff
	recs, clean, _, err := recovery.DecodeWAL(bad)
	if err != nil || clean {
		t.Fatalf("torn-equivalent tail: err=%v clean=%v", err, clean)
	}
	if len(recs) != 6 {
		t.Fatalf("torn-equivalent tail kept %d records, want 6", len(recs))
	}

	// The same damage before a clean marker is loud: the writer
	// promised it finished.
	sealed := recovery.AppendCleanRec(append([]byte(nil), bad...))
	if _, _, _, err := recovery.DecodeWAL(sealed); !errors.Is(err, recovery.ErrCorrupt) {
		t.Fatalf("damage before clean marker: err=%v, want ErrCorrupt", err)
	}

	// A clean marker that is not final is loud.
	withMore := recovery.AppendStatusRec(recovery.AppendCleanRec(append([]byte(nil), b...)), 0, recovery.StatusCommitted)
	if _, _, _, err := recovery.DecodeWAL(withMore); !errors.Is(err, recovery.ErrCorrupt) {
		t.Fatalf("non-final clean marker: err=%v, want ErrCorrupt", err)
	}
}

func TestStoreLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, rec, err := recovery.Open(dir, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 0 || len(rec.Opens) != 0 {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	if err := st.AppendOpen(recovery.OpenRec{G: 0, Name: "T1", Steps: []model.Step{model.LX("a"), model.I("a"), model.UX("a")}, Token: 7, Deadline: 99}); err != nil {
		t.Fatal(err)
	}
	evs := []model.Ev{{T: 0, S: model.LX("a")}, {T: 0, S: model.I("a")}, {T: 0, S: model.UX("a")}}
	if err := st.AppendEvents(evs, []uint64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendStatus(0, recovery.StatusCommitted); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err = recovery.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Clean || rec.Torn {
		t.Fatalf("clean close not detected: %+v", rec)
	}
	if len(rec.Events) != 3 || rec.Status[0] != recovery.StatusCommitted || rec.Opens[0].Token != 7 {
		t.Fatalf("restore mismatch: %+v", rec)
	}
	if rec.MaxTag() != 3 {
		t.Fatalf("MaxTag = %d, want 3", rec.MaxTag())
	}

	// Reopen resumes appending (marker stripped), and a second txn's
	// history accumulates on top of the first.
	st2, rec2, err := recovery.Open(dir, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Events) != 3 {
		t.Fatalf("reopen lost events: %d", len(rec2.Events))
	}
	if err := st2.AppendEvents([]model.Ev{{T: 0, S: model.LX("a")}}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	rec3, err := recovery.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Events) != 4 {
		t.Fatalf("resumed append lost: %d events", len(rec3.Events))
	}
}

func TestStoreRotate(t *testing.T) {
	dir := t.TempDir()
	st, _, err := recovery.Open(dir, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.AppendOpen(recovery.OpenRec{G: 0, Name: "T1", Steps: []model.Step{model.LX("a"), model.UX("a")}})
	st.AppendOpen(recovery.OpenRec{G: 1, Name: "T2", Steps: []model.Step{model.LX("b"), model.UX("b")}})
	st.AppendEvents([]model.Ev{{T: 0, S: model.LX("a")}, {T: 1, S: model.LX("b")}, {T: 1, S: model.UX("b")}}, []uint64{0, 1, 2})
	st.AppendStatus(1, recovery.StatusCommitted)
	// Erase T1's events, then rotate: the snapshot must carry only the
	// survivors.
	st.AppendCompact([]int{0})
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	if st.Gen() != 1 {
		t.Fatalf("gen = %d, want 1", st.Gen())
	}
	// Post-rotation appends land in the new generation.
	st.AppendEvents([]model.Ev{{T: 0, S: model.LX("a")}}, []uint64{3})
	st.Close()
	// The snapshot is built in the background, and Close waits for it:
	// the old generation is gone once Close returns.
	if _, err := os.Stat(filepath.Join(dir, "wal-0.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old generation not deleted: %v", err)
	}

	rec, err := recovery.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 1 {
		t.Fatalf("restored gen = %d, want 1", rec.Gen)
	}
	want := "T1:(LX b) T1:(UX b) T0:(LX a)"
	if got := model.Schedule(rec.Events).String(); got != want {
		t.Fatalf("rotated history = %q, want %q", got, want)
	}
	if len(rec.Opens) != 2 || rec.Status[1] != recovery.StatusCommitted {
		t.Fatalf("rotation dropped metadata: %+v", rec)
	}
}

// TestCorePersistence pins the writes a Core's owner makes: the directory
// of a store driven beside a Core (diskCore) restores (via rebuild) to
// the exact surviving log, state and monitor, through appends,
// compactions and truncation-driven rotation.
func TestCorePersistence(t *testing.T) {
	sys := model.NewSystem(model.NewState("a"),
		model.NewTxn("T1", model.LX("b"), model.I("b"), model.UX("b")),
		model.NewTxn("T2", model.LX("a"), model.W("a"), model.UX("a")),
		model.NewTxn("T3", model.LS("a"), model.R("a"), model.US("a")),
	)
	dir := t.TempDir()
	st, _, err := recovery.Open(dir, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &diskCore{Core: recovery.New(len(sys.Txns), sys.Init, model.PermissiveMonitor{}, 2), p: st}
	sched := model.Schedule{
		{T: 0, S: model.LX("b")}, {T: 0, S: model.I("b")},
		{T: 1, S: model.LX("a")}, {T: 1, S: model.W("a")},
		{T: 0, S: model.UX("b")},
		{T: 2, S: model.LS("a")},
		{T: 1, S: model.UX("a")},
		{T: 2, S: model.R("a")}, {T: 2, S: model.US("a")},
	}
	for _, ev := range sched {
		if err := c.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := c.Compact(map[int]bool{2: true}); !ok {
		t.Fatal("compact failed")
	}
	if n := c.Truncate(func(t int) bool { return t != 0 }); n == 0 {
		t.Log("no truncation floor found (fine for this fixture)")
	}
	if err := c.err; err != nil {
		t.Fatal(err)
	}
	st.Close()

	rec, err := recovery.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rebuild(rec, len(sys.Txns), sys.Init, model.PermissiveMonitor{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The in-memory core may have truncated its prefix; the restored
	// core holds the full surviving history. Compare states and the
	// suffix relationship.
	if !c2.State().Equal(c.State()) {
		t.Fatalf("restored state %v, want %v", c2.State(), c.State())
	}
	mem, all := c.Events().String(), c2.Events().String()
	if len(mem) > len(all) || all[len(all)-len(mem):] != mem {
		t.Fatalf("in-memory log is not a suffix of restored log:\nmem %s\nall %s", mem, all)
	}
}

// TestStoreRefusesDamagedSnapshot: rotation renames a snapshot into
// place only once it is written, sealed and synced, so a live snapshot
// that does not decode, or is not sealed, is damage, not a crash. Open
// and Restore refuse it by name and touch nothing — they never fall back
// to an older generation, which after a rotation is the empty one.
func TestStoreRefusesDamagedSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"flipped-byte", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }},
		{"unsealed", func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := recovery.Open(dir, recovery.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st.AppendOpen(recovery.OpenRec{G: 0, Name: "T1", Steps: []model.Step{model.LX("a"), model.UX("a")}})
			st.AppendEvents([]model.Ev{{T: 0, S: model.LX("a")}, {T: 0, S: model.UX("a")}}, []uint64{0, 1})
			if err := st.Rotate(); err != nil {
				t.Fatal(err)
			}
			st.AppendStatus(0, recovery.StatusCommitted)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(dir, "snap-1")
			b, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snap, tc.damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := recovery.Restore(dir); !errors.Is(err, recovery.ErrCorrupt) || !strings.Contains(err.Error(), "snap-1") {
				t.Fatalf("Restore = %v, want ErrCorrupt naming snap-1", err)
			}
			if _, rec, err := recovery.Open(dir, recovery.Options{}); !errors.Is(err, recovery.ErrCorrupt) || !strings.Contains(err.Error(), "snap-1") {
				t.Fatalf("Open = %v (opens=%d events=%d), want ErrCorrupt naming snap-1", err, len(rec.Opens), len(rec.Events))
			}
			for _, name := range []string{"snap-1", "wal-1.log"} {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Fatalf("refused open removed %s: %v", name, err)
				}
			}
		})
	}
}

// batchStream returns a WAL of two bare records followed by a batch
// carrying three (events, a compaction, a status), and the offset at
// which the batch starts.
func batchStream() (b []byte, batchAt int) {
	b = recovery.AppendOpenRec(nil, recovery.OpenRec{G: 0, Name: "T1", Steps: []model.Step{model.LX("x"), model.UX("x")}, Token: 1})
	b = recovery.AppendOpenRec(b, recovery.OpenRec{G: 1, Name: "T2", Steps: []model.Step{model.LX("y"), model.UX("y")}, Token: 2})
	batchAt = len(b)
	return recovery.AppendBatchRec(b, batchBody()), batchAt
}

// batchBody is the framed records batchStream's batch carries.
func batchBody() []byte {
	inner := recovery.AppendEventsRec(nil, []model.Ev{{T: 0, S: model.LX("x")}, {T: 1, S: model.LX("y")}}, []uint64{0, 1})
	inner = recovery.AppendCompactRec(inner, []int{1})
	return recovery.AppendStatusRec(inner, 1, recovery.StatusAbandoned)
}

// TestWALBatchTornAtEveryByte: a batch stands for the records it
// carries, in order, and a cut anywhere inside it — the batch is the
// WAL's final record — drops the whole batch as a torn tail: Restore
// returns exactly the records before it, with Torn set.
func TestWALBatchTornAtEveryByte(t *testing.T) {
	b, at := batchStream()
	recs, clean, goodLen, err := recovery.DecodeWAL(b)
	if err != nil || clean || goodLen != int64(len(b)) {
		t.Fatalf("decode: err=%v clean=%v goodLen=%d/%d", err, clean, goodLen, len(b))
	}
	flat, _, _, err := recovery.DecodeWAL(append(b[:at:at], batchBody()...))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || !reflect.DeepEqual(recs, flat) {
		t.Fatalf("batch decoded to %+v, want the flat records %+v", recs, flat)
	}
	for cut := at + 1; cut < len(b); cut++ {
		got, clean, goodLen, err := recovery.DecodeWAL(b[:cut])
		if err != nil || clean || goodLen != int64(at) || !reflect.DeepEqual(got, recs[:2]) {
			t.Fatalf("cut %d: err=%v clean=%v goodLen=%d records=%d, want the 2 records before the batch and goodLen %d",
				cut, err, clean, goodLen, len(got), at)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := recovery.Restore(dir)
		if err != nil || !rec.Torn || len(rec.Opens) != 2 || len(rec.Events) != 0 || len(rec.Status) != 0 {
			t.Fatalf("cut %d: restore err=%v torn=%v opens=%d events=%d status=%v, want the two opens only, torn",
				cut, err, rec.Torn, len(rec.Opens), len(rec.Events), rec.Status)
		}
	}
}

// TestWALBatchCorruption: the batch's CRC vouches for every byte in it,
// so damage to a batch that is not the final record, a batch inside a
// batch, and a clean marker inside a batch are each corruption, named.
func TestWALBatchCorruption(t *testing.T) {
	b, at := batchStream()
	for _, tc := range []struct {
		name, want string
		wal        []byte
	}{
		{"flipped-non-final", "CRC mismatch at offset " + strconv.Itoa(at), func() []byte {
			bad := recovery.AppendStatusRec(append([]byte(nil), b...), 0, recovery.StatusCommitted)
			bad[at+3] ^= 0xff
			return bad
		}()},
		{"nested", "batch nested in a batch", recovery.AppendBatchRec(nil, recovery.AppendBatchRec(nil, batchBody()))},
		{"clean-inside", "clean-shutdown marker inside a batch", recovery.AppendBatchRec(nil, recovery.AppendCleanRec(batchBody()))},
		{"empty", "empty batch", recovery.AppendBatchRec(nil, nil)},
	} {
		if _, _, _, err := recovery.DecodeWAL(tc.wal); !errors.Is(err, recovery.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want ErrCorrupt saying %q", tc.name, err, tc.want)
		}
	}
}

// TestStoreBuffersUntilAcknowledged: events and compactions wait in the
// store until a status needs them on disk; the status then writes all
// three as one record, which restores them in order (the compaction
// erases only the events before it).
func TestStoreBuffersUntilAcknowledged(t *testing.T) {
	dir := t.TempDir()
	st, _, err := recovery.Open(dir, recovery.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEvents([]model.Ev{{T: 0, S: model.LX("a")}, {T: 1, S: model.LX("b")}}, []uint64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCompact([]int{1}); err != nil {
		t.Fatal(err)
	}
	if n := st.WALBytes(); n != 0 {
		t.Fatalf("WALBytes = %d before any acknowledgement, want 0", n)
	}
	if err := st.AppendStatus(0, recovery.StatusCommitted); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	n, ln := binary.Uvarint(wal)
	if ln <= 0 || int64(len(wal)) != st.WALBytes() || ln+int(n)+4 != len(wal) {
		t.Fatalf("WAL of %d bytes (WALBytes %d) is not one record", len(wal), st.WALBytes())
	}
	rec, err := recovery.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Schedule(rec.Events).String(); got != "T0:(LX a)" || rec.Status[0] != recovery.StatusCommitted || rec.Torn {
		t.Fatalf("restored events %q status %v torn %v, want T0:(LX a), T0 committed", got, rec.Status, rec.Torn)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBuffersRunOpen: a run's open answers no one, so it waits in
// the buffer like an event, and the run's status writes the open, its
// events and itself as one record, restored in that order. A spanning
// run's open (a mirror) is written at once.
func TestStoreBuffersRunOpen(t *testing.T) {
	dir := t.TempDir()
	st, _, err := recovery.Open(dir, recovery.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	body := []model.Step{model.LX("a"), model.W("a"), model.UX("a")}
	if err := st.AppendOpen(recovery.OpenRec{G: 0, Run: true, Name: "R", Steps: body, Token: 5}); err != nil {
		t.Fatal(err)
	}
	if n := st.WALBytes(); n != 0 {
		t.Fatalf("WALBytes = %d after a run's open, want 0", n)
	}
	evs := []model.Ev{{T: 0, S: body[0]}, {T: 0, S: body[1]}, {T: 0, S: body[2]}}
	if err := st.AppendEvents(evs, []uint64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendStatus(0, recovery.StatusCommitted); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	n, ln := binary.Uvarint(wal)
	if ln <= 0 || int64(len(wal)) != st.WALBytes() || ln+int(n)+4 != len(wal) {
		t.Fatalf("WAL of %d bytes (WALBytes %d) is not one record", len(wal), st.WALBytes())
	}
	recs, _, _, err := recovery.DecodeWAL(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || !recs[0].Open.Run || recs[0].Open.Name != "R" || len(recs[1].Events) != 3 ||
		recs[2].TID != 0 || recs[2].Status != recovery.StatusCommitted {
		t.Fatalf("batch holds %+v, want the run's open, its 3 events and its commit, in order", recs)
	}

	before := st.WALBytes()
	if err := st.AppendOpen(recovery.OpenRec{G: 1, Run: true, Mirror: true, Name: "S", Steps: body, Token: 6}); err != nil {
		t.Fatal(err)
	}
	if st.WALBytes() == before {
		t.Fatal("a spanning run's open was buffered, want it written at once")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := recovery.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Opens) != 2 || !rec.Opens[0].Run || rec.Opens[0].Mirror || !rec.Opens[1].Run || !rec.Opens[1].Mirror {
		t.Fatalf("restored opens %+v, want a local and a spanning run", rec.Opens)
	}
}

// TestWALOpenFlags: flag 0x1 (mirror) and 0x2 (run) decode; any other
// open flag is corruption, named.
func TestWALOpenFlags(t *testing.T) {
	for _, flags := range []byte{0, 1, 2, 3, 4, 0x80} {
		body := []byte{4, 0, flags, 1, 'T', 0, 1, 0} // open: G 0, name "T", no steps, token 1, deadline 0
		rec := binary.AppendUvarint(nil, uint64(len(body)))
		rec = binary.LittleEndian.AppendUint32(append(rec, body...), crc32.ChecksumIEEE(body))
		recs, _, _, err := recovery.DecodeWAL(rec)
		if flags > 3 {
			if !errors.Is(err, recovery.ErrCorrupt) || !strings.Contains(err.Error(), "unknown open flags") {
				t.Errorf("flags %#x: err=%v, want ErrCorrupt naming the open flags", flags, err)
			}
			continue
		}
		if err != nil || len(recs) != 1 || recs[0].Open.Mirror != (flags&1 != 0) || recs[0].Open.Run != (flags&2 != 0) {
			t.Errorf("flags %#x: err=%v records %+v", flags, err, recs)
		}
	}
}

// TestWALContinuationMarker: a continuation marker ends a segment. It
// decodes as the final record, and one that is not final or sits in a
// batch is corruption, named.
func TestWALContinuationMarker(t *testing.T) {
	b := sampleRecords()
	sealed := recovery.AppendNextRec(append([]byte(nil), b...))
	recs, clean, goodLen, err := recovery.DecodeWAL(sealed)
	if err != nil || clean || goodLen != int64(len(sealed)) || len(recs) != 8 || recs[7].Kind != 7 {
		t.Fatalf("sealed segment: err=%v clean=%v goodLen=%d/%d records=%d", err, clean, goodLen, len(sealed), len(recs))
	}
	for _, tc := range []struct {
		name, want string
		wal        []byte
	}{
		{"not-final", "continuation marker at offset", recovery.AppendStatusRec(append([]byte(nil), sealed...), 0, recovery.StatusCommitted)},
		{"in-batch", "continuation marker inside a batch", recovery.AppendBatchRec(nil, recovery.AppendNextRec(batchBody()))},
		{"then-clean", "continuation marker at offset", recovery.AppendCleanRec(append([]byte(nil), sealed...))},
	} {
		if _, _, _, err := recovery.DecodeWAL(tc.wal); !errors.Is(err, recovery.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want ErrCorrupt saying %q", tc.name, err, tc.want)
		}
	}
}
