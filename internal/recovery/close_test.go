package recovery

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"locksafe/internal/model"
)

// TestStoreCloseReportsUnsealedMarker pins that Close does not attest a
// clean seal it could not write. The WAL's descriptor is swapped for a
// read-only one on the same file, so the marker write fails while the
// file's own Close still succeeds — the marker's fate is the only error
// there is to report. Close must report it, and the next Restore finds
// the history intact but not cleanly sealed.
func TestStoreCloseReportsUnsealedMarker(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEvents([]model.Ev{{T: 0, S: model.LX("a")}}, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	// The event waits in the store's buffer until a status carries it
	// to the WAL.
	if err := st.AppendStatus(0, StatusActive); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(st.wal.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.wal.Close(); err != nil {
		t.Fatal(err)
	}
	st.wal = ro
	if err := st.Close(); err == nil {
		t.Fatal("Close returned nil although the clean-shutdown marker could not be written")
	}
	if err := st.AppendStatus(0, StatusCommitted); err == nil {
		t.Fatal("append after a failed Close accepted; the store must stay poisoned")
	}
	rec, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean || len(rec.Events) != 1 {
		t.Fatalf("restore after failed seal: clean=%v events=%d, want unclean with the 1 appended event", rec.Clean, len(rec.Events))
	}
}

// TestStoreClosePoisonedReportsError: Close on a store an earlier
// failure poisoned writes no marker and returns that failure — a nil
// Close would attest a seal that never happened.
func TestStoreClosePoisonedReportsError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	poison := errors.New("disk failed")
	st.err = poison
	if err := st.Close(); !errors.Is(err, poison) {
		t.Fatalf("Close of a poisoned store = %v, want %v", err, poison)
	}
	if rec, err := Restore(dir); err != nil || rec.Clean {
		t.Fatalf("restore after poisoned Close: clean=%v err=%v, want unclean", rec.Clean, err)
	}
}

// TestStoreStaysClosed: a failed seal is reported by every later Close,
// not only the first — a nil one would attest a marker that never
// reached the disk — and appends and Rotate after Close fail by name
// rather than joining a buffer no one will write.
func TestStoreStaysClosed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendStatus(0, StatusActive); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(st.wal.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.wal.Close(); err != nil {
		t.Fatal(err)
	}
	st.wal = ro
	first := st.Close()
	if first == nil {
		t.Fatal("Close returned nil although the clean-shutdown marker could not be written")
	}
	for i := 0; i < 2; i++ {
		if err := st.Close(); err != first {
			t.Fatalf("Close #%d after a failed seal = %v, want %v", i+2, err, first)
		}
	}

	st, _, err = Open(filepath.Join(t.TempDir(), "data"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"AppendEvents":  func() error { return st.AppendEvents([]model.Ev{{T: 0, S: model.LX("a")}}, []uint64{0}) },
		"AppendCompact": func() error { return st.AppendCompact([]int{0}) },
		"AppendOpen":    func() error { return st.AppendOpen(OpenRec{Name: "T1", Token: 1}) },
		"AppendStatus":  func() error { return st.AppendStatus(0, StatusCommitted) },
		"Rotate":        st.Rotate,
	} {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close after a clean seal = %v, want nil", err)
	}
}
