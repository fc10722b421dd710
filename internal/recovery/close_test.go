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
