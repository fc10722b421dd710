package recovery

// White-box tests of the barrier (Store.Sync): a failed sync fails every
// caller it covers and poisons the store, and concurrent barriers racing
// rotations and Close never report a record synced that is not, nor sync
// a closed file.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestStoreSyncFailurePoisons: the WAL's descriptor is swapped for the
// write end of a pipe, which takes the barrier's write but refuses its
// sync. Every barrier that waited on the failed sync, racing or not,
// returns that failure; the store is poisoned, so later appends,
// barriers and Close fail with it, and the history on disk is still the
// one before the failure.
func TestStoreSyncFailurePoisons(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	st, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendStatus(0, StatusCommitted); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	st.mu.Lock()
	wal := st.wal
	st.wal = pw
	st.mu.Unlock()
	defer wal.Close()

	const callers = 8
	errs := make(chan error, callers)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		go func() {
			start.Wait()
			err := st.AppendStatus(1+i, StatusCommitted)
			if err == nil {
				err = st.Sync()
			}
			errs <- err
		}()
	}
	start.Done()
	var first error
	for i := 0; i < callers; i++ {
		err := <-errs
		if !errors.Is(err, syscall.EINVAL) {
			t.Fatalf("caller %d got %v, want the failed sync (EINVAL)", i, err)
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Fatalf("caller %d got %v, want the one sticky failure %v", i, err, first)
		}
	}
	if st.synced >= st.appended {
		t.Fatalf("synced %d of %d records after a failed sync", st.synced, st.appended)
	}
	for name, call := range map[string]func() error{
		"AppendStatus": func() error { return st.AppendStatus(99, StatusCommitted) },
		"Sync":         st.Sync,
		"Rotate":       st.Rotate,
		"Close":        st.Close,
	} {
		if err := call(); err != first {
			t.Errorf("%s after the failed sync = %v, want %v", name, err, first)
		}
	}
	rec, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Status) != 1 || rec.Status[0] != StatusCommitted || rec.Clean {
		t.Fatalf("restored statuses %v clean=%v, want T0's alone, unclean", rec.Status, rec.Clean)
	}
}

// TestStoreBarrierStress runs appenders, each waiting on the barrier
// after every status it appends, against rotations and a Close that
// lands while they run. A barrier that returns nil must find its record
// counted synced, and the restored directory must hold every status a
// barrier acknowledged; no barrier sees a failure but ErrClosed, and
// Close returns nil — a sync of a closed file would poison the store
// and fail both.
func TestStoreBarrierStress(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		dir := t.TempDir()
		st, _, err := Open(dir, Options{Fsync: fsync})
		if err != nil {
			t.Fatal(err)
		}
		const workers, perWorker = 4, 150
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			acked []int
			done  atomic.Int32
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Add(1)
				for i := 0; i < perWorker; i++ {
					tid := w*perWorker + i
					if err := st.AppendStatus(tid, StatusCommitted); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("append: %v", err)
						}
						return
					}
					st.mu.Lock()
					mine := st.appended
					st.mu.Unlock()
					if err := st.Sync(); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("barrier: %v", err)
						}
						return
					}
					st.mu.Lock()
					synced := st.synced
					st.mu.Unlock()
					if synced < mine {
						t.Errorf("barrier returned with %d records synced, want at least %d", synced, mine)
						return
					}
					mu.Lock()
					acked = append(acked, tid)
					mu.Unlock()
				}
			}()
		}
		rotations := 0
		for done.Load() < workers {
			if err := st.Rotate(); err != nil {
				t.Fatalf("rotate: %v", err)
			}
			rotations++
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= workers*perWorker/2 {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close under concurrent barriers: %v", err)
		}
		wg.Wait()
		rec, err := Restore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Clean {
			t.Fatal("restored directory is not cleanly sealed")
		}
		for _, tid := range acked {
			if rec.Status[tid] != StatusCommitted {
				t.Fatalf("fsync=%v: status of T%d was acknowledged but not restored", fsync, tid)
			}
		}
		if rotations == 0 || rec.Gen == 0 || len(acked) == 0 {
			t.Fatalf("fsync=%v: %d rotation offers reached generation %d with %d acknowledgements, want all exercised", fsync, rotations, rec.Gen, len(acked))
		}
	}
}

// TestStoreSealAndCloseWaitForSync: a barrier's leader syncs the WAL
// with the store's lock released, so a rotation's seal and Close, which
// close that file, must wait for it. The leader is simulated by hand —
// its sync marked in flight — so the wait is seen however fast the disk
// is.
func TestStoreSealAndCloseWaitForSync(t *testing.T) {
	st, _, err := Open(filepath.Join(t.TempDir(), "data"), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendStatus(0, StatusCommitted); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		call func() error
	}{{"Rotate", st.Rotate}, {"Close", st.Close}} {
		name := c.name
		st.mu.Lock()
		inFlight := make(chan struct{})
		st.syncing = inFlight
		gen := st.gen
		st.mu.Unlock()
		returned := make(chan error, 1)
		go func() { returned <- c.call() }()
		select {
		case err := <-returned:
			t.Fatalf("%s returned %v while a sync was in flight", name, err)
		case <-time.After(50 * time.Millisecond):
		}
		st.mu.Lock()
		if st.gen != gen || st.wal == nil {
			t.Fatalf("%s switched or closed the WAL under an in-flight sync", name)
		}
		st.syncing = nil
		close(inFlight)
		st.mu.Unlock()
		if err := <-returned; err != nil {
			t.Fatalf("%s after the sync: %v", name, err)
		}
	}
	if st.gen != 1 || st.wal != nil {
		t.Fatalf("generation %d, closed=%v: want the rotation and the Close done", st.gen, st.wal == nil)
	}
}
