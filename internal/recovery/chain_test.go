package recovery

// White-box tests of rotation: each drives the steps of Store.rotateLocked
// (sealLocked, writeSnapshot, sweepStale, build) by hand and stops
// between them, leaving exactly the directory a crash there would leave.

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"locksafe/internal/model"
)

var chainBody = []model.Step{model.LX("a"), model.W("a"), model.UX("a")}

// appendTxn appends one transaction of chainBody: its open, its events
// and a commit, or, when erase is set, a compaction of its events and an
// abandonment; then it waits on the barrier the outcome's
// acknowledgement waits on.
func appendTxn(t *testing.T, st *Store, g int, run, erase bool) {
	t.Helper()
	tag := uint64(3 * g)
	evs := []model.Ev{{T: model.TID(g), S: chainBody[0]}, {T: model.TID(g), S: chainBody[1]}, {T: model.TID(g), S: chainBody[2]}}
	err := errors.Join(
		st.AppendOpen(OpenRec{G: g, Run: run, Name: "T", Steps: chainBody, Token: uint64(g) + 1}),
		st.AppendEvents(evs, []uint64{tag, tag + 1, tag + 2}),
	)
	if erase {
		err = errors.Join(err, st.AppendCompact([]int{g}), st.AppendStatus(g, StatusAbandoned))
	} else {
		err = errors.Join(err, st.AppendStatus(g, StatusCommitted))
	}
	if err = errors.Join(err, st.Sync()); err != nil {
		t.Fatal(err)
	}
}

// history is the part of a Recovered that a rotation must preserve.
type history struct {
	Events []model.Ev
	Tags   []uint64
	Opens  []OpenRec
	Status map[int]byte
}

func historyOf(t *testing.T, dir string) history {
	t.Helper()
	rec, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return history{rec.Events, rec.Tags, rec.Opens, rec.Status}
}

// sealedChain returns a store whose wal-0 holds three transactions and
// is sealed, with a fourth appended to wal-1, and the build the seal
// started but nobody ran.
func sealedChain(t *testing.T) (string, *Store, snapBuild) {
	t.Helper()
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendTxn(t, st, 0, false, false)
	appendTxn(t, st, 1, true, true)
	appendTxn(t, st, 2, true, false)
	st.mu.Lock()
	b, err := st.sealLocked()
	due := st.rotateDue(0)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if b.base != 0 || b.next != 1 || st.Gen() != 1 {
		t.Fatalf("seal started build %+v at segment %d, want 0 → 1", b, st.Gen())
	}
	appendTxn(t, st, 3, false, false)
	if due {
		t.Fatal("rotation due while a build is running")
	}
	t.Cleanup(func() {
		if st.wal != nil {
			st.wal.Close()
		}
	})
	return dir, st, b
}

// wantHistory is sealedChain's history, written without a rotation.
func wantHistory(t *testing.T) history {
	t.Helper()
	dir := t.TempDir()
	st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendTxn(t, st, 0, false, false)
	appendTxn(t, st, 1, true, true)
	appendTxn(t, st, 2, true, false)
	appendTxn(t, st, 3, false, false)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return historyOf(t, dir)
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestRotationCrashStates: a crash inside a rotation leaves a sealed
// chain with no new snapshot, a half-written snapshot beside it, or the
// renamed snapshot beside the files it replaces. Each restores the
// history a store that never rotated holds, Open removes what is stale
// and appends after it, and the next rotation folds what remains.
func TestRotationCrashStates(t *testing.T) {
	want := wantHistory(t)
	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir string, b snapBuild)
		files []string // after Open
	}{
		{"sealed-chain", func(*testing.T, string, snapBuild) {}, []string{"wal-0.log", "wal-1.log"}},
		{"half-written-snapshot", func(t *testing.T, dir string, b snapBuild) {
			if _, err := writeSnapshot(dir, b.base, b.next); err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(dir, snapName(b.next))
			full, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snap+".tmp", full[:len(full)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(snap); err != nil {
				t.Fatal(err)
			}
		}, []string{"wal-0.log", "wal-1.log"}},
		{"renamed-snapshot", func(t *testing.T, dir string, b snapBuild) {
			if _, err := writeSnapshot(dir, b.base, b.next); err != nil {
				t.Fatal(err)
			}
		}, []string{"snap-1", "wal-1.log"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, b := sealedChain(t)
			tc.crash(t, dir, b)
			if got := historyOf(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored %+v\nwant %+v", got, want)
			}
			st, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Clean || rec.Torn || rec.Gen != 1 {
				t.Fatalf("Open: clean=%v torn=%v gen=%d, want an unclean, untorn history ending in segment 1", rec.Clean, rec.Torn, rec.Gen)
			}
			if got := listDir(t, dir); !reflect.DeepEqual(got, tc.files) {
				t.Fatalf("files after Open %v, want %v", got, tc.files)
			}
			appendTxn(t, st, 4, false, false)
			// The next rotation folds whatever chain the crash left.
			st.mu.Lock()
			b, err = st.sealLocked()
			st.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			st.build(b)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if got := listDir(t, dir); !reflect.DeepEqual(got, []string{"snap-2", "wal-2.log"}) {
				t.Fatalf("files after the next rotation %v, want snap-2 and wal-2.log", got)
			}
			got := historyOf(t, dir)
			if len(got.Opens) != 5 || got.Status[4] != StatusCommitted ||
				!reflect.DeepEqual(got.Events[:len(want.Events)], want.Events) || len(got.Events) != len(want.Events)+3 {
				t.Fatalf("after appending T4: %+v", got)
			}
		})
	}
}

// TestSealedSegmentDamage: a segment with a successor must end in its
// continuation marker, so damage to its last record — which a final
// segment would drop as a torn tail — is corruption naming it, and so
// is a segment missing from the chain.
func TestSealedSegmentDamage(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		damage     func(t *testing.T, dir string)
	}{
		{"flipped-marker", "wal-0.log is not sealed", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "wal-0.log")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-int(nextRecLen)+1] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"cut-marker", "wal-0.log is not sealed", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "wal-0.log")
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-segment", "wal-1.log is missing", func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, "wal-1.log"), filepath.Join(dir, "wal-2.log")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, _ := sealedChain(t)
			tc.damage(t, dir)
			before := listDir(t, dir)
			if _, err := Restore(dir); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want ErrCorrupt saying %q", err, tc.want)
			}
			if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want ErrCorrupt saying %q", err, tc.want)
			}
			if after := listDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused Open changed the directory: %v → %v", before, after)
			}
		})
	}
}

// TestCloseWaitsForBuild: Close does not return while a build runs, and
// returns the build's failure — here a directory squatting on the
// snapshot's temporary name — after which the chain still restores.
func TestCloseWaitsForBuild(t *testing.T) {
	want := wantHistory(t)
	dir, st, b := sealedChain(t)
	if err := os.Mkdir(filepath.Join(dir, snapName(b.next)+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while a build was running", err)
	case <-time.After(50 * time.Millisecond):
	}
	st.build(b)
	err := <-closed
	if err == nil || !strings.Contains(err.Error(), snapName(b.next)+".tmp") {
		t.Fatalf("Close = %v, want the build's failure on %s.tmp", err, snapName(b.next))
	}
	if again := st.AppendStatus(0, StatusCommitted); again != err {
		t.Fatalf("append after a failed build = %v, want the sticky %v", again, err)
	}
	if got := historyOf(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %+v\nwant %+v", got, want)
	}
}

// TestSealWithoutSuccessor: a crash between sealing a segment and
// creating the next leaves a sealed last segment. Open strips its
// marker and appends to it, as it strips a clean marker.
func TestSealWithoutSuccessor(t *testing.T) {
	dir, _, _ := sealedChain(t)
	if err := os.Remove(filepath.Join(dir, "wal-1.log")); err != nil {
		t.Fatal(err)
	}
	st, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean || rec.Torn || rec.Gen != 0 || len(rec.Opens) != 3 {
		t.Fatalf("Open: clean=%v torn=%v gen=%d opens=%d, want the 3 sealed transactions", rec.Clean, rec.Torn, rec.Gen, len(rec.Opens))
	}
	appendTxn(t, st, 3, false, false)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := historyOf(t, dir), wantHistory(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %+v\nwant %+v", got, want)
	}
}

// TestBuildMatchesReplay: a build folds the chain from the bytes it was
// written as, without decoding events. On random histories — opens,
// events of several transactions per record, compactions, statuses, in
// bare and batch records — with rotations between them, the directory
// restores exactly what a store that never rotated restores.
func TestBuildMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rotating, plain := t.TempDir(), t.TempDir()
		a, _, err := Open(rotating, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Open(plain, Options{})
		if err != nil {
			t.Fatal(err)
		}
		both := func(call func(*Store) error) {
			if err := errors.Join(call(a), call(b)); err != nil {
				t.Fatal(err)
			}
		}
		txns, tag := 0, uint64(0)
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(10); {
			case r < 2 || txns == 0:
				o := OpenRec{G: txns, Run: rng.Intn(2) == 0, Name: "T", Steps: chainBody, Token: 1}
				txns++
				both(func(s *Store) error { return s.AppendOpen(o) })
			case r < 6:
				evs := make([]model.Ev, 1+rng.Intn(5))
				tags := make([]uint64, len(evs))
				for i := range evs {
					evs[i] = model.Ev{T: model.TID(rng.Intn(txns)), S: chainBody[rng.Intn(len(chainBody))]}
					tags[i], tag = tag, tag+1
				}
				both(func(s *Store) error { return s.AppendEvents(evs, tags) })
			case r < 7:
				victims := []int{rng.Intn(txns), rng.Intn(txns)}
				both(func(s *Store) error { return s.AppendCompact(victims) })
			case r < 9:
				g, st := rng.Intn(txns), byte(rng.Intn(3))
				both(func(s *Store) error { return s.AppendStatus(g, st) })
			default:
				a.mu.Lock()
				bld, err := a.sealLocked()
				a.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				a.build(bld)
			}
		}
		if err := errors.Join(a.Close(), b.Close()); err != nil {
			t.Fatal(err)
		}
		if got, want := historyOf(t, rotating), historyOf(t, plain); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the rotated store restored another history (%d events, %d opens, %d statuses; want %d, %d, %d)",
				seed, len(got.Events), len(got.Opens), len(got.Status), len(want.Events), len(want.Opens), len(want.Status))
		}
	}
}

// TestWriteRecordMatchesAppendRecord: a build frames each snapshot
// record around the parts it copies; the frame must be the one
// appendRecord gives the parts joined, for any split of the body.
func TestWriteRecordMatchesAppendRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 127, 128, 300, 70000} {
		body := make([]byte, n)
		rng.Read(body)
		var parts [][]byte
		for rest := body; len(rest) > 0; {
			k := min(len(rest), rng.Intn(200))
			parts, rest = append(parts, rest[:k]), rest[k:]
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		writeRecord(w, parts...)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := appendRecord(nil, body); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d-byte body in %d parts: framed %x…, want %x…", n, len(parts), buf.Bytes()[:4], want[:4])
		}
	}
}
