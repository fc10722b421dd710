package recovery_test

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	"locksafe/internal/workload"
)

// TestCrashPointSweep is the exhaustive crash harness for the disk
// layer: it runs a reference workload (appends interleaved with
// compactions) against a persisted Core, then replays a crash at
// *every* record boundary of the captured WAL and at torn offsets
// inside every record. Each crash point is restored into a fresh Core
// and checked against an independent replay of the decoded record
// prefix: identical surviving log, tags, structural state, monitor key
// and serializability verdict. Recovery code is only trustworthy to
// the extent its crash points are tested; this tests all of them.
func TestCrashPointSweep(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys, sched := workload.Random(rng, workload.DefaultConfig())
		if len(sched) == 0 {
			continue
		}

		// Reference run: persisted Core, two compaction rounds, far below
		// the rotation size (so the whole history is one WAL we can cut).
		dir := t.TempDir()
		st, _, err := recovery.Open(dir, recovery.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 4)
		c.SetPersister(st)
		erased := map[int]bool{}
		feed := func(evs model.Schedule) {
			for _, ev := range evs {
				if erased[int(ev.T)] {
					continue
				}
				if ev.S.Op.IsData() && !c.State().Defined(ev.S) {
					continue
				}
				if err := c.Append(ev); err != nil {
					t.Fatalf("seed %d: append %v: %v", seed, ev, err)
				}
			}
		}
		half := len(sched) / 2
		feed(sched[:half])
		victims := map[int]bool{int(sched[0].T): true}
		compactAll(t, c, victims)
		for v := range victims {
			erased[v] = true
		}
		feed(sched[half:])
		if len(sys.Txns) > 1 {
			victims = map[int]bool{len(sys.Txns) - 1: true}
			compactAll(t, c, victims)
		}
		if err := c.PersistErr(); err != nil {
			t.Fatal(err)
		}
		// No Close: the reference process "crashes" with an unsealed WAL.

		wal, err := os.ReadFile(filepath.Join(dir, "wal-0.log"))
		if err != nil {
			t.Fatal(err)
		}
		recs, clean, goodLen, err := recovery.DecodeWAL(wal)
		if err != nil || clean || goodLen != int64(len(wal)) {
			t.Fatalf("seed %d: captured WAL bad: err=%v clean=%v goodLen=%d/%d", seed, err, clean, goodLen, len(wal))
		}

		// Record boundaries, for cutting at and between them: walk the
		// framing (uvarint length + body + CRC) directly.
		bounds := []int64{0}
		for off := int64(0); off < int64(len(wal)); {
			n, ln := binary.Uvarint(wal[off:])
			off += int64(ln) + int64(n) + 4
			bounds = append(bounds, off)
		}
		if bounds[len(bounds)-1] != int64(len(wal)) || len(bounds) != len(recs)+1 {
			t.Fatalf("seed %d: boundary walk: %d bounds over %d records, end %d/%d",
				seed, len(bounds), len(recs), bounds[len(bounds)-1], len(wal))
		}

		// Independent expectation: fold the decoded record prefix with
		// a test-local replayer (events append, compact erases).
		expectAt := func(nrecs int) (model.Schedule, []uint64) {
			var evs model.Schedule
			var tags []uint64
			for _, r := range recs[:nrecs] {
				switch {
				case len(r.Events) > 0:
					evs = append(evs, r.Events...)
					tags = append(tags, r.Tags...)
				case r.Victims != nil:
					vic := map[int]bool{}
					for _, v := range r.Victims {
						vic[v] = true
					}
					var ke model.Schedule
					var kt []uint64
					for i, ev := range evs {
						if !vic[int(ev.T)] {
							ke = append(ke, ev)
							kt = append(kt, tags[i])
						}
					}
					evs, tags = ke, kt
				}
			}
			return evs, tags
		}

		check := func(cut int64, nrecs int, torn bool) {
			t.Helper()
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, "wal-0.log"), wal[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := recovery.Restore(cdir)
			if err != nil {
				t.Fatalf("seed %d cut %d: restore: %v", seed, cut, err)
			}
			if rec.Torn != torn {
				t.Fatalf("seed %d cut %d: torn=%v, want %v", seed, cut, rec.Torn, torn)
			}
			wantEvs, wantTags := expectAt(nrecs)
			if got, want := model.Schedule(rec.Events).String(), wantEvs.String(); got != want {
				t.Fatalf("seed %d cut %d: recovered log\n%s\nwant\n%s", seed, cut, got, want)
			}
			for i := range wantTags {
				if rec.Tags[i] != wantTags[i] {
					t.Fatalf("seed %d cut %d: tag[%d] = %d, want %d", seed, cut, i, rec.Tags[i], wantTags[i])
				}
			}
			c2, err := rebuild(rec, len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 4)
			if err != nil {
				t.Fatalf("seed %d cut %d: rebuild: %v", seed, cut, err)
			}
			// Digest: structural state from an independent fold, monitor
			// key from an independently stepped monitor, and the
			// serializability verdict of the recovered prefix.
			state := sys.Init.Clone()
			mon := policy.Unrestricted{}.NewMonitor(sys)
			for _, ev := range wantEvs {
				if err := mon.Step(ev); err != nil {
					t.Fatalf("seed %d cut %d: expected prefix inadmissible: %v", seed, cut, err)
				}
				state.Apply(ev.S)
			}
			if !c2.State().Equal(state) {
				t.Fatalf("seed %d cut %d: state %v, want %v", seed, cut, c2.State(), state)
			}
			if got, want := c2.Monitor().Key(), mon.Key(); got != want {
				t.Fatalf("seed %d cut %d: monitor key %q, want %q", seed, cut, got, want)
			}
			if got, want := c2.Events().Serializable(sys), wantEvs.Serializable(sys); got != want {
				t.Fatalf("seed %d cut %d: verdict %v, want %v", seed, cut, got, want)
			}
		}

		// Every record boundary...
		for i, b := range bounds {
			check(b, i, false)
		}
		// ...and torn offsets inside every record: one byte in, and
		// mid-record.
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			for _, cut := range []int64{lo + 1, (lo + hi) / 2, hi - 1} {
				if cut <= lo || cut >= hi {
					continue
				}
				check(cut, i, true)
			}
		}
	}
}
