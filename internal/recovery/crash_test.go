package recovery_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	"locksafe/internal/workload"
)

// TestCrashPointSweep is the exhaustive crash harness for the disk
// layer. A reference workload (appends interleaved with compactions)
// runs against a Core with a store driven beside it (diskCore), with a
// status record and the barrier a commit or abort's acknowledgement
// waits on, which carries the store's buffered records to the WAL,
// after every compaction and after every append or every third one. The captured WAL therefore holds batches
// and bare records. A crash is replayed at *every* byte of it: a cut
// on a record boundary keeps every record before it, a cut inside a
// record drops that whole record — a batch's records together — with
// Torn set. Each crash point is restored into a fresh Core and checked
// against an independent fold of the kept records: identical surviving
// log, tags, structural state, monitor key and serializability
// verdict. Recovery code is only trustworthy to the extent its crash
// points are tested; this tests all of them.
func TestCrashPointSweep(t *testing.T) {
	batches, bare := 0, 0
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("status-every=%d", every), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				sys, sched := workload.Random(rng, workload.DefaultConfig())
				if len(sched) == 0 {
					continue
				}

				// Reference run: a Core and its store, two compaction
				// rounds, far below the rotation size (so the whole history
				// is one WAL we can cut).
				dir := t.TempDir()
				st, _, err := recovery.Open(dir, recovery.Options{})
				if err != nil {
					t.Fatal(err)
				}
				c := &diskCore{Core: recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 4), p: st}
				ack := func(tid int) {
					if err := c.status(tid, recovery.StatusActive); err != nil {
						t.Fatalf("seed %d: status: %v", seed, err)
					}
				}
				erased := map[int]bool{}
				appended := 0
				feed := func(evs model.Schedule) {
					for _, ev := range evs {
						if erased[int(ev.T)] || ev.S.Op.IsData() && !c.State().Defined(ev.S) {
							continue
						}
						if err := c.Append(ev); err != nil {
							t.Fatalf("seed %d: append %v: %v", seed, ev, err)
						}
						if appended++; appended%every == 0 {
							ack(int(ev.T))
						}
					}
				}
				compact := func(v int) {
					victims := map[int]bool{v: true}
					compactAll(t, c, victims)
					for v := range victims {
						erased[v] = true
					}
					ack(v)
				}
				half := len(sched) / 2
				feed(sched[:half])
				compact(int(sched[0].T))
				feed(sched[half:])
				if len(sys.Txns) > 1 {
					compact(len(sys.Txns) - 1)
				}
				if err := c.err; err != nil {
					t.Fatal(err)
				}
				// No Close: the reference process "crashes" with an unsealed
				// WAL, and whatever no status carried is lost with it.

				wal, err := os.ReadFile(filepath.Join(dir, "wal-0.log"))
				if err != nil {
					t.Fatal(err)
				}
				recs, clean, goodLen, err := recovery.DecodeWAL(wal)
				if err != nil || clean || goodLen != int64(len(wal)) || len(wal) == 0 {
					t.Fatalf("seed %d: captured WAL bad: err=%v clean=%v goodLen=%d/%d", seed, err, clean, goodLen, len(wal))
				}

				// Walk the framing (uvarint length + body + CRC) directly:
				// ends[i] is where the i-th record ends and kept[i] how many
				// records the WAL holds up to there, counting each record a
				// batch (kind 6) carries.
				var ends, kept []int
				nrecs := 0
				for off := 0; off < len(wal); {
					n, ln := binary.Uvarint(wal[off:])
					body := wal[off+ln : off+ln+int(n)]
					if body[0] == 6 {
						batches++
						for in := 1; in < len(body); {
							m, l := binary.Uvarint(body[in:])
							in += l + int(m) + 4
							nrecs++
						}
					} else {
						bare++
						nrecs++
					}
					off += ln + int(n) + 4
					ends = append(ends, off)
					kept = append(kept, nrecs)
				}
				if nrecs != len(recs) {
					t.Fatalf("seed %d: framing walk counted %d records, the decoder %d", seed, nrecs, len(recs))
				}

				for cut, i := 0, 0; cut <= len(wal); cut++ {
					for i < len(ends) && ends[i] <= cut {
						i++
					}
					want := 0
					if i > 0 {
						want = kept[i-1]
					}
					torn := i > 0 && ends[i-1] != cut || i == 0 && cut > 0
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
					wantEvs, wantTags := foldRecs(recs[:want])
					if got := model.Schedule(rec.Events).String(); got != wantEvs.String() {
						t.Fatalf("seed %d cut %d: recovered log\n%s\nwant\n%s", seed, cut, got, wantEvs)
					}
					if !slices.Equal(rec.Tags, wantTags) {
						t.Fatalf("seed %d cut %d: tags %v, want %v", seed, cut, rec.Tags, wantTags)
					}
					c2, err := rebuild(rec, len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 4)
					if err != nil {
						t.Fatalf("seed %d cut %d: rebuild: %v", seed, cut, err)
					}
					// Digest: structural state from an independent fold,
					// monitor key from an independently stepped monitor, and
					// the serializability verdict of the recovered prefix.
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
			}
		})
	}
	if batches == 0 || bare == 0 {
		t.Fatalf("the WALs held %d batch and %d bare records, want both", batches, bare)
	}
}

// foldRecs replays decoded records test-locally: events append, a
// compaction erases its victims' earlier events.
func foldRecs(recs []recovery.Rec) (model.Schedule, []uint64) {
	var evs model.Schedule
	var tags []uint64
	for _, r := range recs {
		switch {
		case len(r.Events) > 0:
			evs = append(evs, r.Events...)
			tags = append(tags, r.Tags...)
		case r.Victims != nil:
			var ke model.Schedule
			var kt []uint64
			for i, ev := range evs {
				if !slices.Contains(r.Victims, int(ev.T)) {
					ke = append(ke, ev)
					kt = append(kt, tags[i])
				}
			}
			evs, tags = ke, kt
		}
	}
	return evs, tags
}
