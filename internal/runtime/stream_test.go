package runtime

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// recorder is a WrapPersister that logs every call a runner makes on
// its store — the method and its arguments, resume tokens masked, one
// line each, prefixed with the partition — and forwards it.
type recorder struct {
	recovery.Persister
	p   int
	mu  *sync.Mutex
	log *[]string
}

func (r recorder) add(format string, args ...any) {
	r.mu.Lock()
	*r.log = append(*r.log, fmt.Sprintf("p%d ", r.p)+fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r recorder) AppendEvents(evs []model.Ev, tags []uint64) error {
	r.add("events %v %v", evs, tags)
	return r.Persister.AppendEvents(evs, tags)
}

func (r recorder) AppendCompact(victims []int) error {
	r.add("compact %v", victims)
	return r.Persister.AppendCompact(victims)
}

func (r recorder) AppendOpen(o recovery.OpenRec) error {
	masked := o
	masked.Token = 0
	r.add("open %+v", masked)
	return r.Persister.AppendOpen(o)
}

func (r recorder) AppendStatus(tid int, status byte) error {
	r.add("status %d %d", tid, status)
	return r.Persister.AppendStatus(tid, status)
}

func (r recorder) Rotate() error {
	r.add("rotate")
	return r.Persister.Rotate()
}

func (r recorder) Close() error {
	r.add("close")
	return r.Persister.Close()
}

// TestRunnerRecordStream pins what reaches the disk, record by record:
// a scripted history on one and two partitions — step sessions, a run,
// a client abort after admitted steps and one before any, commits whose
// truncation cuts and rotates (CheckpointEvery 3 puts every checkpoint
// on a body boundary of the serial 3-step commits) and commits past a
// straddling session, whose truncation attempts cut nothing, one
// spanning commit — must make exactly the store calls of
// testdata/record_stream.golden, in that order. It catches a compaction
// record written when nothing was erased, an event written ahead of its
// open and a moved or unearned rotation. Run with -update to rewrite the
// golden file.
func TestRunnerRecordStream(t *testing.T) {
	e0, e1 := partitionedEntities(t)
	var e2 model.Entity // a second entity homed with e0 on two partitions
	for c := byte('a'); e2 == ""; c++ {
		if e := model.Entity([]byte{c}); e != e0 && model.PartitionOf(e, 2) == 0 {
			e2 = e
		}
	}
	var got []string
	for _, parts := range []int{1, 2} {
		var mu sync.Mutex
		log := []string{fmt.Sprintf("partitions=%d", parts)}
		p := 0
		eng, _, err := NewDurableSessionEngine(model.NewState(e0, e1, e2), Config{
			Policy: policy.TwoPhase{}, Partitions: parts, DataDir: t.TempDir(),
			TruncateLog: true, CheckpointEvery: 3,
			WrapPersister: func(st recovery.Persister) recovery.Persister {
				p++
				return recorder{Persister: st, p: p - 1, mu: &mu, log: &log}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		streamScript(t, eng, e0, e1, e2)
		if _, err := eng.Close(); err != nil {
			t.Fatalf("partitions=%d: close: %v", parts, err)
		}
		got = append(got, log...)
	}
	text := strings.Join(got, "\n") + "\n"
	for _, want := range []string{" compact ", " rotate", " status "} {
		if !strings.Contains(text, want) {
			t.Fatalf("the script wrote no %q record; it no longer exercises what it pins", strings.TrimSpace(want))
		}
	}
	golden := filepath.Join("testdata", "record_stream.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		g, w := strings.Split(text, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(g), len(w)); i++ {
			if g[i] != w[i] {
				t.Fatalf("record %d:\n got %s\nwant %s", i, g[i], w[i])
			}
		}
		t.Fatalf("the stream has %d records, the golden %d", len(g), len(w))
	}
}

// streamScript drives TestRunnerRecordStream's history, one operation
// at a time, so the order of the store calls is deterministic.
func streamScript(t *testing.T, eng SessionEngine, e0, e1, e2 model.Entity) {
	t.Helper()
	run := func(open func(model.Txn) (Sess, error), tx model.Txn) {
		t.Helper()
		s, err := open(tx)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", tx.Name, err)
		}
	}
	s, err := eng.OpenSession(rwTxn("s1", e0))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range s.Declared().Steps {
		if err := s.Step(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	run(eng.OpenRun, rwTxn("r1", e1))
	// A client abort after admitted steps erases them: a compaction
	// record. One before any step erases nothing: none.
	if s, err = eng.OpenSession(rwTxn("sa", e0)); err != nil {
		t.Fatal(err)
	}
	s.Step(model.LX(e0))
	s.Step(model.W(e0))
	s.Abort()
	if s, err = eng.OpenSession(rwTxn("sz", e1)); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	for i := 0; i < 8; i++ {
		run(eng.OpenSession, rwTxn(fmt.Sprintf("t%d", i), e0))
	}
	// A session left one step in holds back every later truncation
	// boundary until it commits.
	if s, err = eng.OpenSession(rwTxn("sp", e2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(model.LX(e2)); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 16; i++ {
		run(eng.OpenSession, rwTxn(fmt.Sprintf("t%d", i), e0))
	}
	for _, st := range s.Declared().Steps[1:] {
		if err := s.Step(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	run(eng.OpenSession, spanTxn("g", e0, e1))
	for i := 0; i < 4; i++ {
		run(eng.OpenRun, rwTxn(fmt.Sprintf("u%d", i), e1))
	}
}
