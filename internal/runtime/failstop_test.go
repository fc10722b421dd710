package runtime

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
)

// errBreach is the failure breachMonitor raises.
var errBreach = errors.New("injected monitor breach")

// stepBreach is a policy whose monitor accepts every Check and rejects
// the Step of any event on ent: an engine failure above the store.
type stepBreach struct{ ent model.Entity }

func (stepBreach) Name() string                             { return "step-breach" }
func (p stepBreach) NewMonitor(*model.System) model.Monitor { return breachMonitor{ent: p.ent} }

type breachMonitor struct {
	model.PermissiveMonitor
	ent model.Entity
}

func (m breachMonitor) Fork() model.Monitor { return m }

func (m breachMonitor) Step(ev model.Ev) error {
	if ev.S.Ent == m.ent {
		return errBreach
	}
	return nil
}

// letters is an initial state holding every entity homedOn draws from.
func letters() model.State {
	var ents []model.Entity
	for c := byte('a'); c <= 'z'; c++ {
		ents = append(ents, model.Entity([]byte{c}))
	}
	return model.NewState(ents...)
}

// homedOn returns k entities homed on partition p of a 2-way split.
func homedOn(p, k int) []model.Entity {
	var ents []model.Entity
	for c := byte('a'); len(ents) < k; c++ {
		if e := model.Entity([]byte{c}); model.PartitionOf(e, 2) == p {
			ents = append(ents, e)
		}
	}
	return ents
}

// wrapPartition0 applies wrap to partition 0's store alone, in an
// engine of one or two partitions.
func wrapPartition0(wrap func(recovery.Persister) recovery.Persister) func(recovery.Persister) recovery.Persister {
	return func(p recovery.Persister) recovery.Persister {
		if dir := p.(*recovery.Store).Dir(); filepath.Base(dir) == partName(1) {
			return p
		}
		return wrap(p)
	}
}

// failArm is one way to fail a durable engine on partition 0: a failed
// barrier, or a monitor that rejects a Step it accepted at Check. A run
// of rwTxn on ent, homed on partition 0, fails an engine configured with
// cfg (plus a DataDir and a partition count) with want.
type failArm struct {
	name  string
	want  error
	ent   model.Entity
	cfg   Config
	armed *atomic.Bool // the barrier arm's failSync, armed by failNow
}

func failArms() []failArm {
	ent := homedOn(0, 2)[1]
	armed := new(atomic.Bool)
	return []failArm{
		{name: "barrier", want: errInjected, ent: ent, armed: armed, cfg: Config{Policy: policy.TwoPhase{}, Fsync: true,
			WrapPersister: wrapPartition0(func(p recovery.Persister) recovery.Persister {
				return failSync{Persister: p, armed: armed}
			})}},
		{name: "monitor-step", want: errBreach, ent: ent, cfg: Config{Policy: stepBreach{ent: ent}, Fsync: true}},
	}
}

// start opens the arm's engine of parts partitions over dir.
func (arm failArm) start(t *testing.T, dir string, parts int) SessionEngine {
	t.Helper()
	cfg := arm.cfg
	cfg.DataDir, cfg.Partitions = dir, parts
	eng, _, err := NewDurableSessionEngine(letters(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// failNow runs the arm's failing body and checks that its commit is
// refused with the arm's failure.
func (arm failArm) failNow(t *testing.T, eng SessionEngine) {
	t.Helper()
	if arm.armed != nil {
		arm.armed.Store(true)
	}
	s, err := eng.OpenRun(rwTxn("fail", arm.ent))
	if err == nil {
		err = s.Run()
	}
	if !errors.Is(err, arm.want) {
		t.Fatalf("the failing run = %v, want %v", err, arm.want)
	}
}

// TestFailedEngineLeavesDiskUnsealed: once the engine has failed —
// below the store (a barrier) or above it (a monitor Step breach) — a
// commit is refused, Close returns the failure and writes nothing to
// the disk, so the restart reads an unclean shutdown and restores only
// the commit acknowledged before the failure, not a refused one.
func TestFailedEngineLeavesDiskUnsealed(t *testing.T) {
	e0 := homedOn(0, 1)[0]
	for _, arm := range failArms() {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			eng := arm.start(t, dir, 1)
			if s, err := eng.OpenSession(rwTxn("acked", e0)); err != nil || s.Run() != nil {
				t.Fatalf("the commit before the failure was refused: %v", err)
			}
			s, err := eng.OpenSession(rwTxn("refused", e0))
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range s.Declared().Steps {
				if err := s.Step(st); err != nil {
					t.Fatal(err)
				}
			}
			arm.failNow(t, eng)
			if err := s.Commit(); !errors.Is(err, arm.want) {
				t.Fatalf("commit after the failure = %v, want %v", err, arm.want)
			}
			if _, err := eng.Close(); !errors.Is(err, arm.want) {
				t.Fatalf("Close = %v, want %v", err, arm.want)
			}
			eng, info, err := NewDurableSessionEngine(letters(), Config{Policy: policy.TwoPhase{}, DataDir: dir, Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			if info.Clean || info.Commits != 1 {
				t.Errorf("restart after the failure: Clean=%v Commits=%d, want Clean=false Commits=1", info.Clean, info.Commits)
			}
			if _, err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailureStopsEveryPartition: a failure on partition 0 stops
// partition 1 too. A session homed there and opened before the failure
// gets the failure at its next Step or Commit; opens and runs homed
// there are refused naming it, and so is a resume.
func TestFailureStopsEveryPartition(t *testing.T) {
	e1s := homedOn(1, 2)
	e1 := e1s[0]
	for _, arm := range failArms() {
		t.Run(arm.name, func(t *testing.T) {
			eng := arm.start(t, t.TempDir(), 2)
			stepper, err := eng.OpenSession(rwTxn("stepper", e1))
			if err != nil {
				t.Fatal(err)
			}
			committer, err := eng.OpenSession(rwTxn("committer", e1s[1]))
			if err != nil {
				t.Fatal(err)
			}
			if err := stepper.Step(model.LX(e1)); err != nil {
				t.Fatal(err)
			}
			for _, st := range committer.Declared().Steps {
				if err := committer.Step(st); err != nil {
					t.Fatal(err)
				}
			}
			if len(stepper.x.span) != 1 || stepper.x.span[0] != eng.(*PartitionedEngine).parts[1] {
				t.Fatal("the sessions are not homed on partition 1")
			}
			arm.failNow(t, eng)
			if err := stepper.Step(model.W(e1)); !errors.Is(err, arm.want) {
				t.Errorf("Step on partition 1 after the failure = %v, want %v", err, arm.want)
			}
			if err := committer.Commit(); !errors.Is(err, arm.want) {
				t.Errorf("Commit on partition 1 after the failure = %v, want %v", err, arm.want)
			}
			if _, err := eng.OpenSession(rwTxn("late", e1)); !errors.Is(err, arm.want) {
				t.Errorf("OpenSession on partition 1 after the failure = %v, want %v", err, arm.want)
			}
			if _, err := eng.OpenRun(rwTxn("late-run", e1)); !errors.Is(err, arm.want) {
				t.Errorf("OpenRun on partition 1 after the failure = %v, want %v", err, arm.want)
			}
			if _, err := eng.Resume(stepper.SID(), stepper.Token()); !errors.Is(err, arm.want) {
				t.Errorf("Resume on partition 1 after the failure = %v, want %v", err, arm.want)
			}
			if _, err := eng.Close(); !errors.Is(err, arm.want) {
				t.Fatalf("Close = %v, want %v", err, arm.want)
			}
		})
	}
}

// failAfter passes every append through and fails every barrier after
// the first n.
type failAfter struct {
	recovery.Persister
	n     int64
	calls *atomic.Int64
}

func (f failAfter) Sync() error {
	if f.calls.Add(1) > f.n {
		return errInjected
	}
	return f.Persister.(syncer).Sync()
}

// TestDurableFailStopStress: four clients commit on both partitions of
// a durable engine while partition 0's barrier fails after n syncs. No
// one deadlocks, a client that has seen the failure is acknowledged
// nothing after it, Close returns the failure, and the restart reads an
// unclean shutdown and restores every acknowledged commit.
func TestDurableFailStopStress(t *testing.T) {
	const clients, runs = 4, 100
	e0s, e1s := homedOn(0, clients), homedOn(1, clients)
	for _, n := range []int64{5, 20, 80, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			calls := new(atomic.Int64)
			eng, _, err := NewDurableSessionEngine(letters(), Config{
				Policy: policy.TwoPhase{}, DataDir: dir, Fsync: true, Partitions: 2,
				WrapPersister: wrapPartition0(func(p recovery.Persister) recovery.Persister {
					return failAfter{Persister: p, n: n, calls: calls}
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			var acked, late atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					open := eng.OpenRun
					if c%2 == 1 {
						open = eng.OpenSession
					}
					failed := false
					for i := 0; i < runs; i++ {
						e := []model.Entity{e0s[c], e1s[c]}[i%2]
						s, err := open(rwTxn(fmt.Sprintf("c%d-%d", c, i), e))
						if err == nil {
							err = s.Run()
						}
						switch {
						case err == nil && failed:
							late.Add(1)
						case err == nil:
							acked.Add(1)
						case errors.Is(err, errInjected):
							failed = true
						default:
							t.Errorf("client %d run %d: %v", c, i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if late.Load() > 0 {
				t.Errorf("%d commits acknowledged to clients that had seen the failure", late.Load())
			}
			if _, err := eng.Close(); !errors.Is(err, errInjected) {
				t.Fatalf("Close = %v, want the injected failure", err)
			}
			eng, info, err := NewDurableSessionEngine(letters(), Config{Policy: policy.TwoPhase{}, DataDir: dir, Fsync: true, Partitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			if info.Clean || int64(info.Commits) < acked.Load() {
				t.Errorf("restart: Clean=%v Commits=%d, want Clean=false and at least the %d acknowledged", info.Clean, info.Commits, acked.Load())
			}
			if _, err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRefusedStartClosesStores: a start the restore refuses closes the
// stores it opened, leaving the process's descriptors as it found them.
func TestRefusedStartClosesStores(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors in")
		}
		return len(ents)
	}
	dir := t.TempDir()
	st, _, err := recovery.Open(dir, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A mirror row in a one-partition history, which the restore refuses.
	if err := st.AppendOpen(recovery.OpenRec{G: 0, Mirror: true, Name: "T", Steps: rwTxn("T", "a").Steps, Token: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before := fds()
	if _, _, err := NewDurableSessionEngine(model.NewState("a"), Config{DataDir: dir}); !errors.Is(err, recovery.ErrCorrupt) {
		t.Fatalf("start over a mirror row in a one-partition history = %v, want ErrCorrupt", err)
	}
	if after := fds(); after != before {
		t.Fatalf("open descriptors went %d → %d over a refused start", before, after)
	}
}
