package policy_test

// Retirement is sound and costs what it should: a monitor whose inert
// rows are dropped at every opportunity gives the verdicts of one that
// keeps them all, on every admissible schedule of small systems under
// every policy; and Fork and Grow allocate by the rows still in play, not
// by the transactions ever seen.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"locksafe/internal/checker"
	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

// lockstep is the monitor handed to checker.Brute: it drives a
// never-retired monitor and a retired one side by side and fails the test
// where they differ. After every event the retired side's system retires
// the maximal finished prefix and the monitor is grown, then replaced by
// its own fork, so windowed forks are exercised at every step. Each
// branch of the search owns its retired side (Fork rebuilds it from the
// branch's prefix on a fresh System copy): a floor is a property of one
// history.
type lockstep struct {
	t      *testing.T
	p      policy.Policy
	sys    *model.System
	plain  model.Monitor
	rsys   *model.System
	ret    model.Monitor
	prefix model.Schedule
	pos    []int
	// windowed counts, across all branches, the states reached with rows
	// actually dropped — the test is vacuous if there are none.
	windowed *int
}

func newLockstep(t *testing.T, p policy.Policy, sys *model.System, windowed *int) *lockstep {
	rsys := model.NewSystem(sys.Init, sys.Txns...)
	return &lockstep{t: t, p: p, sys: sys, plain: p.NewMonitor(sys),
		rsys: rsys, ret: p.NewMonitor(rsys), pos: make([]int, len(sys.Txns)), windowed: windowed}
}

func rule(err error) string {
	if err == nil {
		return ""
	}
	if v, ok := err.(*policy.Violation); ok {
		return v.Rule
	}
	return err.Error()
}

func (m *lockstep) Check(ev model.Ev) error {
	a, b := m.plain.Check(ev), m.ret.Check(ev)
	if rule(a) != rule(b) {
		m.t.Fatalf("%s after %v: Check(%v) = %v never retired, %v retired (floor %d)", m.p.Name(), m.prefix, ev, a, b, m.rsys.Floor())
	}
	return a
}

func (m *lockstep) Step(ev model.Ev) error {
	a, b := m.plain.Step(ev), m.stepRetired(ev)
	if rule(a) != rule(b) {
		m.t.Fatalf("%s after %v: Step(%v) = %v never retired, %v retired", m.p.Name(), m.prefix, ev, a, b)
	}
	if a == nil {
		m.sameKey()
	}
	return a
}

// stepRetired advances the retired side alone: step, retire the finished
// prefix (the floor a runtime would report), grow, and carry on with a
// fork of the result, which must have the original's key.
func (m *lockstep) stepRetired(ev model.Ev) error {
	if err := m.ret.Step(ev); err != nil {
		return err
	}
	m.prefix = append(m.prefix, ev)
	m.pos[ev.T]++
	floor := 0
	for floor < len(m.pos) && m.pos[floor] == m.sys.Txns[floor].Len() {
		floor++
	}
	m.rsys.Retire(floor)
	m.ret.Grow()
	orig := m.ret
	m.ret = orig.Fork()
	if orig.Key() != m.ret.Key() {
		m.t.Fatalf("%s after %v: fork key %q, original %q", m.p.Name(), m.prefix, m.ret.Key(), orig.Key())
	}
	return nil
}

// sameKey asserts the two keys are equal modulo the retired prefix: the
// retired key says where its window starts — at the first transaction
// that has not finished or finished holding a lock, which is the
// tracker's own conclusion, not the floor's — the positions it omits are
// those of finished transactions, and everything else is identical.
func (m *lockstep) sameKey() {
	inert := 0
	for inert < len(m.pos) && m.pos[inert] == m.sys.Txns[inert].Len() && len(m.sys.Txns[inert].HoldsAt(m.pos[inert])) == 0 {
		inert++
	}
	if _, stateless := m.plain.(model.PermissiveMonitor); stateless {
		inert = 0
	}
	pk, rk := m.plain.Key(), m.ret.Key()
	if inert == 0 {
		if pk != rk {
			m.t.Fatalf("%s after %v: nothing retired, yet key %q differs from %q", m.p.Name(), m.prefix, rk, pk)
		}
		return
	}
	*m.windowed++
	ppos, prest, _ := strings.Cut(pk, "|")
	rpos, rrest, _ := strings.Cut(rk, "|")
	all := strings.Split(ppos, ",")
	for i, p := range all[:inert] {
		if p != strconv.Itoa(m.sys.Txns[i].Len()) {
			m.t.Fatalf("%s after %v: retired T%d at position %s, not finished", m.p.Name(), m.prefix, i, p)
		}
	}
	if want := fmt.Sprintf("@%d:%s", inert, strings.Join(all[inert:], ",")); rpos != want || rrest != prest {
		m.t.Fatalf("%s after %v: key %q retired, want %q|%q (never retired: %q)", m.p.Name(), m.prefix, rk, want, prest, pk)
	}
}

func (m *lockstep) Fork() model.Monitor {
	c := newLockstep(m.t, m.p, m.sys, m.windowed)
	c.plain = m.plain.Fork()
	for _, ev := range m.prefix {
		if err := c.stepRetired(ev); err != nil {
			m.t.Fatalf("%s: prefix %v does not replay on a fresh retired monitor: %v", m.p.Name(), m.prefix, err)
		}
	}
	return c
}

func (m *lockstep) Grow()                                 { m.plain.Grow(); m.ret.Grow() }
func (m *lockstep) Key() string                           { return m.plain.Key() }
func (m *lockstep) Footprint(ev model.Ev) model.Footprint { return m.plain.Footprint(ev) }

// retireFixtures are small systems of every flavour the theorem tests
// draw, so that each policy sees both conformant bodies and bodies it
// vetoes part-way.
func retireFixtures() map[string]*model.System {
	out := map[string]*model.System{
		"static-unsafe": workload.StaticUnsafeSystem(),
		"two-phase":     workload.TwoPhaseSystem(),
		"tree": model.NewSystem(model.NewState("r", "a", "b", "c", "r->a", "a->b", "r->c"),
			model.NewTxn("T1", model.LX("r"), model.W("r"), model.LX("a"), model.UX("r"), model.W("a"), model.UX("a")),
			model.NewTxn("T2", model.LX("a"), model.LX("b"), model.W("b"), model.UX("a"), model.UX("b")),
			model.NewTxn("T3", model.LX("r"), model.LX("c"), model.UX("r"), model.W("c"), model.UX("c"), model.LX("b"), model.UX("b"))),
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
		out[fmt.Sprint("2pl-", seed)] = workload.TwoPhaseSystemRandom(rng(), workload.DefaultPolicyConfig())
		out[fmt.Sprint("altruistic-", seed)] = workload.AltruisticSystem(rng(), workload.DefaultPolicyConfig())
		out[fmt.Sprint("dtr-", seed)] = workload.DTRSystem(rng(), workload.DefaultPolicyConfig())
		out[fmt.Sprint("ddag-", seed)], _ = workload.DDAGSystem(rng(), workload.DefaultDDAGConfig())
		out[fmt.Sprint("ddagsx-", seed)], _ = workload.DDAGSXSystem(rng(), workload.DefaultDDAGConfig(), 0.5)
	}
	return out
}

// TestRetiredEquivalentExhaustive walks, per policy and fixture, every
// admissible schedule prefix the brute enumerator reaches, with the
// lockstep monitor asserting identical Check verdicts for every candidate
// next event, identical Step verdicts, and identical keys modulo the
// retired prefix.
func TestRetiredEquivalentExhaustive(t *testing.T) {
	for _, p := range policy.All() {
		windowed := 0
		for name, sys := range retireFixtures() {
			ls := newLockstep(t, p, sys, &windowed)
			if _, err := checker.Brute(sys, &checker.Options{Monitor: ls, MaxStates: 20_000}); err != nil && err != checker.ErrBudget {
				t.Fatalf("%s on %s: %v", p.Name(), name, err)
			}
		}
		if _, stateless := p.NewMonitor(model.NewSystem(nil)).(model.PermissiveMonitor); !stateless && windowed == 0 {
			t.Errorf("%s: no reached state had a retired row; the comparison was vacuous", p.Name())
		}
		t.Logf("%s: %d states compared with rows retired", p.Name(), windowed)
	}
}

// TestRetiredEventIsVetoedByName: an event of a transaction whose row was
// dropped is refused with the "retired" rule, by every policy that keeps
// rows, and the refusal leaves the monitor unchanged.
func TestRetiredEventIsVetoedByName(t *testing.T) {
	for _, p := range policy.All() {
		sys := model.NewSystem(model.NewState("a"),
			model.NewTxn("T1", model.LX("a"), model.W("a"), model.UX("a")),
			model.NewTxn("T2", model.LX("a"), model.W("a"), model.UX("a")))
		mon := p.NewMonitor(sys)
		if _, stateless := mon.(model.PermissiveMonitor); stateless {
			continue
		}
		for _, st := range sys.Txns[0].Steps {
			if err := mon.Step(model.Ev{T: 0, S: st}); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
		sys.Retire(1)
		mon.Grow()
		key := mon.Key()
		err := mon.Step(model.Ev{T: 0, S: model.LX("a")})
		if rule(err) != "retired" || !strings.Contains(err.Error(), "T1") {
			t.Fatalf("%s: event of a retired transaction: %v, want a \"retired\" veto naming T1", p.Name(), err)
		}
		if mon.Key() != key || !strings.HasPrefix(key, "@1:") {
			t.Fatalf("%s: key %q after the veto, %q before; want unchanged and starting @1:", p.Name(), mon.Key(), key)
		}
	}
}

// TestTrackerKeepsNonInertRows: the floor is the caller's claim; a row
// that still holds a lock (or is mid-flight) stays, and so does
// everything above it.
func TestTrackerKeepsNonInertRows(t *testing.T) {
	sys := model.NewSystem(model.NewState("a", "b"),
		model.NewTxn("T1", model.LX("a"), model.UX("a")),
		model.NewTxn("T2", model.LX("b")), // finishes holding b
		model.NewTxn("T3", model.LX("a"), model.UX("a")))
	mon := policy.TwoPhase{}.NewMonitor(sys)
	for _, ev := range model.SerialSystem(sys) {
		if err := mon.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	sys.Retire(3)
	mon.Grow()
	if got, want := mon.Key(), "@1:1,2"; got != want {
		t.Fatalf("key %q, want %q: T2 holds a lock and must stop the floor", got, want)
	}
}

// retireMany returns a monitor over a system in which n transactions
// have run serially and been retired, with two more in flight.
func retireMany(t *testing.T, p policy.Policy, init model.State, body func(i int) model.Txn, n int) (*model.System, model.Monitor) {
	t.Helper()
	sys := model.NewSystem(init)
	mon := p.NewMonitor(sys)
	run := func(steps int) {
		tid := sys.Add(body(len(sys.Txns)))
		mon.Grow()
		for _, st := range sys.Txns[tid].Steps[:steps] {
			if err := mon.Step(model.Ev{T: tid, S: st}); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
	}
	for i := 0; i < n; i++ {
		run(body(i).Len())
		sys.Retire(len(sys.Txns))
		mon.Grow()
	}
	run(2)
	run(1)
	return sys, mon
}

// TestForkAndGrowAllocationsAreFlat: what Fork and Grow allocate is the
// same after 100 and after 20,000 retired transactions — flat by count,
// no stopwatch. At the parent commit both grew linearly.
func TestForkAndGrowAllocationsAreFlat(t *testing.T) {
	type fixture struct {
		p    policy.Policy
		init model.State
		body func(i int) model.Txn
	}
	private := func(i int) model.Txn {
		a, b := model.Entity(fmt.Sprint("a", i%7)), model.Entity(fmt.Sprint("b", i%7))
		return model.NewTxn(strconv.Itoa(i), model.LX(a), model.LX(b), model.W(a), model.UX(a), model.UX(b))
	}
	early := func(i int) model.Txn { // non-two-phase: releases a before locking b
		a, b := model.Entity(fmt.Sprint("a", i%7)), model.Entity(fmt.Sprint("b", i%7))
		return model.NewTxn(strconv.Itoa(i), model.LX(a), model.W(a), model.UX(a), model.LX(b), model.UX(b))
	}
	walk := func(i int) model.Txn {
		return model.NewTxn(strconv.Itoa(i), model.LX("r"), model.LX("a"), model.UX("r"), model.W("a"), model.UX("a"))
	}
	var ents []model.Entity
	for i := 0; i < 7; i++ {
		ents = append(ents, model.Entity(fmt.Sprint("a", i)), model.Entity(fmt.Sprint("b", i)))
	}
	for _, f := range []fixture{
		{policy.TwoPhase{}, model.NewState(ents...), private},
		{policy.Altruistic{}, model.NewState(ents...), early},
		{policy.DDAG{}, model.NewState("r", "a", "r->a"), walk},
	} {
		measure := func(n int) (fork, grow float64) {
			sys, mon := retireMany(t, f.p, f.init, f.body, n)
			fork = testing.AllocsPerRun(50, func() { mon.Fork() })
			// One open and one retirement per Grow, as the runtime does it.
			grow = testing.AllocsPerRun(50, func() {
				sys.Add(f.body(len(sys.Txns)))
				mon.Grow()
			})
			return fork, grow
		}
		fork100, grow100 := measure(100)
		fork20k, grow20k := measure(20_000)
		// Amortised appends reallocate now and then; allow one allocation
		// of slack per call on Grow, none on Fork.
		if fork20k != fork100 {
			t.Errorf("%s: Fork allocates %.0f after 20,000 retired transactions, %.0f after 100", f.p.Name(), fork20k, fork100)
		}
		if grow20k > grow100+1 {
			t.Errorf("%s: Grow allocates %.1f after 20,000 retired transactions, %.1f after 100", f.p.Name(), grow20k, grow100)
		}
	}
}
