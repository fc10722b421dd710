// Package workload generates transaction systems and schedules for tests,
// experiments and benchmarks: random well-formed locked systems (by forward
// simulation, so a witness legal+proper complete schedule always exists),
// policy-conformant workloads for the DDAG, altruistic and DTR policies,
// and the per-client network-mode bodies (disjoint, Zipf hot-key and
// pure-locking shapes in clients.go) that the E16 lockd experiment,
// `lockbench -net` and the bench module drive through sessions and lockd.
//
// All generators are deterministic given the supplied *rand.Rand.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"locksafe/internal/model"
)

// Config controls Random.
type Config struct {
	// Txns is the number of transactions to generate.
	Txns int
	// Steps is the total number of non-unlock actions to attempt across
	// all transactions (final unlocks are added on top).
	Steps int
	// Entities is the size of the entity universe ("e0".."eN-1").
	Entities int
	// InitPresent is how many universe entities exist initially.
	InitPresent int
	// PShared is the probability that a generated lock is shared.
	PShared float64
	// PUnlock is the probability of releasing a held lock instead of
	// acquiring a new one or operating; larger values yield more
	// non-two-phase transactions and hence more unsafe systems.
	PUnlock float64
	// PData is the probability of performing a data operation on a held
	// entity rather than (un)locking.
	PData float64
	// PStructural is the probability that a chosen data operation is an
	// INSERT or DELETE rather than READ/WRITE.
	PStructural float64
	// Skew is the Zipf exponent of the hot-key distribution over the
	// entity universe: when > 1, new lock targets are drawn Zipf(Skew)
	// by entity rank ("e0" hottest), concentrating contention on a few
	// hot keys.
	// Values ≤ 1 (including the zero value) select the uniform pick.
	Skew float64
}

// DefaultConfig returns a small, contention-heavy configuration suitable
// for exhaustive checking.
func DefaultConfig() Config {
	return Config{
		Txns:        3,
		Steps:       12,
		Entities:    4,
		InitPresent: 2,
		PShared:     0.3,
		PUnlock:     0.35,
		PData:       0.45,
		PStructural: 0.35,
	}
}

// Random generates a well-formed locked transaction system together with
// one complete legal and proper schedule of all its transactions. The
// schedule is produced by forward simulation, so it is a certificate that
// the system is not vacuously safe (at least one complete legal proper
// schedule exists).
//
// Every generated transaction locks each entity at most once and every
// data operation is covered by an appropriate lock, matching the paper's
// standing assumptions.
func Random(rng *rand.Rand, cfg Config) (*model.System, model.Schedule) {
	universe := make([]model.Entity, cfg.Entities)
	for i := range universe {
		universe[i] = model.Entity(fmt.Sprintf("e%d", i))
	}
	pick := uniformPicker(rng, len(universe))
	if cfg.Skew > 1 {
		pick = zipfPicker(rng, cfg.Skew, len(universe))
	}
	init := model.NewState()
	for i := 0; i < cfg.InitPresent && i < len(universe); i++ {
		init[universe[i]] = struct{}{}
	}

	type txnState struct {
		steps      []model.Step
		held       map[model.Entity]model.Mode
		lockedEver map[model.Entity]bool
	}
	txns := make([]*txnState, cfg.Txns)
	for i := range txns {
		txns[i] = &txnState{
			held:       make(map[model.Entity]model.Mode),
			lockedEver: make(map[model.Entity]bool),
		}
	}

	state := init.Clone()
	holders := make(map[model.Entity]map[int]model.Mode)
	hold := func(e model.Entity) map[int]model.Mode {
		h := holders[e]
		if h == nil {
			h = make(map[int]model.Mode)
			holders[e] = h
		}
		return h
	}
	canLock := func(t int, e model.Entity, m model.Mode) bool {
		for who, hm := range holders[e] {
			if who != t && hm.Conflicts(m) {
				return false
			}
		}
		return true
	}

	var sched model.Schedule
	emit := func(t int, st model.Step) {
		txns[t].steps = append(txns[t].steps, st)
		sched = append(sched, model.Ev{T: model.TID(t), S: st})
		switch {
		case st.Op.IsLock():
			hold(st.Ent)[t] = st.Op.LockMode()
			txns[t].held[st.Ent] = st.Op.LockMode()
			txns[t].lockedEver[st.Ent] = true
		case st.Op.IsUnlock():
			delete(hold(st.Ent), t)
			delete(txns[t].held, st.Ent)
		default:
			state.Apply(st)
		}
	}

	heldEntities := func(t int) []model.Entity {
		out := make([]model.Entity, 0, len(txns[t].held))
		for e := range txns[t].held {
			out = append(out, e)
		}
		// Deterministic order for reproducibility.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}

	for n := 0; n < cfg.Steps; n++ {
		t := rng.Intn(cfg.Txns)
		ts := txns[t]
		r := rng.Float64()
		switch {
		case r < cfg.PUnlock && len(ts.held) > 0:
			es := heldEntities(t)
			e := es[rng.Intn(len(es))]
			emit(t, model.Step{Op: model.UnlockOp(ts.held[e]), Ent: e})
		case r < cfg.PUnlock+cfg.PData && len(ts.held) > 0:
			es := heldEntities(t)
			e := es[rng.Intn(len(es))]
			mode := ts.held[e]
			present := state.Has(e)
			var op model.Op
			switch {
			case mode == model.Shared:
				if !present {
					continue // only a READ would be possible, and it is undefined
				}
				op = model.Read
			case rng.Float64() < cfg.PStructural:
				if present {
					op = model.Delete
				} else {
					op = model.Insert
				}
			case present:
				if rng.Intn(2) == 0 {
					op = model.Read
				} else {
					op = model.Write
				}
			default:
				op = model.Insert
			}
			if op != model.Insert && !present {
				continue
			}
			if op == model.Insert && present {
				continue
			}
			emit(t, model.Step{Op: op, Ent: e})
		default:
			// Acquire a new lock on a random never-locked entity.
			mode := model.Exclusive
			if rng.Float64() < cfg.PShared {
				mode = model.Shared
			}
			// Try a few candidates.
			for attempt := 0; attempt < 4; attempt++ {
				e := universe[pick()]
				if ts.lockedEver[e] || !canLock(t, e, mode) {
					continue
				}
				emit(t, model.Step{Op: model.LockOp(mode), Ent: e})
				break
			}
		}
	}

	// Release every held lock so the schedule is complete and clean.
	for t := range txns {
		for _, e := range heldEntities(t) {
			emit(t, model.Step{Op: model.UnlockOp(txns[t].held[e]), Ent: e})
		}
	}

	sysTxns := make([]model.Txn, cfg.Txns)
	for i, ts := range txns {
		sysTxns[i] = model.Txn{Name: fmt.Sprintf("T%d", i+1), Steps: ts.steps}
	}
	return model.NewSystem(init, sysTxns...), sched
}

// uniformPicker returns a uniform index picker over [0, n).
func uniformPicker(rng *rand.Rand, n int) func() int {
	return func() int { return rng.Intn(n) }
}

// zipfPicker returns a Zipf(s) index picker over [0, n): index 0 is the
// hottest rank. The degenerate corners are pinned rather than left to
// rand.NewZipf (which returns nil for them): s <= 1 falls back to the
// uniform pick (the distribution is not normalizable there, and the
// Config.Skew contract already documents <= 1 as "uniform"), and n <= 1
// always picks index 0. TestZipfEdgeCases pins all three.
func zipfPicker(rng *rand.Rand, s float64, n int) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	if s <= 1 {
		return uniformPicker(rng, n)
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// ZipfSubset draws k distinct entities from pool by Zipf(s) rank —
// pool[0] hottest — so independent draws across transactions collide on
// the hot head of the pool. It is the contended-workload generator of
// the zipf client bodies (ZipfTxns) and the scenario corpus. The result
// is in pool order (ascending rank), which doubles as a deadlock-free
// lock order. Edges are total rather than preconditions: k >= len(pool)
// returns the whole pool (in order), k <= 0 returns nil, and s <= 1
// draws uniformly (zipfPicker's fallback).
func ZipfSubset(rng *rand.Rand, pool []model.Entity, k int, s float64) []model.Entity {
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	if k >= len(pool) {
		// Every entity is chosen; skip the draw loop (a skewed coupon
		// collection over the cold tail would take unboundedly many
		// draws to land the last ranks).
		return append([]model.Entity(nil), pool...)
	}
	pick := zipfPicker(rng, s, len(pool))
	chosen := make(map[int]bool, k)
	for len(chosen) < k && len(chosen) < len(pool) {
		chosen[pick()] = true
	}
	idxs := make([]int, 0, len(chosen))
	for i := range chosen {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]model.Entity, len(idxs))
	for j, i := range idxs {
		out[j] = pool[i]
	}
	return out
}

// RandomSchedule produces a random complete legal and proper schedule of
// sys by repeatedly executing a random enabled step, or ok=false if the
// randomized walk gets stuck (some next step is forever disabled).
func RandomSchedule(rng *rand.Rand, sys *model.System) (model.Schedule, bool) {
	r := model.NewReplay(sys)
	var sched model.Schedule
	total := 0
	for _, t := range sys.Txns {
		total += t.Len()
	}
	for len(sched) < total {
		// Collect enabled transitions.
		var enabled []model.Ev
		for i := range sys.Txns {
			st, ok := r.NextStep(model.TID(i))
			if !ok {
				continue
			}
			ev := model.Ev{T: model.TID(i), S: st}
			if r.Check(ev) == nil {
				enabled = append(enabled, ev)
			}
		}
		if len(enabled) == 0 {
			return nil, false
		}
		ev := enabled[rng.Intn(len(enabled))]
		if err := r.Do(ev); err != nil {
			return nil, false
		}
		sched = append(sched, ev)
	}
	return sched, true
}
