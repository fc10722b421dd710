package policy_test

import (
	"math/rand"
	"reflect"
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/workload"
)

// assertFootprintSound walks pol's monitor over sys through sched and
// checks the Footprint contract at every position:
//
//   - purity: Footprint never mutates the monitor, returns the same
//     declaration when asked twice, and returns the declaration of a
//     monitor over an empty system — the event and the policy's static
//     configuration decide it, which is what lets an engine keep one
//     footprint monitor that never grows;
//   - coverage: a non-global footprint names the event's own transaction;
//   - soundness (the property the striped gate relies on): if the
//     candidate next events of two transactions both pass Check and
//     their footprints do not overlap, their Steps commute — applying
//     them in either order yields the same monitor state (via Key), and
//     stepping one does not change the other's verdict.
func assertFootprintSound(t *testing.T, sys *model.System, pol policy.Policy, sched model.Schedule) {
	t.Helper()
	mon := pol.NewMonitor(sys)
	empty := pol.NewMonitor(model.NewSystem(sys.Init.Clone()))
	pos := make([]int, len(sys.Txns))
	next := func(ti int) (model.Ev, bool) {
		if pos[ti] >= sys.Txns[ti].Len() {
			return model.Ev{}, false
		}
		return model.Ev{T: model.TID(ti), S: sys.Txns[ti].Steps[pos[ti]]}, true
	}
	for i, ev := range sched {
		for ti := range sys.Txns {
			cand, ok := next(ti)
			if !ok {
				continue
			}
			before := mon.Key()
			fp := mon.Footprint(cand)
			if mon.Key() != before {
				t.Fatalf("event %d: Footprint(%s) mutated the monitor", i, cand)
			}
			fp2 := mon.Footprint(cand)
			if fp.Global != fp2.Global || fp.HasT != fp2.HasT || fp.T != fp2.T || fp.Ent != fp2.Ent {
				t.Fatalf("event %d: Footprint(%s) not deterministic: %+v vs %+v", i, cand, fp, fp2)
			}
			if efp := empty.Footprint(cand); !reflect.DeepEqual(fp, efp) {
				t.Fatalf("event %d: Footprint(%s) depends on the system or the monitor's state: %+v, over an empty system %+v", i, cand, fp, efp)
			}
			if !fp.Global && (!fp.HasT || fp.T != cand.T) {
				t.Fatalf("event %d: footprint %+v does not cover its own transaction %s", i, fp, cand)
			}
		}
		// Commutativity of footprint-disjoint admissible pairs.
		for a := range sys.Txns {
			evA, okA := next(a)
			if !okA || mon.Check(evA) != nil {
				continue
			}
			fpA := mon.Footprint(evA)
			for b := a + 1; b < len(sys.Txns); b++ {
				evB, okB := next(b)
				if !okB || mon.Check(evB) != nil {
					continue
				}
				if fpA.Overlaps(mon.Footprint(evB)) {
					continue
				}
				ab := mon.Fork()
				if err := ab.Step(evA); err != nil {
					t.Fatalf("event %d: Check-passed %s rejected: %v", i, evA, err)
				}
				if err := ab.Check(evB); err != nil {
					t.Fatalf("event %d: footprint-disjoint %s changed %s's verdict: %v", i, evA, evB, err)
				}
				if err := ab.Step(evB); err != nil {
					t.Fatalf("event %d: %s after %s: %v", i, evB, evA, err)
				}
				ba := mon.Fork()
				if err := ba.Step(evB); err != nil {
					t.Fatalf("event %d: %s: %v", i, evB, err)
				}
				if err := ba.Step(evA); err != nil {
					t.Fatalf("event %d: footprint-disjoint %s vetoed after %s: %v", i, evA, evB, err)
				}
				if ab.Key() != ba.Key() {
					t.Fatalf("event %d: footprint-disjoint Steps do not commute:\n%s then %s -> %q\n%s then %s -> %q",
						i, evA, evB, ab.Key(), evB, evA, ba.Key())
				}
			}
		}
		if err := mon.Step(ev); err != nil {
			t.Fatalf("event %d: schedule event %s rejected: %v", i, ev, err)
		}
		pos[int(ev.T)]++
	}
}

// TestFootprintSoundness exercises the footprint declarations on each
// policy's reference workload — the same fixtures the Check/Step
// agreement test uses.
func TestFootprintSoundness(t *testing.T) {
	t.Run("2PL", func(t *testing.T) {
		sys := workload.TwoPhaseSystemRandom(rand.New(rand.NewSource(7)), workload.DefaultPolicyConfig())
		assertFootprintSound(t, sys, policy.TwoPhase{}, model.SerialSystem(sys))
	})
	t.Run("DDAG", func(t *testing.T) {
		sc := workload.Figure3()
		assertFootprintSound(t, sc.SysGranted, policy.DDAG{}, sc.Granted)
	})
	t.Run("DDAG-SX", func(t *testing.T) {
		sys := workload.DDAGSXCounterexample()
		assertFootprintSound(t, sys, policy.DDAGSX{}, model.SerialSystem(sys))
	})
	t.Run("altruistic", func(t *testing.T) {
		sc := workload.Figure4()
		assertFootprintSound(t, sc.Sys, policy.Altruistic{}, sc.Events)
	})
	t.Run("DTR", func(t *testing.T) {
		sc := workload.Figure5()
		assertFootprintSound(t, sc.Sys, policy.DTR{}, sc.Events)
	})
	t.Run("tree", func(t *testing.T) {
		init := model.NewState("r", "a", "b", "r->a", "r->b")
		sys := model.NewSystem(init,
			model.NewTxn("T1", model.LX("r"), model.R("r"), model.LX("a"), model.W("a"), model.UX("a"), model.UX("r")),
			model.NewTxn("T2", model.LX("b"), model.W("b"), model.UX("b")))
		assertFootprintSound(t, sys, policy.Tree{}, model.SerialSystem(sys))
	})
	t.Run("random-2PL", func(t *testing.T) {
		// Random conformant two-phase workloads: lots of
		// footprint-disjoint pairs, so the commutativity arm gets real
		// coverage beyond the curated figures.
		for seed := int64(0); seed < 10; seed++ {
			sys := workload.TwoPhaseSystemRandom(rand.New(rand.NewSource(seed)), workload.DefaultPolicyConfig())
			assertFootprintSound(t, sys, policy.TwoPhase{}, model.SerialSystem(sys))
		}
	})
}
