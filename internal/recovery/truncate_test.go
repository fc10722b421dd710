package recovery_test

import (
	"testing"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
)

// feed appends T1's and then T2's full bodies (three events each) into a
// fresh core checkpointing after every event.
func feedTwoTxns(t *testing.T) *recovery.Core {
	t.Helper()
	sys := model.NewSystem(model.NewState(),
		model.NewTxn("T1", model.LX("x"), model.I("x"), model.UX("x")),
		model.NewTxn("T2", model.LX("y"), model.I("y"), model.UX("y")),
	)
	c := recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 1)
	for _, ev := range []model.Ev{
		{T: 0, S: model.LX("x")},
		{T: 0, S: model.I("x")},
		{T: 0, S: model.UX("x")},
		{T: 1, S: model.LX("y")},
		{T: 1, S: model.I("y")},
		{T: 1, S: model.UX("y")},
	} {
		if err := c.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestTruncateDiscardsSettledPrefix pins the clean-separation rule: with
// T1 settled and T2 not, the highest checkpoint with every below-owner
// settled and wholly below is the T1/T2 boundary; the prefix is
// discarded, indices and checkpoints are rebased, tags keep their
// absolute values (the partitioned merge depends on that), and the core
// remains fully operational — appends and compactions included.
func TestTruncateDiscardsSettledPrefix(t *testing.T) {
	c := feedTwoTxns(t)
	n := c.Truncate(func(tn int) bool { return tn == 0 })
	if n != 3 {
		t.Fatalf("Truncate discarded %d events, want 3", n)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d after truncation, want 3", c.Len())
	}
	if got := c.Stats().Truncated; got != 3 {
		t.Fatalf("Stats().Truncated = %d, want 3", got)
	}
	for i, tag := range c.Tags() {
		if want := uint64(3 + i); tag != want {
			t.Fatalf("tag[%d] = %d after truncation, want %d (absolute tags must survive)", i, tag, want)
		}
	}
	for _, ev := range c.Events() {
		if ev.T != 1 {
			t.Fatalf("retained event %v does not belong to T2", ev)
		}
	}
	if !c.State().Has("x") || !c.State().Has("y") {
		t.Fatalf("state %v lost effects of the truncated prefix", c.State())
	}
	// A second truncation has nothing settled below any checkpoint left.
	if n := c.Truncate(func(tn int) bool { return tn == 0 }); n != 0 {
		t.Fatalf("second Truncate discarded %d events, want 0", n)
	}
	// Compacting the retained transaction still works against the rebased
	// checkpoints and must empty the retained log.
	if ok, casc := c.Compact(map[int]bool{1: true}); !ok {
		t.Fatalf("Compact after truncation reported cascade T%d", casc+1)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after compacting the only retained txn, want 0", c.Len())
	}
	if c.State().Has("y") || !c.State().Has("x") {
		t.Fatalf("state %v after compaction: want x (truncated, immutable) and no y", c.State())
	}
}

// TestTruncateRefusesUnsettledPrefix: an active below-checkpoint owner
// blocks every candidate boundary.
func TestTruncateRefusesUnsettledPrefix(t *testing.T) {
	c := feedTwoTxns(t)
	if n := c.Truncate(func(int) bool { return false }); n != 0 {
		t.Fatalf("Truncate discarded %d events with nothing settled, want 0", n)
	}
	if c.Len() != 6 {
		t.Fatalf("Len = %d, want 6 untouched", c.Len())
	}
}

// TestTruncateRefusesStraddlers: a transaction with events on both sides
// of a boundary blocks it even when settled, so an interleaved history
// truncates only below the straddler's first event.
func TestTruncateRefusesStraddlers(t *testing.T) {
	sys := model.NewSystem(model.NewState(),
		model.NewTxn("T1", model.LX("x"), model.UX("x")),
		model.NewTxn("T2", model.LX("y"), model.UX("y")),
		model.NewTxn("T3", model.LX("z"), model.UX("z")),
	)
	c := recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 1)
	for _, ev := range []model.Ev{
		{T: 0, S: model.LX("x")}, // T1 straddles every boundary up to its unlock
		{T: 1, S: model.LX("y")},
		{T: 1, S: model.UX("y")},
		{T: 2, S: model.LX("z")}, // T3 (never settled) opens before T1 ends
		{T: 0, S: model.UX("x")},
		{T: 2, S: model.UX("z")},
	} {
		if err := c.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	// T1 and T2 are settled, T3 is not: the high boundaries are blocked
	// by the unsettled T3, every lower one by a straddling T1 or T2 —
	// even though both are settled, their events sit on both sides.
	if n := c.Truncate(func(tn int) bool { return tn != 2 }); n != 0 {
		t.Fatalf("Truncate discarded %d events across a straddler, want 0", n)
	}
}

// TestTruncateRaisesFloorAndRestoresInterval: one long straddler pins
// every boundary while 200 one-event transactions run past it, which
// thins the checkpoints twice (interval 1 → 4); once the straddler
// settles, the next truncation discards the lot, reports a floor above
// everything settled — the core no longer indexes those transactions, and
// naming one as a victim is a no-op — and brings the interval back to the
// configured one instead of snapshotting four times too rarely for the
// rest of the core's life.
func TestTruncateRaisesFloorAndRestoresInterval(t *testing.T) {
	const short = 200
	sys := model.NewSystem(model.NewState("a", "s"))
	sys.Add(model.NewTxn("straddler", model.LX("s"), model.UX("s")))
	for i := 0; i < short; i++ {
		sys.Add(model.NewTxn("w", model.W("a")))
	}
	c := recovery.New(len(sys.Txns), sys.Init, policy.Unrestricted{}.NewMonitor(sys), 1)
	app := func(tn int, st model.Step) {
		t.Helper()
		if err := c.Append(model.Ev{T: model.TID(tn), S: st}); err != nil {
			t.Fatal(err)
		}
	}
	// cadence appends eight events of fresh transactions and reports how
	// many checkpoints that took.
	cadence := func() int {
		before := c.Checkpoints()
		for i := 0; i < 8; i++ {
			tn := sys.Add(model.NewTxn("w", model.W("a")))
			c.Grow(len(sys.Txns))
			app(int(tn), model.W("a"))
		}
		return c.Checkpoints() - before
	}
	allSettled := func(int) bool { return true }

	app(0, model.LX("s"))
	for i := 1; i <= short; i++ {
		app(i, model.W("a"))
	}
	if n := c.Truncate(func(tn int) bool { return tn != 0 }); n != 0 {
		t.Fatalf("Truncate discarded %d events below an open straddler, want 0", n)
	}
	if c.Floor() != 0 {
		t.Fatalf("Floor = %d with the first transaction unsettled, want 0", c.Floor())
	}
	if got := cadence(); got != 2 {
		t.Fatalf("%d checkpoints in 8 events after two thinnings, want 2 (interval 4)", got)
	}
	app(0, model.UX("s"))
	cadence() // a boundary above the straddler's last event
	if n := c.Truncate(allSettled); n == 0 {
		t.Fatal("Truncate discarded nothing although everything has settled")
	}
	if got, want := c.Floor(), len(sys.Txns)-c.Len(); got < want || got < short {
		t.Fatalf("Floor = %d, want at least %d: every transaction without a retained event is settled", got, want)
	}
	if got := cadence(); got != 8 {
		t.Fatalf("%d checkpoints in 8 events after the truncation, want 8: the interval must return to the configured 1", got)
	}
	before := c.Len()
	if ok, _ := c.Compact(map[int]bool{0: true, 17: true}); !ok || c.Len() != before {
		t.Fatalf("compacting transactions below the floor must be a no-op: ok=%v, log %d -> %d", ok, before, c.Len())
	}
}
