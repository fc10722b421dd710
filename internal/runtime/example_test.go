package runtime_test

import (
	"fmt"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/runtime"
)

// ExampleRun executes two conflicting two-phase transactions as real
// goroutines against the sharded lock manager. Both lock in the same
// order, so no deadlock is possible: whichever wins the race to a's
// lock runs first and the other waits, giving a deterministic outcome.
// Run verifies the committed schedule serializable before returning.
func ExampleRun() {
	sys := model.NewSystem(model.NewState("a", "b"),
		model.NewTxn("T1",
			model.LX("a"), model.W("a"), model.LX("b"), model.W("b"),
			model.UX("a"), model.UX("b")),
		model.NewTxn("T2",
			model.LX("a"), model.W("a"), model.LX("b"), model.W("b"),
			model.UX("a"), model.UX("b")),
	)
	res, err := runtime.Run(sys, runtime.Config{
		Policy: policy.TwoPhase{},
		Shards: 2,
	})
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Println("commits:", res.Metrics.Commits)
	fmt.Println("events:", len(res.Schedule))
	fmt.Println("serializable: verified by Run")
	// Output:
	// commits: 2
	// events: 12
	// serializable: verified by Run
}

// ExampleNewSessionEngine drives the long-lived session API: the engine starts
// with no transactions, a client Opens a session by declaring the full
// body, submits the declared steps one at a time and commits. Close
// force-aborts stragglers, verifies the committed schedule serializable
// and returns the final metrics — the batch Run semantics, paced by the
// client instead of the engine.
func ExampleNewSessionEngine() {
	eng := runtime.NewSessionEngine(model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}})
	tx := model.NewTxn("T1", model.LX("a"), model.W("a"), model.UX("a"))
	s, err := eng.OpenSession(tx)
	if err != nil {
		fmt.Println("open failed:", err)
		return
	}
	for _, st := range tx.Steps {
		if err := s.Step(st); err != nil {
			fmt.Println("step failed:", err)
			return
		}
	}
	if err := s.Commit(); err != nil {
		fmt.Println("commit failed:", err)
		return
	}
	res, err := eng.Close()
	if err != nil {
		fmt.Println("close failed:", err)
		return
	}
	fmt.Println("commits:", res.Metrics.Commits)
	fmt.Println("log:", res.Schedule)
	// Output:
	// commits: 1
	// log: T0:(LX a) T0:(W a) T0:(UX a)
}
