package runtime_test

import (
	"fmt"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/runtime"
)

// ExampleNewSessionEngine drives the long-lived session API: the engine starts
// with no transactions, a client Opens a session by declaring the full
// body, submits the declared steps one at a time and commits. Close
// force-aborts stragglers, verifies the committed schedule serializable
// and returns the final metrics.
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
