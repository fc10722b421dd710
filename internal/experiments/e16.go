package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	txnruntime "locksafe/internal/runtime"
	"locksafe/internal/server"
	"locksafe/internal/workload"
	"locksafe/pkg/client"
)

// e16Modes are the transport modes exercised side by side: per-step
// synchronous round trips, client-side pipelining, and stored-procedure
// run (body ships once, the engine drives the loop server-side).
var e16Modes = []string{"step", "pipeline", "run"}

// E16ValidMode reports whether mode names a lockd transport mode.
func E16ValidMode(mode string) bool {
	for _, m := range e16Modes {
		if m == mode {
			return true
		}
	}
	return false
}

// e16Rounds is how many transactions each client runs per cell.
const e16Rounds = 3

// E16Row is one cell of the lockd transport smoke.
type E16Row struct {
	// Workload is "disjoint" (private per-client keys) or "zipf"
	// (hot-key skewed shared keys).
	Workload string
	// Mode is the transport mode: "step", "pipeline" or "run".
	Mode    string
	Clients int
	Commits int
	Aborts  int
}

// E16Transport is the lockd transport-mode smoke: N concurrent clients,
// each on its own TCP connection, each running a sequence of declared
// transactions through pkg/client against a lockd instance — by default
// an in-memory server on loopback, so the full stack (wire framing,
// batch coalescing, per-session workers, session API, striped gate,
// sharded locks) is exercised. Each workload x clients cell runs in
// every requested transport mode (nil modes = all of step, pipeline,
// run) and asserts that every body commits and, in-process, that the
// drain verifies the committed schedule and the server's commit count
// equals the clients'.
//
// With addr non-empty the experiment instead targets a running lockd at
// that address ("network mode", the CI smoke's path). External bodies
// are pure locking traffic (workload.LockOnlySteps) so they run against
// any -init; in-process cells use read/write bodies.
//
// It reports no speed: anything measured in seconds is bench/'s job.
func E16Transport(seed int64, clientCounts []int, modes []string, addr string) ([]E16Row, Report) {
	if len(clientCounts) == 0 {
		clientCounts = []int{4, 16}
	}
	if len(modes) == 0 {
		modes = e16Modes
	}
	var rows []E16Row
	var b strings.Builder
	var failed string

	fmt.Fprintf(&b, "%-9s %-9s %8s %8s %7s\n", "workload", "mode", "clients", "commits", "aborts")
	for _, wl := range []string{"disjoint", "zipf"} {
		for _, cN := range clientCounts {
			// Every mode drives the same declared bodies.
			bodies, universe := workload.ClientBodies(rand.New(rand.NewSource(seed)), wl, cN, 16, e16Rounds, addr != "")
			for _, mode := range modes {
				row := E16Row{Workload: wl, Mode: mode, Clients: cN}
				var err error
				row.Commits, row.Aborts, err = e16Run(bodies, universe, mode, addr)
				if err == nil && row.Commits != cN*e16Rounds {
					err = fmt.Errorf("%d of %d transactions committed", row.Commits, cN*e16Rounds)
				}
				if err != nil && failed == "" {
					failed = fmt.Sprintf("e16 %s %s c=%d: %v", wl, mode, cN, err)
				}
				rows = append(rows, row)
				fmt.Fprintf(&b, "%-9s %-9s %8d %8d %7d\n", row.Workload, row.Mode, row.Clients, row.Commits, row.Aborts)
			}
		}
	}
	fmt.Fprintf(&b, "\nEvery cell: each client's transactions all committed in the given\n")
	fmt.Fprintf(&b, "transport mode (step = one round trip per request, pipeline = open then\n")
	fmt.Fprintf(&b, "steps+commit in one coalesced burst, run = the body ships once and the\n")
	fmt.Fprintf(&b, "engine drives abort/retry server-side). Cells run against an in-memory\n")
	fmt.Fprintf(&b, "server also drained it: the schedule verified serializable and the\n")
	fmt.Fprintf(&b, "server counted exactly the clients' commits.\n")
	return rows, Report{ID: "E16", Title: "lockd transport smoke: N clients over loopback TCP", Text: b.String(), Failed: failed}
}

// e16Run executes one cell: every client on its own connection, all
// released together, each running its transaction sequence to commit in
// the given transport mode. With no external addr an in-memory lockd is
// started for the run and drained afterwards, which verifies the
// committed schedule.
func e16Run(bodies [][]model.Txn, universe []model.Entity, mode, addr string) (commits, aborts int, err error) {
	var srv *server.Server
	target := addr
	if addr == "" {
		srv = server.New(model.NewState(universe...), txnruntime.Config{
			Policy:     policy.TwoPhase{},
			Shards:     16,
			Backoff:    50 * time.Microsecond,
			MaxRetries: 500,
		})
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return 0, 0, lerr
		}
		go srv.Serve(ln)
		target = ln.Addr().String()
	}

	clientsN := len(bodies)
	conns := make([]*client.Client, clientsN)
	for i := range conns {
		c, derr := client.Dial(target)
		if derr != nil {
			return 0, 0, derr
		}
		conns[i] = c
		defer c.Close()
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, clientsN)
	counts := make([]int, clientsN)
	backoff := client.Backoff{Base: 50 * time.Microsecond}
	wg.Add(clientsN)
	for i := range conns {
		go func(i int) {
			defer wg.Done()
			<-start
			for _, tx := range bodies[i] {
				var rerr error
				switch mode {
				case "run":
					rerr = conns[i].Run(tx)
				case "pipeline":
					s, oerr := conns[i].Open(tx)
					if oerr != nil {
						errs[i] = oerr
						return
					}
					rerr = s.RunPipelined(backoff)
				default: // step
					s, oerr := conns[i].Open(tx)
					if oerr != nil {
						errs[i] = oerr
						return
					}
					rerr = s.RunWith(backoff)
				}
				if rerr != nil {
					errs[i] = rerr
					return
				}
				counts[i]++
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return 0, 0, fmt.Errorf("client %d: %w", i, e)
		}
		commits += counts[i]
	}
	if srv != nil {
		res, serr := srv.Shutdown(5 * time.Second)
		if serr != nil {
			return 0, 0, fmt.Errorf("drain: %w", serr)
		}
		aborts = res.Metrics.Aborts()
		if res.Metrics.Commits != commits {
			return 0, 0, fmt.Errorf("server counted %d commits, clients counted %d", res.Metrics.Commits, commits)
		}
	} else {
		st, serr := conns[0].Stats()
		if serr != nil {
			return 0, 0, serr
		}
		aborts = st.DeadlockAborts + st.PolicyAborts + st.ImproperAborts + st.CascadeAborts
	}
	return commits, aborts, nil
}
