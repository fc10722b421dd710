package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/chaos"
	"locksafe/internal/model"
	"locksafe/internal/policy"
	txnruntime "locksafe/internal/runtime"
	"locksafe/internal/server"
	"locksafe/internal/workload"
	"locksafe/pkg/client"
)

// E18 is the chaos-corpus experiment: every scenario of the workload
// corpus (internal/workload scenarios.go) crossed with policy and
// partition count, each cell run over TCP through the fault-injection
// proxy (internal/chaos) with connections being killed mid-frame,
// delayed, and stalled past the session lease. The claim under test is
// that the serializability verdict and the engine's accounting survive
// a hostile dynamic workload: every cell must drain cleanly (Shutdown
// verifies the committed schedule) and the server's commit counter must
// agree with the clients' within the unknown-outcome window that lost
// connections create.

// E18DefaultLease is the harness session lease for scenarios that do
// not demand their own: long enough for healthy traffic, short enough
// that the chaos stall (E18StallFor) pushes a session past it.
const E18DefaultLease = 120 * time.Millisecond

// E18StallFor is the one-shot stall of the stall-plan connections; it
// deliberately exceeds E18DefaultLease (and lease-storm's 75ms) so a
// stalled connection's idle sessions are reaped while the client still
// believes them open.
const E18StallFor = 200 * time.Millisecond

// E18Row is one measured cell of the chaos grid.
type E18Row struct {
	Scenario   string
	Policy     string
	Partitions int
	// Chaos summarizes the fault mix the cell's connections drew
	// ("kill+delay+stall" for the standard rotation).
	Chaos   string
	Clients int
	// Commits is the server's count; Confirmed is the clients' (terminal
	// OK responses received). Unknown counts attempts whose connection
	// died mid-flight — the gap the accounting bound allows.
	Commits   int
	Confirmed int
	Unknown   int
	// Aborted counts attempts refused terminally (lease expiry, give-up,
	// drain) — outcomes the server proved did not commit.
	Aborted int
	// Killed is how many connections the proxy cut.
	Killed int
}

// e18PlanFor is the standard chaos rotation, keyed by accept index so a
// cell's fault schedule is as deterministic as TCP timing allows: the
// first connection of each rotation is killed on the request stream
// after a byte budget that grows with the index (so redials make
// progress), the next delays every 128 bytes, the next stalls once past
// the lease, the next is killed on the response stream — the client
// sees a response frame truncated mid-byte while the server saw every
// request — and the 5th is clean. Byte budgets are sized to the binary
// payload format's volume (a whole small transaction is ~50 request
// bytes on the wire), so kills land a handful of transactions into a
// connection's life and stalls land mid-conversation rather than never.
func e18PlanFor(i int) chaos.Plan {
	switch i % 5 {
	case 0:
		return chaos.Plan{KillAfter: 400 + 300*int64(i)}
	case 1:
		return chaos.Plan{DelayEvery: 128, Delay: 200 * time.Microsecond}
	case 2:
		return chaos.Plan{StallAfter: 300, Stall: E18StallFor}
	case 3:
		return chaos.Plan{Direction: chaos.ServerToClient, KillAfter: 500 + 300*int64(i)}
	default:
		return chaos.Plan{}
	}
}

// e18ChaosMix names the rotation for the report tables.
func e18ChaosMix() string {
	parts := make([]string, 0, 5)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		s := e18PlanFor(i).String()
		if !seen[s] {
			seen[s] = true
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "/")
}

// E18ChaosCorpus runs the grid: scenarios (all by default, or the named
// subset) x policies {2PL, unrestricted} x partitions. Every body in
// the corpus is two-phase, so the committed schedule must verify
// serializable under either policy — 2PL enforcing it, unrestricted
// merely permitting it — which is exactly the paper's claim the chaos
// harness tries to break. Each cell asserts, in order: the scenario's
// own invariants on the generated run, a clean drain (Shutdown nil —
// the serializability verdict), and the accounting bound
//
//	confirmed <= server commits <= confirmed + unknown
//
// (a refusal proves non-commitment; a lost connection proves nothing,
// so unknown outcomes may or may not have landed). Chaos cells measure
// survival, not speed.
//
// faults=false runs the same grid through a transparent proxy — the
// fault-free control (lockbench -chaos=false), where unknown and killed
// must stay zero.
func E18ChaosCorpus(seed int64, names []string, partCounts []int, faults bool, cfg workload.ScenarioConfig) ([]E18Row, Report) {
	if len(names) == 0 {
		names = workload.ScenarioNames()
	}
	if len(partCounts) == 0 {
		partCounts = []int{1, 4}
	}
	policies := []policy.Policy{policy.TwoPhase{}, policy.Unrestricted{}}
	var rows []E18Row
	var b strings.Builder
	var failed string
	mix := e18ChaosMix()
	if !faults {
		mix = "clean"
	}
	fmt.Fprintf(&b, "chaos mix per cell: %s (by accept index)\n\n", mix)
	fmt.Fprintf(&b, "%-12s %-12s %-5s %8s %9s %8s %8s %7s\n",
		"scenario", "policy", "parts", "commits", "confirmed", "unknown", "aborted", "killed")
	for _, name := range names {
		sc, ok := workload.ScenarioByName(name)
		if !ok {
			return rows, Report{ID: "E18", Title: "chaos corpus", Failed: fmt.Sprintf("unknown scenario %q", name)}
		}
		for _, pol := range policies {
			for _, pN := range partCounts {
				row, err := e18Cell(seed, sc, pol, pN, faults, cfg)
				if err != "" && failed == "" {
					failed = err
				}
				rows = append(rows, row)
				fmt.Fprintf(&b, "%-12s %-12s %5d %8d %9d %8d %8d %7d\n",
					row.Scenario, row.Policy, row.Partitions, row.Commits, row.Confirmed,
					row.Unknown, row.Aborted, row.Killed)
			}
		}
	}
	fmt.Fprintf(&b, "\nEvery cell drained cleanly: Shutdown verified the committed schedule\n")
	fmt.Fprintf(&b, "serializable under the %s fault mix, and the server's commit\n", mix)
	fmt.Fprintf(&b, "count stayed inside [confirmed, confirmed+unknown] — lost connections\n")
	fmt.Fprintf(&b, "leave outcomes unknown (client.ErrConnLost), never misaccounted.\n")
	return rows, Report{ID: "E18", Title: "chaos corpus: the verdict under a hostile dynamic workload", Text: b.String(), Failed: failed}
}

// e18Cell runs one (scenario, policy, partitions) cell through the
// proxy and applies the cell assertions. The returned error string is
// empty on success.
func e18Cell(seed int64, sc workload.Scenario, pol policy.Policy, partitions int, faults bool, cfg workload.ScenarioConfig) (E18Row, string) {
	run := sc.Gen(rand.New(rand.NewSource(seed)), cfg)
	planFor := e18PlanFor
	mix := e18ChaosMix()
	if !faults {
		planFor = nil
		mix = "clean"
	}
	row := E18Row{
		Scenario:   sc.Name,
		Policy:     pol.Name(),
		Partitions: partitions,
		Chaos:      mix,
		Clients:    len(run.Scripts),
	}
	fail := func(format string, args ...any) (E18Row, string) {
		return row, fmt.Sprintf("e18 %s/%s/p%d: %s", sc.Name, pol.Name(), partitions, fmt.Sprintf(format, args...))
	}
	if err := sc.Check(cfg, run); err != nil {
		return fail("invariants: %v", err)
	}
	lease := sc.Lease
	if lease == 0 {
		lease = E18DefaultLease
	}
	srv := server.New(model.NewState(run.Universe...), txnruntime.Config{
		Policy:     pol,
		Shards:     16,
		Partitions: partitions,
		Backoff:    50 * time.Microsecond,
		MaxRetries: 1000,
		Lease:      lease,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("listen: %v", err)
	}
	go srv.Serve(ln)
	proxy, err := chaos.NewProxy(ln.Addr().String(), planFor)
	if err != nil {
		srv.Shutdown(10 * time.Second)
		return fail("proxy: %v", err)
	}

	var confirmed, unknown, aborted atomic.Int64
	backoff := client.Backoff{Base: 50 * time.Microsecond}
	var wg sync.WaitGroup
	for ci, script := range run.Scripts {
		wg.Add(1)
		go func(ci int, script []workload.ScriptTxn) {
			defer wg.Done()
			conn, derr := client.Dial(proxy.Addr())
			if derr != nil {
				return
			}
			defer func() { conn.Close() }()
			// redial replaces a lost connection; a handful of attempts is
			// plenty since the proxy keeps accepting after kills.
			redial := func() bool {
				conn.Close()
				for attempt := 0; attempt < 8; attempt++ {
					c, derr := client.Dial(proxy.Addr())
					if derr == nil {
						conn = c
						return true
					}
					time.Sleep(time.Millisecond)
				}
				return false
			}
			for ti, st := range script {
				if st.Stall {
					// Opened and parked: the lease reaper or the connection
					// teardown collects it. A lost connection just means the
					// park ended early.
					if _, oerr := conn.Open(st.Txn); errors.Is(oerr, client.ErrConnLost) {
						if !redial() {
							return
						}
					}
					continue
				}
				var rerr error
				if (ci+ti)%2 == 0 {
					rerr = conn.Run(st.Txn)
				} else {
					s, oerr := conn.Open(st.Txn)
					if oerr != nil {
						rerr = oerr
					} else {
						rerr = s.RunPipelined(backoff)
					}
				}
				switch {
				case rerr == nil:
					confirmed.Add(1)
				case errors.Is(rerr, client.ErrConnLost):
					// The wire died mid-flight: the commit may or may not
					// have landed. Count it unknown — resubmitting would
					// risk running the body twice.
					unknown.Add(1)
					if !redial() {
						return
					}
				default:
					// A terminal refusal (lease expired, abandoned, drain):
					// the server proved the attempt did not commit.
					aborted.Add(1)
				}
			}
		}(ci, script)
	}
	wg.Wait()
	row.Killed = proxy.Killed()
	proxy.Close()
	res, serr := srv.Shutdown(10 * time.Second)
	if serr != nil {
		return fail("drain/verdict: %v", serr)
	}
	row.Commits = res.Metrics.Commits
	row.Confirmed = int(confirmed.Load())
	row.Unknown = int(unknown.Load())
	row.Aborted = int(aborted.Load())
	if row.Commits < row.Confirmed || row.Commits > row.Confirmed+row.Unknown {
		return fail("accounting: server committed %d, clients confirmed %d with %d unknown",
			row.Commits, row.Confirmed, row.Unknown)
	}
	if row.Confirmed == 0 && run.Active() > 0 {
		return fail("no transaction survived the chaos plan (%d aborted, %d unknown)", row.Aborted, row.Unknown)
	}
	return row, ""
}
