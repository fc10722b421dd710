// Command lockd serves the session runtime over TCP: a long-lived
// network lock service enforcing one of the paper's locking policies
// over the footprint-striped admission gate, with session leases,
// cascade recovery and graceful drain.
//
// Usage:
//
//	lockd [-addr HOST:PORT] [-policy NAME] [-init "a,b,A->B"]
//	      [-partitions N] [-stripes N] [-shards N]
//	      [-mpl N] [-checkpoint-every N] [-truncate-log=false]
//	      [-data-dir DIR] [-fsync] [-lease DUR] [-max-retries N]
//	      [-backoff DUR] [-drain-timeout DUR] [-pprof HOST:PORT]
//
// -data-dir makes lockd durable: every partition appends its committed
// schedule, transaction declarations and statuses to a write-ahead log
// (with periodic checkpoint snapshots) under the directory, and a
// restart — clean or crashed — recovers the committed schedule,
// re-verifies its serializability, and restores in-flight sessions
// parked for client resume within their leases (a run-mode transaction
// the crash interrupted is abandoned: its client holds no token).
// -fsync additionally syncs every record a reply waits on — a session's
// open, a commit or abandon status — with the events, compactions and
// run opens buffered before it written in the same record, making
// acknowledged commits survive machine (not just process) crashes. A corrupt store refuses to start: exit
// nonzero with the failing record named; so does a directory written
// with a different -partitions, with both counts named. Without
// -data-dir lockd is memory-only.
//
// -partitions sets the engine's entity-hash partition count (default 1,
// where every transaction is local to the one partition): each
// partition has its own recovery core, stripe set and sequencer, and
// sessions whose declared body stays inside one partition never touch
// the others. Cross-partition and global-footprint transactions drain
// every partition. The wire protocol is identical
// for every count. -truncate-log (default on) discards log events below the
// earliest checkpoint whose owners are all settled, bounding recovery
// memory on long-lived servers at the cost of full-log inspection.
//
// -backoff paces the retries lockd itself drives: run-mode
// (stored-procedure) transactions and cascade re-runs. The k-th retry
// waits k*backoff, capped at 100*backoff, jittered down by up to half so
// colliding transactions desynchronize.
// Client-paced sessions (step/pipeline modes) choose their own backoff
// client-side.
//
// The policy names are those of internal/policy (2PL, tree, DDAG,
// DDAG-SX, altruistic, DTR, unrestricted); -init lists the entities of
// the initial structural state (edge entities like "A->B" configure the
// tree/DDAG shapes). On SIGTERM or SIGINT the server drains: it stops
// accepting, waits up to -drain-timeout for open sessions to finish,
// force-aborts the rest, verifies the committed schedule is
// serializable and exits 0 on a clean verdict.
//
// -pprof exposes Go's net/http/pprof handlers on a separate HTTP
// listener (profiles, heap, goroutine dumps); leave it unset in
// production unless the address is firewalled — the endpoint is
// unauthenticated by design.
//
// docs/OPERATIONS.md is the operator's manual (flag sizing, policy
// choice, metrics, drain behavior, profiling); docs/PROTOCOL.md
// specifies the wire format.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/runtime"
	"locksafe/internal/server"

	"net"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	polName := flag.String("policy", "2PL", "locking policy: "+strings.Join(policy.Names(), ", "))
	initEnts := flag.String("init", "", "comma-separated entities of the initial structural state")
	partitions := flag.Int("partitions", 1, "entity-hash engine partitions; a -data-dir is served only by the count that wrote it")
	stripes := flag.Int("stripes", 0, "admission-gate stripes per partition (0 = size from GOMAXPROCS, 1 = the serialized single-mutex gate)")
	shards := flag.Int("shards", 16, "lock-manager shards")
	mpl := flag.Int("mpl", 0, "max concurrently open sessions (0 = unbounded)")
	ckpt := flag.Int("checkpoint-every", 0, "events between recovery checkpoints (0 = default)")
	truncate := flag.Bool("truncate-log", true, "truncate the recovery log below settled checkpoints (bounds memory; full-log inspect unavailable past the cut)")
	dataDir := flag.String("data-dir", "", "durable store directory: WAL + checkpoints, restored on start (empty = memory-only)")
	fsync := flag.Bool("fsync", false, "sync the WAL before an acknowledgement — a session's open, a commit or abandon — leaves; acknowledgements that arrive together share one write and fsync, taken outside the gate drain (with -data-dir); acknowledged commits survive machine crashes")
	lease := flag.Duration("lease", 30*time.Second, "session lease; idle sessions are aborted after this (0 disables)")
	maxRetries := flag.Int("max-retries", 0, "per-transaction retry budget (0 = default, negative = none)")
	backoff := flag.Duration("backoff", 0, "base retry delay for engine-driven retries (run mode, cascade re-runs; capped at 100x, jittered down by up to half; 0 = default, negative = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a drain waits for open sessions before force-aborting them")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled; unauthenticated, keep it loopback/firewalled)")
	flag.Parse()

	pol, ok := policy.ByName(*polName)
	if !ok {
		fmt.Fprintf(os.Stderr, "lockd: unknown policy %q (want one of %s)\n", *polName, strings.Join(policy.Names(), ", "))
		os.Exit(2)
	}
	init := model.NewState()
	if *initEnts != "" {
		for _, e := range strings.Split(*initEnts, ",") {
			if e = strings.TrimSpace(e); e != "" {
				init[model.Entity(e)] = struct{}{}
			}
		}
	}

	cfg := runtime.Config{
		Policy:          pol,
		Shards:          *shards,
		MPL:             *mpl,
		MaxRetries:      *maxRetries,
		Backoff:         *backoff,
		CheckpointEvery: *ckpt,
		GateStripes:     *stripes,
		Lease:           *lease,
		Partitions:      *partitions,
		TruncateLog:     *truncate,
		DataDir:         *dataDir,
		Fsync:           *fsync,
	}
	srv, info, err := server.NewDurable(init, cfg)
	if err != nil {
		// A corrupt or unreadable store must not be silently rebuilt
		// over: the operator decides what to do with the evidence.
		fmt.Fprintf(os.Stderr, "lockd: restoring %s: %v\n", *dataDir, err)
		os.Exit(1)
	}
	if *dataDir != "" {
		fmt.Printf("lockd: restored %s — events=%d commits=%d parked-sessions=%d clean=%v torn=%v fsync=%v\n",
			*dataDir, info.Events, info.Commits, info.Sessions, info.Clean, info.Torn, *fsync)
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lockd: pprof listen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("lockd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "lockd: pprof serve: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lockd: listening on %s policy=%s partitions=%d stripes=%s shards=%d lease=%v\n",
		ln.Addr(), pol.Name(), maxInt(*partitions, 1), gateDesc(*stripes), *shards, *lease)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "lockd: serve: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("lockd: %v received, draining (timeout %v)\n", s, *drainTimeout)
	}

	res, err := srv.Shutdown(*drainTimeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockd: drain: %v\n", err)
		os.Exit(1)
	}
	m := res.Metrics
	fmt.Printf("lockd: drained clean — commits=%d gaveup=%d aborts=%d (deadlock=%d policy=%d improper=%d cascade=%d lease=%d) events=%d serializable=true\n",
		m.Commits, m.GaveUp, m.Aborts(), m.DeadlockAborts, m.PolicyAborts, m.ImproperAborts, m.CascadeAborts, m.LeaseExpired, m.Events)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func gateDesc(stripes int) string {
	if stripes == 0 {
		return "auto"
	}
	return fmt.Sprint(stripes)
}
