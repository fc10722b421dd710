// Package locksafe reproduces "Safe Locking Policies for Dynamic
// Databases" (Chaudhri & Hadzilacos, PODS 1995 / JCSS 1998): a formal
// model of dynamic-database schedules, a safety decision procedure built
// on the paper's canonical-schedules theorem (Theorem 1), runtime
// implementations of the DDAG, altruistic and dynamic-tree locking
// policies, and an evaluation harness regenerating every figure and
// theorem of the paper — grown into a concurrent locking system with a
// sharded lock manager, a goroutine transaction runtime with an
// open-ended session API, a shared checkpointed-recovery core, and a
// network lock service (lockd) serving the runtime over TCP.
//
// # Architecture
//
// The system is layered; each layer depends only on the ones above it.
//
// Foundation — the paper's formal model:
//
//	internal/model       — entities, steps, transactions, schedules,
//	                       properness, legality, serializability graph
//	                       D(S), and the Monitor protocol (§2)
//	internal/graph       — rooted DAGs, dominators, forests: the
//	                       substrate of the DDAG and DTR policies (§4, §6)
//
// Policies and safety — which schedules a policy admits, and whether
// everything it admits is serializable:
//
//	internal/policy      — 2PL, tree [SK80], DDAG (§4), DDAG-SX,
//	                       altruistic [SGMS94] (§5), DTR [CM86] (§6) as
//	                       runtime monitors with speculative Check and
//	                       declared rule footprints
//	internal/checker     — Brute and Canonical safety deciders (§3,
//	                       Theorem 1)
//
// Locking substrate — one implementation of the locking rules, two
// execution disciplines over it:
//
//	internal/locktable   — single-owner lock-table core: S/X
//	                       compatibility, FIFO queues, upgrades,
//	                       waits-for deadlock detection, composable
//	                       wait edges
//	internal/lockmgr     — concurrent lock manager: entity-hashed shards
//	                       over the core, channel-parked waiters,
//	                       cross-shard deadlock sweeps
//
// Execution — two substrates running locked transaction systems under a
// policy monitor, sharing one recovery discipline:
//
//	internal/recovery    — checkpointed-recovery core: the event log,
//	                       periodic monitor/state snapshots on a doubling
//	                       schedule, and victim compaction by suffix
//	                       replay
//	internal/engine      — deterministic virtual-time simulator over the
//	                       lock-table core
//	internal/runtime     — real-goroutine runtime over the sharded
//	                       manager: footprint-striped monitor gate with a
//	                       sequenced log, abort/retry, cascading aborts,
//	                       wall-clock metrics; one long-lived session
//	                       engine (NewSessionEngine: n ≥ 1 entity-hash
//	                       partitions, declared bodies, client-paced
//	                       steps, lease-reaped abandonment, durable
//	                       restore)
//
// Service — the runtime exposed as a long-lived network lock service:
//
//	internal/wire        — lockd protocol: length-prefixed frames,
//	                       versioned hello, session ops, diagnostics
//	                       (hello and payload format: docs/PROTOCOL.md)
//	internal/server      — lockd server: one reader per connection, one
//	                       on-demand worker per session, pipelined
//	                       requests, lease reaping, graceful drain
//	pkg/client           — Go client: pipelined sessions over one
//	                       connection, abort/retry loop, stats/inspect
//
// Evaluation — workloads and the experiment suite:
//
//	internal/workload    — generators (uniform or Zipf hot-key skewed),
//	                       per-client network-mode bodies, and the
//	                       paper's worked examples (Figures 1–5)
//	internal/experiments — the evaluation suite (index: DESIGN.md,
//	                       recorded results: EXPERIMENTS.md); asserts
//	                       safety and accounting, reports no speed
//
// Executables: cmd/locksafe (safety decider), cmd/figures (figure
// walkthroughs), cmd/lockbench (quantitative tables; -net drives a
// running lockd), cmd/lockd (the network lock service; operator's
// manual in docs/OPERATIONS.md). Runnable examples are under examples/,
// and godoc Example functions cover the lockmgr, runtime (session
// engine) and pkg/client entry points.
//
// The benchmarks in bench_test.go time the deterministic experiments
// and the core machinery; the service's performance benchmark is the
// separate module under bench/ (BENCHMARK.json). See EXPERIMENTS.md for
// recorded results and DESIGN.md for the full system
// inventory and the design notes on the lock table, the sharded manager,
// the monitor protocol, the footprint-striped gate, the unified
// recovery core and the service layer.
package locksafe
