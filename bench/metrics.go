package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below are the single
// source of the names, units and bounds: the runs print from them,
// -compare judges with them, and bench_test.go checks BENCHMARK.json
// against them.
type metricDef struct {
	Name string
	Unit string
	// Better is "higher" or "lower".
	Better string
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before -compare calls it a regression.
	// Per-layer metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of lockd sees, measured with tracing
// off. failed_share is printed beside them but is not in this table: it
// is 0 on every healthy run, and a metric that is 0 has no relative
// bound. The result line carries it as attempted/failed instead.
var endToEnd = []metricDef{
	{"commits_per_s", "1/s", "higher", 0.20},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, one block per package of
// the repo, all measured by the traced run (-trace 1) from the
// benchmark's side of each package's API. A metric that does not apply
// to a workload (recovery.* on a volatile one, client.run_us_p50 in
// per-step mode, a percentile without enough samples) reads 0.
var perLayer = []metricDef{
	{Name: "client.open_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.run_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.round_trips_per_commit", Unit: "count", Better: "lower"},
	{Name: "client.retries_per_commit", Unit: "count", Better: "lower"},

	{Name: "wire.bytes_per_commit_c2s", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_per_commit_s2c", Unit: "B", Better: "lower"},
	{Name: "wire.srv_reads_per_commit", Unit: "count", Better: "lower"},
	{Name: "wire.srv_writes_per_commit", Unit: "count", Better: "lower"},
	{Name: "wire.encode_ns_per_commit", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_commit", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs_per_commit", Unit: "count", Better: "lower"},

	{Name: "server.transport_share", Unit: "ratio", Better: "lower"},
	{Name: "server.allocs_per_commit", Unit: "count", Better: "lower"},
	{Name: "server.heap_kb_per_commit", Unit: "kB", Better: "lower"},
	{Name: "server.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "server.gc_pause_ms_max", Unit: "ms", Better: "lower"},
	{Name: "server.rate_q1_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.rate_q4_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.commit_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "server.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "server.drain_us_per_event", Unit: "us", Better: "lower"},

	{Name: "runtime.inproc_commits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runtime.open_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.abort_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.deadlock_aborts_per_commit", Unit: "count", Better: "lower"},
	{Name: "runtime.cascade_aborts_per_commit", Unit: "count", Better: "lower"},
	{Name: "runtime.lock_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.events_per_commit", Unit: "count", Better: "lower"},
	{Name: "runtime.replayed_per_abort", Unit: "count", Better: "lower"},

	{Name: "lockmgr.lock_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.lock_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.unlock_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.release_all_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.deadlocks_per_klock", Unit: "count", Better: "lower"},

	{Name: "policy.check_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "policy.step_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "policy.footprint_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "policy.grow_us_p50", Unit: "us", Better: "lower"},
	{Name: "policy.fork_us_p50", Unit: "us", Better: "lower"},
	{Name: "policy.fork_us_max", Unit: "us", Better: "lower"},
	{Name: "policy.forks_per_kcommit", Unit: "count", Better: "lower"},
	{Name: "policy.fork_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "policy.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "policy.global_footprint_share", Unit: "ratio", Better: "lower"},

	{Name: "recovery.persist_events_us_p50", Unit: "us", Better: "lower"},
	{Name: "recovery.persist_events_us_p99", Unit: "us", Better: "lower"},
	{Name: "recovery.persist_status_us_p50", Unit: "us", Better: "lower"},
	{Name: "recovery.persist_open_us_p50", Unit: "us", Better: "lower"},
	{Name: "recovery.rotate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery.rotates", Unit: "count", Better: "lower"},
	{Name: "recovery.persist_calls_per_commit", Unit: "count", Better: "lower"},
	{Name: "recovery.events_per_persist_batch", Unit: "count", Better: "higher"},
	{Name: "recovery.persist_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "recovery.wal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "recovery.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "recovery.compact_us_p50", Unit: "us", Better: "lower"},
	{Name: "recovery.fsync_us_p50", Unit: "us", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// tailSupport is how many samples must lie beyond a percentile before it
// is reported.
const tailSupport = 10

// percentile returns the q-quantile (0 < q < 1) of an ascending slice by
// the nearest-rank rule, or 0 for an empty one.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supported reports whether at least tailSupport of n samples lie beyond
// the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= tailSupport
}

// highestSupported returns the highest of p50, p90, p99, p99.9 and p99.99
// that n samples support, as its label and q.
func highestSupported(n int) (string, float64) {
	label, best := "p50", 0.5
	for _, c := range []struct {
		label string
		q     float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}} {
		if supported(n, c.q) {
			label, best = c.label, c.q
		}
	}
	return label, best
}

// quartiles returns the first quartile, median and third quartile of
// values by the rule of Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is the rule the acceptance procedure uses. A
// single value is its own median and quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale, clamped to the data.
		j := k * (n + 1) / 4
		d := k*(n+1) - 4*j
		if j < 1 {
			j, d = 1, 0
		}
		if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}
