package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

// lifetimes is how many times a run sets the system up afresh, warms it
// up and measures a window: the measured time (-seconds) is split evenly
// over them. A lockd server slows down as it ages and falls into one of
// several paces for the rest of its life, so one long window is both the
// most expensive to check (restore cost grows with the square of the
// commits) and the noisiest; several shorter lives, pooled, repeat better.
const lifetimes = 3

// setupsPerLifetime is how often each lifetime sets the system up; all
// but the last are discarded, and setup_s is the median of them all.
const setupsPerLifetime = 7

// runResult is one run of one workload in one mode.
type runResult struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	// Samples is the number of latency samples behind the percentiles;
	// Tail names the highest percentile they support, and TailMs is it.
	Samples int
	Tail    string
	TailMs  float64
	// FailedErr describes a failed transaction, if any.
	FailedErr string
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// count adds the windows' attempted and failed transactions to r.
func (r *runResult) count(wins ...*windowResult) {
	for _, w := range wins {
		r.Failed += w.failed()
		r.Attempted += w.commits() + w.failed()
		if err := w.firstErr(); err != nil {
			r.FailedErr = err.Error()
		}
	}
}

// runEndToEnd is the untraced run. Each lifetime sets the system up
// (several times, for setup_s), warms it up, measures one window and
// checks the outputs; the end-to-end metrics are taken over the pooled
// windows: all commits over all measured time, percentiles of all
// latencies.
func runEndToEnd(def workloadDef, o runOpts) (*runResult, error) {
	res := &runResult{Metrics: make(map[string]float64)}
	var setups []float64
	var pooled []int64
	commits := 0
	nop := func() {}
	for life := 0; life < lifetimes; life++ {
		var r *rig
		for i := 0; i < setupsPerLifetime; i++ {
			if r != nil {
				r.discard()
			}
			t0 := time.Now()
			var err error
			if r, err = setup(def, o, nil, false); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		// The previous lifetime and the discarded set-ups must not be this
		// window's garbage.
		runtime.GC()
		win, err := runWindow(o, scriptLen, r.loopback(), r.closeClients, nop, nop)
		if err != nil {
			r.discard()
			return nil, err
		}
		if _, err := r.drainAndCheck(win.confirmed(), win.failed(), true); err != nil {
			return nil, err
		}
		res.count(win)
		commits += win.commits()
		pooled = append(pooled, win.durations()...)
	}
	slices.Sort(pooled)
	_, res.Metrics["setup_s"], _ = quartiles(setups)
	res.Metrics["commits_per_s"] = float64(commits) / (lifetimes * o.window.Seconds())
	res.Metrics["commit_p50_ms"] = ms(percentile(pooled, 0.5))
	res.Metrics["commit_p99_ms"] = ms(percentile(pooled, 0.99))
	res.Samples = len(pooled)
	label, q := highestSupported(len(pooled))
	res.Tail, res.TailMs = label, ms(percentile(pooled, q))
	return res, nil
}

// memWatch brackets a window with the Go runtime's own accounting. Client
// and server share the process, so these are whole-stack numbers.
type memWatch struct {
	heap0, heap1 uint64
	m1, m2       runtime.MemStats
	cpu1, cpu2   [2]float64 // GC and total CPU seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() [2]float64 {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

func settledHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (w *memWatch) opened() { runtime.ReadMemStats(&w.m1); w.cpu1 = readCPU() }
func (w *memWatch) closed() { runtime.ReadMemStats(&w.m2); w.cpu2 = readCPU() }

// maxPauseNs is the longest stop-the-world pause of the GC cycles that
// ended inside the window.
func (w *memWatch) maxPauseNs() uint64 {
	var max uint64
	n := w.m2.NumGC - w.m1.NumGC
	if n > uint32(len(w.m2.PauseNs)) {
		n = uint32(len(w.m2.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		if p := w.m2.PauseNs[(w.m2.NumGC-1-i)%uint32(len(w.m2.PauseNs))]; p > max {
			max = p
		}
	}
	return max
}

// runTraced is the traced run. Its three lifetimes, of the same warm-up
// and window as the end-to-end run's, are one each of: loopback with every
// seam wrapped, loopback untraced, and in process untraced. Then it
// replays the bodies through single packages. Rates fall as a server
// ages, so only windows of equal age compare; the traced and the
// untraced window of one run are, which is why the tracing overhead is
// taken between them.
func runTraced(def workloadDef, o runOpts, stamp map[string]any) (*runResult, error) {
	res := &runResult{Metrics: make(map[string]float64)}
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	// Window 1: loopback, every seam wrapped.
	tr := newTracer(o.clients)
	r, err := setup(def, o, tr, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	traced, err := runWindow(o, scriptLen, r.tracedLoopback(tr), r.closeClients,
		func() { tr.setOn(true) }, func() { tr.setOn(false) })
	if err != nil {
		r.discard()
		return nil, err
	}
	dr, err := r.drainAndCheck(traced.confirmed(), traced.failed(), true)
	if err != nil {
		return nil, err
	}
	tracedMetrics(tr, traced, def, m)
	m["recovery.restore_ms"] = ms(int64(dr.restore))
	if err := tr.rec.write(filepath.Join(o.outDir, "trace-"+def.Name+".json"), stamp); err != nil {
		return nil, err
	}

	// Window 2: loopback, untraced, with the runtime's memory accounting.
	if r, err = setup(def, o, nil, false); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var mem memWatch
	mem.heap0 = settledHeap()
	plain, err := runWindow(o, scriptLen, r.loopback(), r.closeClients, mem.opened, mem.closed)
	if err != nil {
		r.discard()
		return nil, err
	}
	mem.heap1 = settledHeap()
	if dr, err = r.drainAndCheck(plain.confirmed(), plain.failed(), false); err != nil {
		return nil, err
	}
	commits := float64(plain.commits())
	plainRate := commits / o.window.Seconds()
	m["trace.overhead_share"] = 1 - float64(traced.commits())/commits
	m["server.allocs_per_commit"] = float64(mem.m2.Mallocs-mem.m1.Mallocs) / commits
	m["server.heap_kb_per_commit"] = (float64(mem.heap1) - float64(mem.heap0)) / 1024 / float64(plain.confirmed())
	m["server.gc_cpu_share"] = (mem.cpu2[0] - mem.cpu1[0]) / (mem.cpu2[1] - mem.cpu1[1])
	m["server.gc_pause_ms_max"] = ms(int64(mem.maxPauseNs()))
	m["server.rate_q1_per_s"] = plain.rateIn(0, o.window/4)
	m["server.rate_q4_per_s"] = plain.rateIn(o.window-o.window/4, o.window)
	if ds := plain.durations(); supported(len(ds), 0.999) {
		m["server.commit_p999_ms"] = ms(percentile(ds, 0.999))
	}
	m["server.drain_ms"] = ms(int64(dr.drain))
	em := dr.metrics
	m["server.drain_us_per_event"] = us(int64(dr.drain)) / float64(em.Events)
	// The engine's own counters cover the whole life of the server,
	// warm-up included, so they are reported as ratios.
	m["runtime.abort_share"] = float64(em.Aborts()) / float64(em.Commits+em.GaveUp+em.Aborts())
	m["runtime.deadlock_aborts_per_commit"] = float64(em.DeadlockAborts) / float64(em.Commits)
	m["runtime.cascade_aborts_per_commit"] = float64(em.CascadeAborts) / float64(em.Commits)
	m["runtime.events_per_commit"] = float64(em.Events) / float64(em.Commits)
	m["runtime.replayed_per_abort"] = float64(em.Replayed) / float64(em.Aborts())
	m["runtime.lock_wait_share"] = em.Wait.Seconds() / (float64(o.clients) * (o.warmup + o.window).Seconds())

	// Window 3: the same bodies through the session engine, no transport.
	if r, err = setup(def, o, nil, true); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var on atomic.Bool
	samples := make([]callSamples, o.clients)
	for c := range samples {
		samples[c] = callSamples{on: &on, open: make([]int64, 0, maxSamples),
			step: make([]int64, 0, 4*maxSamples), commit: make([]int64, 0, maxSamples)}
	}
	inproc, err := runWindow(o, scriptLen, r.inprocess(samples), nil,
		func() { on.Store(true) }, func() { on.Store(false) })
	if err != nil {
		return nil, err
	}
	if _, err := r.drainAndCheck(inproc.confirmed(), inproc.failed(), false); err != nil {
		return nil, err
	}
	res.count(traced, plain, inproc)
	inprocRate := float64(inproc.commits()) / o.window.Seconds()
	m["runtime.inproc_commits_per_s"] = inprocRate
	// Closed loop with the same number of callers: mean time per commit is
	// callers/rate, so the share of it spent outside the engine is:
	m["server.transport_share"] = 1 - plainRate/inprocRate
	callP50 := func(pick func(*callSamples) []int64) float64 {
		var all []int64
		for c := range samples {
			all = append(all, pick(&samples[c])...)
		}
		slices.Sort(all)
		return us(percentile(all, 0.5))
	}
	m["runtime.open_us_p50"] = callP50(func(s *callSamples) []int64 { return s.open })
	m["runtime.step_us_p50"] = callP50(func(s *callSamples) []int64 { return s.step })
	m["runtime.commit_us_p50"] = callP50(func(s *callSamples) []int64 { return s.commit })

	// Single packages, away from the running system.
	if err := lockmgrReplay(r.scripts, o.window/10, m); err != nil {
		return nil, fmt.Errorf("lockmgr replay: %w", err)
	}
	if err := wireReplay(def.Mode, r.scripts, m); err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	if err := recoveryReplay(r.init, r.scripts, o.outDir, m); err != nil {
		return nil, fmt.Errorf("recovery replay: %w", err)
	}
	// A ratio whose base was 0 (no abort to replay for, no GC cycle inside
	// a very short window) does not apply; like every such metric it reads 0.
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[name] = 0
		}
	}
	// The span buffer stays live through all three windows: client and
	// server share one heap, and a window with a larger live heap collects
	// less often, which alone made the traced window the fastest.
	runtime.KeepAlive(tr)
	return res, nil
}

// tracedMetrics turns the traced window's spans and counters into the
// client, wire, policy and live recovery metrics.
func tracedMetrics(tr *tracer, win *windowResult, def workloadDef, m map[string]float64) {
	commits := float64(win.commits())
	window := float64(win.window)
	p50 := func(name uint8) (float64, int, int64) {
		ds, sum := tr.rec.durations(name)
		return float64(percentile(ds, 0.5)), len(ds), sum
	}
	calls := 0
	for name, metric := range map[uint8]string{
		spClientOpen: "client.open_us_p50", spClientStep: "client.step_us_p50",
		spClientCommit: "client.commit_us_p50", spClientRun: "client.run_us_p50",
	} {
		v, n, _ := p50(name)
		m[metric] = v / 1e3
		calls += n
	}
	// Counted over the transactions wholly inside the window.
	_, txns, _ := p50(spTxn)
	m["client.round_trips_per_commit"] = float64(calls) / float64(txns)
	m["client.retries_per_commit"] = float64(tr.retries.Load()) / float64(txns)

	m["wire.bytes_per_commit_c2s"] = float64(tr.net.readBytes.Load()) / commits
	m["wire.bytes_per_commit_s2c"] = float64(tr.net.writeBytes.Load()) / commits
	m["wire.srv_reads_per_commit"] = float64(tr.net.reads.Load()) / commits
	m["wire.srv_writes_per_commit"] = float64(tr.net.writes.Load()) / commits

	var busy int64
	v, _, sum := p50(spPolicyCheck)
	m["policy.check_ns_p50"], busy = v, busy+sum
	v, _, sum = p50(spPolicyStep)
	m["policy.step_ns_p50"], busy = v, busy+sum
	v, _, sum = p50(spPolicyFootprint)
	m["policy.footprint_ns_p50"], busy = v, busy+sum
	v, _, sum = p50(spPolicyGrow)
	m["policy.grow_us_p50"], busy = v/1e3, busy+sum
	forks, forkSum := tr.rec.durations(spPolicyFork)
	busy += forkSum
	m["policy.fork_us_p50"] = us(percentile(forks, 0.5))
	if len(forks) > 0 {
		m["policy.fork_us_max"] = us(forks[len(forks)-1])
	}
	m["policy.forks_per_kcommit"] = 1000 * float64(len(forks)) / commits
	// Busy shares are summed span time over the window's length; spans on
	// two cores can overlap, so a share can pass 1.
	m["policy.fork_busy_share"] = float64(forkSum) / window
	m["policy.busy_share"] = float64(busy) / window
	m["policy.global_footprint_share"] = float64(tr.drains.Load()) / float64(tr.footprints.Load())

	if !def.Durable {
		return
	}
	events, persistBusy := tr.rec.durations(spPersistEvents)
	m["recovery.persist_events_us_p50"] = us(percentile(events, 0.5))
	m["recovery.persist_events_us_p99"] = us(percentile(events, 0.99))
	v, _, sum = p50(spPersistStatus)
	m["recovery.persist_status_us_p50"], persistBusy = v/1e3, persistBusy+sum
	v, _, sum = p50(spPersistOpen)
	m["recovery.persist_open_us_p50"], persistBusy = v/1e3, persistBusy+sum
	v, _, sum = p50(spPersistRotate)
	m["recovery.rotate_ms_p50"], persistBusy = v/1e6, persistBusy+sum
	_, _, sum = p50(spPersistCompact)
	persistBusy += sum
	n := &tr.persist
	m["recovery.rotates"] = float64(n.rotates.Load())
	m["recovery.persist_calls_per_commit"] = float64(n.calls.Load()) / commits
	m["recovery.events_per_persist_batch"] = float64(n.events.Load()) / float64(n.batches.Load())
	m["recovery.persist_busy_share"] = float64(persistBusy) / window
	m["recovery.wal_bytes_per_commit"] = float64(n.walBytes.Load()) / commits
}
