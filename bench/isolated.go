package main

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"locksafe/internal/lockmgr"
	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	"locksafe/internal/wire"
)

// This file measures single packages away from the running system, by
// replaying the workload's own bodies through the package's API. Each
// replay works at a stated, fixed size, so its numbers compare across
// commits whatever the end-to-end rate was.

// isolatedTxns is how many bodies the wire and recovery replays use,
// taken round-robin from the clients' scripts.
const isolatedTxns = 2048

// firstBodies returns the first n bodies across the scripts in index
// order (client 0's first, client 1's first, client 0's second, ...).
func firstBodies(scripts [][]model.Txn, n int) []model.Txn {
	out := make([]model.Txn, 0, n)
	for k := 0; len(out) < n; k++ {
		for c := range scripts {
			out = append(out, scripts[c][k%len(scripts[c])])
		}
	}
	return out[:n]
}

// lockmgrReplay replays the bodies' lock and unlock steps, data steps
// left out, on a fresh 16-shard manager from one goroutine per script for
// dur, timing every call. A deadlock victim releases everything and
// retries the body, as the runtime does.
func lockmgrReplay(scripts [][]model.Txn, dur time.Duration, m map[string]float64) error {
	const perClient = 1 << 17
	type samples struct {
		lock, unlock, release []int64
		locks, deadlocks      int
		err                   error
	}
	mgr := lockmgr.NewSharded(16)
	var always atomic.Bool
	always.Store(true)
	all := make([]samples, len(scripts))
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := range scripts {
		sm := &all[c]
		sm.lock = make([]int64, 0, perClient)
		sm.unlock = make([]int64, 0, perClient)
		sm.release = make([]int64, 0, perClient)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			timed := func(into *[]int64, f func() error) error { return timeCall(&always, into, f) }
			for k := 0; time.Now().Before(deadline); k++ {
				tx := scripts[c][k%len(scripts[c])]
				owner := k*len(scripts) + c
				for attempt := 1; ; attempt++ {
					var err error
					for _, st := range tx.Steps {
						switch {
						case st.Op.IsLock():
							sm.locks++
							err = timed(&sm.lock, func() error { return mgr.Lock(owner, st.Ent, st.Op.LockMode()) })
						case st.Op.IsUnlock():
							err = timed(&sm.unlock, func() error { return mgr.Unlock(owner, st.Ent) })
						}
						if err != nil {
							break
						}
					}
					timed(&sm.release, func() error { mgr.ReleaseAll(owner); return nil })
					if err == nil {
						break
					}
					if !errors.Is(err, lockmgr.ErrDeadlock) {
						sm.err = err
						return
					}
					sm.deadlocks++
					time.Sleep(retryDelay(attempt))
				}
			}
		}(c)
	}
	wg.Wait()
	var lock, unlock, release []int64
	locks, deadlocks := 0, 0
	for i := range all {
		if all[i].err != nil {
			return all[i].err
		}
		lock = append(lock, all[i].lock...)
		unlock = append(unlock, all[i].unlock...)
		release = append(release, all[i].release...)
		locks += all[i].locks
		deadlocks += all[i].deadlocks
	}
	slices.Sort(lock)
	slices.Sort(unlock)
	slices.Sort(release)
	m["lockmgr.lock_ns_p50"] = float64(percentile(lock, 0.5))
	m["lockmgr.lock_ns_p99"] = float64(percentile(lock, 0.99))
	m["lockmgr.unlock_ns_p50"] = float64(percentile(unlock, 0.5))
	m["lockmgr.release_all_ns_p50"] = float64(percentile(release, 0.5))
	m["lockmgr.deadlocks_per_klock"] = 1000 * float64(deadlocks) / float64(locks)
	return nil
}

// commitFrames builds the request and response frames one commit of tx
// puts on the wire in the given mode, with no abort: exactly the messages
// pkg/client and internal/server exchange under the binary codec. A
// pipelined attempt is taken as one burst each way, which is what the
// coalescing writers make of it when they keep up.
func commitFrames(mode driveMode, tx model.Txn, id uint64) (reqs [][]wire.Request, resps [][]wire.Response) {
	const sid, token = 4242, 0x9e3779b97f4a7c15
	table, csteps := model.CompactTxn(tx.Steps)
	one := func(req wire.Request, resp wire.Response) {
		id++
		req.ID, resp.ID = id, id
		reqs = append(reqs, []wire.Request{req})
		resps = append(resps, []wire.Response{resp})
	}
	if mode == modeRun {
		one(wire.Request{Op: wire.OpRun, Name: tx.Name, Table: table, CSteps: csteps}, wire.Response{OK: true})
		return
	}
	one(wire.Request{Op: wire.OpOpen, Name: tx.Name, Table: table, CSteps: csteps}, wire.Response{OK: true, SID: sid, Token: token})
	if mode == modeStep {
		for _, cs := range csteps {
			one(wire.Request{Op: wire.OpStep, SID: sid, CStep: cs, HasCompact: true}, wire.Response{OK: true, SID: sid})
		}
		one(wire.Request{Op: wire.OpCommit, SID: sid}, wire.Response{OK: true, SID: sid})
		return
	}
	var burst []wire.Request
	var answer []wire.Response
	for _, cs := range csteps {
		id++
		burst = append(burst, wire.Request{ID: id, Op: wire.OpStep, SID: sid, CStep: cs, HasCompact: true})
		answer = append(answer, wire.Response{ID: id, OK: true, SID: sid})
	}
	id++
	burst = append(burst, wire.Request{ID: id, Op: wire.OpCommit, SID: sid})
	answer = append(answer, wire.Response{ID: id, OK: true, SID: sid})
	return append(reqs, burst), append(resps, answer)
}

// wireReplay pushes the frames of isolatedTxns commits through
// wire.Writer into memory and back through wire.Reader, timing each
// direction and counting the codec's heap allocations.
func wireReplay(mode driveMode, scripts [][]model.Txn, m map[string]float64) error {
	bodies := firstBodies(scripts, isolatedTxns)
	var reqs [][]wire.Request
	var resps [][]wire.Response
	for i, tx := range bodies {
		rq, rs := commitFrames(mode, tx, uint64(i)*64)
		reqs = append(reqs, rq...)
		resps = append(resps, rs...)
	}
	encReq := make([][]byte, len(reqs))
	encResp := make([][]byte, len(resps))

	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.SetCodec(wire.CodecBinary)
	defer w.Release()
	var src bytes.Reader
	rd := wire.NewReader(&src)
	rd.SetCodec(wire.CodecBinary)
	defer rd.Release()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := range reqs {
		buf.Reset()
		if err := w.WriteRequests(reqs[i]); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		encReq[i] = append(encReq[i], buf.Bytes()...)
		buf.Reset()
		if err := w.WriteResponses(resps[i]); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		encResp[i] = append(encResp[i], buf.Bytes()...)
	}
	encode := time.Since(t0)
	t0 = time.Now()
	for i := range reqs {
		src.Reset(encReq[i])
		if _, err := rd.ReadRequests(); err != nil {
			return err
		}
		src.Reset(encResp[i])
		if _, err := rd.ReadResponses(); err != nil {
			return err
		}
	}
	decode := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(len(bodies))
	// Each frame costs the replay itself one allocation, the copy kept for
	// the decode pass; the rest is the codec's.
	m["wire.encode_ns_per_commit"] = float64(encode) / n
	m["wire.decode_ns_per_commit"] = float64(decode) / n
	m["wire.codec_allocs_per_commit"] = (float64(after.Mallocs-before.Mallocs) - 2*float64(len(reqs))) / n
	return nil
}

// serialEvents returns body i's events as transaction i would log them.
func serialEvents(i int, tx model.Txn) []model.Ev {
	evs := make([]model.Ev, len(tx.Steps))
	for j, st := range tx.Steps {
		evs[j] = model.Ev{T: model.TID(i), S: st}
	}
	return evs
}

// recoveryReplay measures the recovery package alone on isolatedTxns
// bodies executed one after the other under a two-phase monitor:
//
//   - append_ns_per_event: Core.AppendAppliedTagged with no persister, the
//     monitor stepped and the state applied beforehand as the runtime
//     does, checkpoints included;
//   - compact_us_p50: Core.Compact of the last transaction at that log
//     length, its events appended again between repetitions;
//   - fsync_us_p50: Store.AppendEvents of one body's events with Fsync on,
//     less the same with Fsync off.
func recoveryReplay(init model.State, scripts [][]model.Txn, outDir string, m map[string]float64) error {
	bodies := firstBodies(scripts, isolatedTxns)
	newCore := func() *recovery.Core {
		sys := model.NewSystem(init.Clone(), bodies...)
		return recovery.New(len(bodies), sys.Init, policy.TwoPhase{}.NewMonitor(sys), 0)
	}

	core := newCore()
	var spent time.Duration
	events := 0
	for i, tx := range bodies {
		evs := serialEvents(i, tx)
		for _, ev := range evs {
			if err := core.Monitor().Step(ev); err != nil {
				return err
			}
			core.State().Apply(ev.S)
		}
		t0 := time.Now()
		if err := core.AppendAppliedTagged(evs, nil); err != nil {
			return err
		}
		spent += time.Since(t0)
		events += len(evs)
	}
	m["recovery.append_ns_per_event"] = float64(spent) / float64(events)

	// The core now holds the whole serial log; erase and re-append its
	// last transaction.
	last := len(bodies) - 1
	lastEvs := serialEvents(last, bodies[last])
	var compacts []int64
	for rep := 0; rep < 33; rep++ {
		t0 := time.Now()
		ok, _ := core.Compact(map[int]bool{last: true})
		compacts = append(compacts, int64(time.Since(t0)))
		if !ok {
			return errors.New("recovery replay: compacting the last serial transaction cascaded")
		}
		for _, ev := range lastEvs {
			if err := core.Append(ev); err != nil {
				return err
			}
		}
	}
	slices.Sort(compacts)
	m["recovery.compact_us_p50"] = float64(percentile(compacts, 0.5)) / 1e3

	appendP50 := func(fsync bool) (int64, error) {
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		st, _, err := recovery.Open(dir, recovery.Options{Fsync: fsync})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		var ds []int64
		tag := uint64(0)
		for i := 0; i < 65; i++ {
			evs := serialEvents(i, bodies[i])
			tags := make([]uint64, len(evs))
			for j := range tags {
				tag++
				tags[j] = tag
			}
			t0 := time.Now()
			if err := st.AppendEvents(evs, tags); err != nil {
				return 0, err
			}
			ds = append(ds, int64(time.Since(t0)))
		}
		slices.Sort(ds)
		return percentile(ds, 0.5), nil
	}
	synced, err := appendP50(true)
	if err != nil {
		return err
	}
	plain, err := appendP50(false)
	if err != nil {
		return err
	}
	m["recovery.fsync_us_p50"] = float64(synced-plain) / 1e3
	return nil
}
