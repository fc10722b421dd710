package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/recovery"
	txnruntime "locksafe/internal/runtime"
	"locksafe/internal/server"
	"locksafe/pkg/client"
)

// retryBase is the base of the client-side retry backoff, the value
// lockd's own load generators use.
const retryBase = 50 * time.Microsecond

// drainTimeout is what Shutdown may wait for open sessions; a healthy run
// has none left when it is called.
const drainTimeout = 5 * time.Second

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed           int64
	clients        int
	warmup, window time.Duration
	outDir         string
}

// rig is one set-up system under test: the generated inputs and either an
// in-process lockd on loopback with its dialled clients, or (inproc) the
// bare session engine.
type rig struct {
	def      workloadDef
	scripts  [][]model.Txn
	init     model.State
	cfg      txnruntime.Config
	srv      *server.Server
	serveErr chan error
	conns    []*client.Client
	eng      txnruntime.SessionEngine
}

// baseConfig is lockd's default server configuration, common to every
// workload.
func baseConfig(def workloadDef) txnruntime.Config {
	return txnruntime.Config{
		Policy:      policy.TwoPhase{},
		Shards:      16,
		GateStripes: 16,
		Backoff:     retryBase,
		MaxRetries:  500,
		TruncateLog: true,
		Partitions:  def.Partitions,
	}
}

// setup is everything before the first warm-up operation, the span
// setup_s times: generate the inputs from the seed, create the data
// directory, construct the server, listen, and dial and greet every
// client. With inproc it builds the session engine alone.
func setup(def workloadDef, o runOpts, tr *tracer, inproc bool) (*rig, error) {
	r := &rig{def: def, cfg: baseConfig(def)}
	var universe []model.Entity
	r.scripts, universe = def.generate(o.seed, o.clients, scriptLen)
	r.init = model.NewState(universe...)
	if tr != nil {
		r.cfg.Policy = tracedPolicy{inner: r.cfg.Policy, tr: tr}
	}
	if def.Durable {
		dir, err := os.MkdirTemp(o.outDir, "data-")
		if err != nil {
			return nil, err
		}
		r.cfg.DataDir, r.cfg.Fsync = dir, true
		if tr != nil {
			r.cfg.WrapPersister = func(p recovery.Persister) recovery.Persister {
				return &tracedPersister{inner: p, tr: tr, txnOf: make(map[int]int32)}
			}
		}
	}
	if inproc {
		if def.Durable {
			eng, _, err := txnruntime.NewDurableSessionEngine(r.init, r.cfg)
			if err != nil {
				r.removeData()
				return nil, err
			}
			r.eng = eng
		} else {
			r.eng = txnruntime.NewSessionEngine(r.init, r.cfg)
		}
		return r, nil
	}
	if def.Durable {
		srv, _, err := server.NewDurable(r.init, r.cfg)
		if err != nil {
			r.removeData()
			return nil, err
		}
		r.srv = srv
	} else {
		r.srv = server.New(r.init, r.cfg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.removeData()
		return nil, err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = countingListener{Listener: ln, n: &tr.net}
	}
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- r.srv.Serve(ln) }()
	for c := 0; c < o.clients; c++ {
		cl, err := client.Dial(addr)
		if err != nil {
			r.discard()
			return nil, fmt.Errorf("dial client %d: %w", c, err)
		}
		r.conns = append(r.conns, cl)
	}
	return r, nil
}

// closeClients drops every client connection; it is also how a stalled
// client is unblocked.
func (r *rig) closeClients() {
	for _, cl := range r.conns {
		cl.Close()
	}
}

// discard tears down a rig whose results are not wanted.
func (r *rig) discard() {
	if r.srv != nil {
		r.srv.Shutdown(drainTimeout)
		<-r.serveErr
	}
	if r.eng != nil {
		r.eng.Close()
	}
	r.closeClients()
	r.removeData()
}

func (r *rig) removeData() {
	if r.cfg.DataDir != "" {
		os.RemoveAll(r.cfg.DataDir)
	}
}

// drained is what the checks after a window found.
type drained struct {
	metrics txnruntime.Metrics
	// drain is how long Shutdown (or Close) took; restore how long the
	// second durable server took to come up (0 on volatile workloads).
	drain, restore time.Duration
}

// drainAndCheck stops the system and checks its outputs: the drain must
// return the serializability verdict nil, the server must have counted
// every commit a client saw confirmed (and at most one more per failed
// transaction, whose outcome the client does not know), and on a durable
// workload a second server over the same directory must restore exactly
// the commits the first one counted.
func (r *rig) drainAndCheck(confirmed, failed int, restore bool) (drained, error) {
	defer r.removeData()
	var d drained
	var res *txnruntime.Result
	var err error
	t0 := time.Now()
	if r.eng != nil {
		res, err = r.eng.Close()
	} else {
		res, err = r.srv.Shutdown(drainTimeout)
	}
	d.drain = time.Since(t0)
	r.closeClients()
	if err != nil {
		return d, fmt.Errorf("drain verdict: %w", err)
	}
	if r.srv != nil {
		if err := <-r.serveErr; err != nil {
			return d, fmt.Errorf("serve: %w", err)
		}
	}
	d.metrics = res.Metrics
	if got := res.Metrics.Commits; got < confirmed || got > confirmed+failed {
		return d, fmt.Errorf("commit accounting: server counted %d commits, clients saw %d confirmed and %d failed", got, confirmed, failed)
	}
	if !r.def.Durable || !restore {
		return d, nil
	}
	cfg := r.cfg
	cfg.Policy, cfg.WrapPersister = policy.TwoPhase{}, nil
	t0 = time.Now()
	_, info, err := server.NewDurable(r.init, cfg)
	d.restore = time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("restore: %w", err)
	}
	// NewDurable has verified the restored log serializable. The restored
	// server is dropped without Shutdown: it never served, holds no
	// goroutine, and draining it would verify the same log a second time,
	// which on these bodies costs as much again as the restore (both are
	// quadratic in the commits per entity, because restore keeps the whole
	// history where the live server truncates it).
	if info.Commits != res.Metrics.Commits {
		return d, fmt.Errorf("restore: recovered %d commits, the server had counted %d", info.Commits, res.Metrics.Commits)
	}
	return d, nil
}

// retryDelay is the pause before the k-th retry, the client package's
// default pacing: k*retryBase capped at 100*retryBase, jittered down by
// up to half.
func retryDelay(k int) time.Duration {
	if k > 100 {
		k = 100
	}
	return time.Duration(float64(time.Duration(k)*retryBase) * (1 - 0.5*rand.Float64()))
}

// loopback returns the closed-loop driver of the untraced run: client c
// runs its k-th body to commit through pkg/client in the workload's mode.
func (r *rig) loopback() func(c, k int) error {
	backoff := client.Backoff{Base: retryBase}
	return func(c, k int) error {
		tx := r.scripts[c][k]
		if r.def.Mode == modeRun {
			return r.conns[c].Run(tx)
		}
		s, err := r.conns[c].Open(tx)
		if err != nil {
			return err
		}
		if r.def.Mode == modePipelined {
			return s.RunPipelined(backoff)
		}
		return s.RunWith(backoff)
	}
}

// tracedLoopback is loopback with a span around every pkg/client call.
// To reach the calls it unrolls the package's own retry loops (RunWith,
// RunPipelined) over the same public methods with the same pacing.
func (r *rig) tracedLoopback(tr *tracer) func(c, k int) error {
	rec := tr.rec
	return func(c, k int) error {
		tx := r.scripts[c][k]
		txn := int32(k*len(r.scripts) + c)
		root := rec.open(spTxn, -1, txn)
		defer rec.close(root)
		call := func(name uint8, f func() error) error {
			sp := rec.open(name, root, txn)
			err := f()
			rec.close(sp)
			return err
		}
		if r.def.Mode == modeRun {
			return call(spClientRun, func() error { return r.conns[c].Run(tx) })
		}
		var s *client.Session
		if err := call(spClientOpen, func() (err error) { s, err = r.conns[c].Open(tx); return }); err != nil {
			return err
		}
		for attempt := 1; ; attempt++ {
			err := r.tracedAttempt(s, tx, call)
			if err == nil || !errors.Is(err, client.ErrAborted) {
				return err
			}
			if root >= 0 {
				tr.retries.Add(1)
			}
			time.Sleep(retryDelay(attempt))
		}
	}
}

// tracedAttempt makes one attempt at the declared body. Per-step mode
// spans every Step and the Commit. Pipelined mode has two waits to span:
// submitting the burst of steps, and the commit with the flush that
// reconciles the whole attempt.
func (r *rig) tracedAttempt(s *client.Session, tx model.Txn, call func(uint8, func() error) error) error {
	if r.def.Mode == modeStep {
		for _, st := range tx.Steps {
			if err := call(spClientStep, func() error { return s.Step(st) }); err != nil {
				return err
			}
		}
		return call(spClientCommit, s.Commit)
	}
	err := call(spClientStep, func() error {
		for range tx.Steps {
			if err := s.StepAsync(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		s.Flush()
		return err
	}
	return call(spClientCommit, func() error {
		if err := s.CommitAsync(); err != nil {
			s.Flush()
			return err
		}
		return s.Flush()
	})
}

// callSamples are one client's timings of in-process engine calls, in
// buffers allocated before the window.
type callSamples struct {
	on                 *atomic.Bool
	open, step, commit []int64
}

func timeCall(on *atomic.Bool, into *[]int64, f func() error) error {
	if !on.Load() || len(*into) == cap(*into) {
		return f()
	}
	t0 := time.Now()
	err := f()
	*into = append(*into, int64(time.Since(t0)))
	return err
}

// inprocess returns the driver of the no-transport run: the same bodies
// through the session engine's own API, step by step, from the same
// number of goroutines. It is the loop Session.Run makes server-side.
func (r *rig) inprocess(samples []callSamples) func(c, k int) error {
	return func(c, k int) error {
		tx := r.scripts[c][k]
		sm := &samples[c]
		var sess txnruntime.Sess
		if err := timeCall(sm.on, &sm.open, func() (err error) { sess, err = r.eng.OpenSession(tx); return }); err != nil {
			return err
		}
		for attempt := 1; ; attempt++ {
			err := func() error {
				for _, st := range tx.Steps {
					if err := timeCall(sm.on, &sm.step, func() error { return sess.Step(st) }); err != nil {
						return err
					}
				}
				return timeCall(sm.on, &sm.commit, sess.Commit)
			}()
			if err == nil || !errors.Is(err, txnruntime.ErrAborted) {
				return err
			}
			time.Sleep(retryDelay(attempt))
		}
	}
}
