package main

import (
	"fmt"
	"slices"
	"time"
)

// grace is how long a transaction in flight at the deadline may take to
// end before it is counted as failed and its client is cut off.
const grace = 2 * time.Second

// maxSamples is each client's preallocated latency buffer; commits beyond
// it are still counted but leave no sample.
const maxSamples = 1 << 18

// latency is one transaction that ended inside the window: when it ended
// (since the window opened) and how long it took from the first client
// call to the confirmed commit, retries included.
type latency struct{ end, dur time.Duration }

// clientLog is what one client goroutine recorded. The window reads it
// only after the goroutine has reported done.
type clientLog struct {
	// confirmed counts commits over the whole run, warm-up and grace
	// included; inWindow those that ended inside the window.
	confirmed, inWindow int
	samples             []latency
	// err is the error that ended a transaction; the client stops there.
	err error
}

// windowResult is one measured window.
type windowResult struct {
	window time.Duration
	logs   []clientLog
	// stalled counts clients whose transaction in flight at the deadline
	// had not ended when the grace ran out.
	stalled int
}

// commits is the number of transactions that ended inside the window.
func (w *windowResult) commits() int {
	n := 0
	for i := range w.logs {
		n += w.logs[i].inWindow
	}
	return n
}

// confirmed is the number of commits clients saw over the whole run.
func (w *windowResult) confirmed() int {
	n := 0
	for i := range w.logs {
		n += w.logs[i].confirmed
	}
	return n
}

// failed is the number of transactions that ended in an error; one still
// in flight when the grace ran out is among them, because cutting its
// client off breaks the call.
func (w *windowResult) failed() int {
	n := 0
	for i := range w.logs {
		if w.logs[i].err != nil {
			n++
		}
	}
	return n
}

// firstErr returns one client's error, for the report.
func (w *windowResult) firstErr() error {
	for i := range w.logs {
		if w.logs[i].err != nil {
			return fmt.Errorf("client %d: %w", i, w.logs[i].err)
		}
	}
	return nil
}

// durations returns the ascending latencies of the window, in
// nanoseconds.
func (w *windowResult) durations() []int64 {
	var out []int64
	for i := range w.logs {
		for _, s := range w.logs[i].samples {
			out = append(out, int64(s.dur))
		}
	}
	slices.Sort(out)
	return out
}

// rateIn returns commits per second among the samples that ended in
// [from, to).
func (w *windowResult) rateIn(from, to time.Duration) float64 {
	n := 0
	for i := range w.logs {
		for _, s := range w.logs[i].samples {
			if s.end >= from && s.end < to {
				n++
			}
		}
	}
	return float64(n) / (to - from).Seconds()
}

// runWindow drives the system closed-loop: each of o.clients client
// goroutines runs its script of bodies bodies in order, again from the
// start when it runs out, one transaction at a time, the
// next one only after the previous one ended. A warm-up comes first; the
// window opens after it and closes on its deadline whatever the clients
// are doing. A transaction belongs to the window if it ends inside it. A
// client whose transaction is still in flight grace after the deadline is
// unblocked with cut (which must make the call return) and its
// transaction counted as failed, so that one stalled client cannot
// stretch a window. opened and closed run on the caller's goroutine as
// the window opens and closes.
func runWindow(o runOpts, bodies int, drive func(c, k int) error, cut, opened, closed func()) (*windowResult, error) {
	res := &windowResult{window: o.window, logs: make([]clientLog, o.clients)}
	for c := range res.logs {
		res.logs[c].samples = make([]latency, 0, maxSamples)
	}
	done := make(chan int, o.clients)
	winStart := time.Now().Add(o.warmup)
	deadline := winStart.Add(o.window)
	for c := 0; c < o.clients; c++ {
		go func(c int) {
			defer func() { done <- c }()
			lg := &res.logs[c]
			for k := 0; ; k++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := drive(c, k%bodies)
				t1 := time.Now()
				if err != nil {
					lg.err = err
					return
				}
				lg.confirmed++
				if !t1.Before(winStart) && t1.Before(deadline) {
					lg.inWindow++
					if len(lg.samples) < cap(lg.samples) {
						lg.samples = append(lg.samples, latency{end: t1.Sub(winStart), dur: t1.Sub(t0)})
					}
				}
			}
		}(c)
	}
	time.Sleep(time.Until(winStart))
	opened()
	time.Sleep(time.Until(deadline))
	closed()

	ended := 0
	timeout := time.After(grace)
	for ended < o.clients && res.stalled == 0 {
		select {
		case <-done:
			ended++
		case <-timeout:
			res.stalled = o.clients - ended
		}
	}
	if res.stalled > 0 {
		if cut == nil {
			return nil, fmt.Errorf("%d clients still in flight %v after the deadline", res.stalled, grace)
		}
		cut()
		timeout = time.After(grace)
		for ended < o.clients {
			select {
			case <-done:
				ended++
			case <-timeout:
				return nil, fmt.Errorf("%d clients did not return after being cut off", o.clients-ended)
			}
		}
	}
	return res, nil
}
