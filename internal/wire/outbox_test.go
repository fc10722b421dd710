package wire

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOutboxStopWhileSending is Outbox's delivery contract under
// concurrency: senders race a Stop, and every message whose Send
// returned true is written exactly once and in its sender's order,
// every Send after the stop returns false, and Run returns nil once the
// accepted backlog is flushed.
func TestOutboxStopWhileSending(t *testing.T) {
	const senders = 8
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetCodec(CodecBinary)
	o := NewOutbox(w, (*Writer).WriteRequests)
	ran := make(chan error, 1)
	go func() { ran <- o.Run() }()

	var total atomic.Int64
	accepted := make([]uint64, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(0); ; seq++ {
				if seq == 1<<17 {
					t.Errorf("sender %d: %d messages accepted, and no stop", s, seq)
					return
				}
				if !o.Send(Request{ID: uint64(s)<<32 | seq, Op: OpStats}) {
					accepted[s] = seq
					if o.Send(Request{ID: uint64(s)<<32 | (seq + 1), Op: OpStats}) {
						t.Errorf("sender %d: Send accepted after a refusal", s)
					}
					return
				}
				total.Add(1)
			}
		}()
	}
	for total.Load() < 2000 {
		// Let the senders and the writer overlap before the stop.
	}
	o.Stop()
	if o.Send(Request{ID: 1 << 40, Op: OpStats}) {
		t.Error("Send after Stop returned true")
	}
	wg.Wait()
	if err := <-ran; err != nil {
		t.Fatalf("Run after Stop = %v, want nil", err)
	}

	r := NewReader(&buf)
	r.SetCodec(CodecBinary)
	defer r.Release()
	next := make([]uint64, senders)
	for {
		reqs, err := r.ReadRequests()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			s, seq := req.ID>>32, req.ID&(1<<32-1)
			if s >= senders || seq != next[s] {
				t.Fatalf("read message %d of sender %d, want message %d", seq, s, next[s])
			}
			next[s]++
		}
	}
	for s := range senders {
		if next[s] != accepted[s] {
			t.Errorf("sender %d: %d messages written, %d accepted", s, next[s], accepted[s])
		}
	}
}

// failingWriter is a connection whose every write fails.
type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestOutboxWriteFailure: a failed write ends Run with that error, and
// the stopped outbox refuses every later Send.
func TestOutboxWriteFailure(t *testing.T) {
	broken := errors.New("connection reset")
	w := NewWriter(failingWriter{broken})
	w.SetCodec(CodecBinary)
	o := NewOutbox(w, (*Writer).WriteRequests)
	if !o.Send(Request{ID: 1, Op: OpStats}) {
		t.Fatal("Send before Run refused")
	}
	if err := o.Run(); !errors.Is(err, broken) {
		t.Fatalf("Run over a failing connection = %v, want %v", err, broken)
	}
	if o.Send(Request{ID: 2, Op: OpStats}) {
		t.Fatal("Send after a write failure returned true")
	}
}
