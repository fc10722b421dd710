package wire

import "sync"

// Outbox is the outgoing half of one connection, the same at both ends:
// the server queues responses on it, the Go client requests. Any number
// of goroutines Send; one goroutine drives Run, the coalescing writer,
// which drains the whole backlog per pass into batch frames and flushes
// only when the backlog runs empty, so a pipelined burst leaves in one
// frame and typically one syscall.
type Outbox[T any] struct {
	w     *Writer
	write func(*Writer, []T) error

	mu    sync.Mutex
	queue []T // awaiting the writer (nil when drained)
	spare []T // the writer's last drained batch, recycled as the next queue
	stop  bool
	wake  chan struct{} // kicks the writer; buffered 1
}

// NewOutbox wraps a connection's Writer, already switched to the codec
// every message will travel in. write is the Writer's batch method for
// the outgoing direction: (*Writer).WriteRequests or WriteResponses.
func NewOutbox[T any](w *Writer, write func(*Writer, []T) error) *Outbox[T] {
	return &Outbox[T]{w: w, write: write, wake: make(chan struct{}, 1)}
}

// Send queues one message for the writer. It reports false, dropping the
// message, once the outbox has stopped: after Stop or a write failure.
func (o *Outbox[T]) Send(m T) bool {
	o.mu.Lock()
	if o.stop {
		o.mu.Unlock()
		return false
	}
	if o.queue == nil && o.spare != nil {
		o.queue, o.spare = o.spare, nil
	}
	o.queue = append(o.queue, m)
	o.mu.Unlock()
	o.kick()
	return true
}

// Stop refuses further messages and lets Run return once everything
// queued before it is written and flushed.
func (o *Outbox[T]) Stop() {
	o.mu.Lock()
	o.stop = true
	o.mu.Unlock()
	o.kick()
}

func (o *Outbox[T]) kick() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// Run is the writer loop; it releases the Writer when it returns. It
// returns nil after Stop, once every message sent before the stop has
// been flushed. On a write or flush error it stops the outbox, drops the
// backlog and returns the error.
func (o *Outbox[T]) Run() error {
	defer o.w.Release()
	for {
		o.mu.Lock()
		batch, stop := o.queue, o.stop
		o.queue = nil
		o.mu.Unlock()
		if len(batch) > 0 {
			if err := o.write(o.w, batch); err != nil {
				return o.fail(err)
			}
			o.mu.Lock()
			if o.spare == nil {
				o.spare = batch[:0]
			}
			o.mu.Unlock()
			continue
		}
		if err := o.w.Flush(); err != nil {
			return o.fail(err)
		}
		if stop {
			return nil
		}
		<-o.wake
	}
}

// fail stops the outbox after a write error and drops its backlog.
func (o *Outbox[T]) fail(err error) error {
	o.mu.Lock()
	o.stop, o.queue = true, nil
	o.mu.Unlock()
	return err
}
