package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Span names. The part before the dot is the layer (a package of the
// repo) the span is charged to.
const (
	spTxn uint8 = iota
	spClientOpen
	spClientStep
	spClientCommit
	spClientRun
	spPolicyCheck
	spPolicyStep
	spPolicyFootprint
	spPolicyFork
	spPolicyGrow
	spPersistEvents
	spPersistStatus
	spPersistOpen
	spPersistCompact
	spPersistRotate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.txn",
	"client.open", "client.step", "client.commit", "client.run",
	"policy.check", "policy.step", "policy.footprint", "policy.fork", "policy.grow",
	"recovery.persist_events", "recovery.persist_status", "recovery.persist_open",
	"recovery.persist_compact", "recovery.rotate",
}

// span is one timed interval: times are nanoseconds since the recorder's
// base, parent indexes the span that caused it (-1 for none) and txn is
// the transaction's index in the generated scripts (-1 where the seam
// does not say).
type span struct {
	start, end  int64
	parent, txn int32
	name        uint8
}

// maxSpans is the recorder's preallocated capacity; spans beyond it are
// counted as dropped, not recorded.
const maxSpans = 1 << 20

// recorder keeps the traced run's spans in memory allocated before the
// window opens. A slot is claimed with one atomic add, so recording from
// the client goroutines and the server's goroutines needs no lock.
type recorder struct {
	on      atomic.Bool
	base    time.Time
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span
	// cur[txn] is the client-call span of that transaction now open, the
	// parent of whatever the server does on its behalf meanwhile.
	cur []atomic.Int32
}

func newRecorder(txns int) *recorder {
	r := &recorder{base: time.Now(), spans: make([]span, maxSpans), cur: make([]atomic.Int32, txns)}
	for i := range r.cur {
		r.cur[i].Store(-1)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// open starts a span other spans may name as their parent and makes it
// the transaction's current one. It returns -1 while recording is off or
// the buffer is full; close(-1) is a no-op.
func (r *recorder) open(name uint8, parent, txn int32) int32 {
	if !r.on.Load() {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{start: r.now(), parent: parent, txn: txn, name: name}
	r.cur[txn].Store(int32(i))
	return int32(i)
}

// close ends a span from open and hands the transaction back to parent.
func (r *recorder) close(i int32) {
	if i < 0 {
		return
	}
	sp := &r.spans[i]
	sp.end = r.now()
	r.cur[sp.txn].Store(sp.parent)
}

// leaf records a finished span that started at start, under the
// transaction's current client-call span when txn is known.
func (r *recorder) leaf(name uint8, start int64, txn int32) {
	end := r.now()
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	parent := int32(-1)
	if txn >= 0 && int(txn) < len(r.cur) {
		parent = r.cur[txn].Load()
	}
	r.spans[i] = span{start: start, end: end, parent: parent, txn: txn, name: name}
}

// finished returns the recorded spans.
func (r *recorder) finished() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// durations returns the ascending durations of the closed spans of one
// name, and their sum.
func (r *recorder) durations(name uint8) ([]int64, int64) {
	var out []int64
	var sum int64
	for _, sp := range r.finished() {
		if sp.name == name && sp.end > 0 {
			out = append(out, sp.end-sp.start)
			sum += sp.end - sp.start
		}
	}
	slices.Sort(out)
	return out, sum
}

// selfTimes charges each closed span's duration, less the part its
// children cover, to its layer.
func (r *recorder) selfTimes() map[string]int64 {
	spans := r.finished()
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.end > 0 && sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	self := make(map[string]int64)
	for i, sp := range spans {
		if sp.end == 0 {
			continue
		}
		d := sp.end - sp.start - child[i]
		if d < 0 {
			// Children on other goroutines can overlap each other.
			d = 0
		}
		layer, _, _ := strings.Cut(spanNames[sp.name], ".")
		self[layer] += d
	}
	return self
}

// write dumps the spans as JSON: a header with the per-layer self times
// and the dropped count, then one object per span in recording order, so
// that parent is an index into the array. A span still open when the
// window was cut has end 0.
func (r *recorder) write(path string, stamp map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"stamp\":%s,\n\"dropped\":%d,\n\"self_ns\":%s,\n\"spans\":[\n",
		mustJSON(stamp), r.dropped.Load(), mustJSON(r.selfTimes()))
	var line []byte
	first := true
	for _, sp := range r.finished() {
		line = line[:0]
		if !first {
			line = append(line, ",\n"...)
		}
		first = false
		line = append(line, `{"name":"`...)
		line = append(line, spanNames[sp.name]...)
		line = append(line, `","start":`...)
		line = strconv.AppendInt(line, sp.start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendInt(line, sp.end, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(sp.parent), 10)
		line = append(line, `,"txn":`...)
		line = strconv.AppendInt(line, int64(sp.txn), 10)
		line = append(line, '}')
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer is the traced run's instrumentation: the span recorder plus the
// counters of the seam wrappers (seams.go) and of the traced client loop.
type tracer struct {
	rec *recorder
	// footprints and drains count Footprint calls, and those among them
	// whose event the gate cannot admit under stripes: a global monitor
	// footprint or a structural step.
	footprints, drains atomic.Int64
	// persist counts the persister's calls, shared by the wrappers of every
	// partition's store.
	persist struct{ calls, batches, events, rotates, walBytes atomic.Int64 }
	net     netCounts
	retries atomic.Int64
}

func newTracer(clients int) *tracer {
	return &tracer{rec: newRecorder(clients * scriptLen)}
}

// setOn opens or closes the recording window.
func (tr *tracer) setOn(on bool) {
	tr.rec.on.Store(on)
	tr.net.on.Store(on)
}
