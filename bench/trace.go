package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the span that caused this one (0 for a root). Start and
// End are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans from the benchmark's own files, around the calls
// into each layer; nothing inside internal/ knows about it. Spans stay
// in memory until write. The mutex is for serve_mixed, where the
// store's Append span is recorded on the HTTP handler's goroutine.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// op and root are the op being replayed and its root span: a span
	// recorded from another goroutine (the store's Append, inside the
	// HTTP handler) attaches itself there.
	op, root int
}

// setupOp is the op ID of spans recorded outside the replayed ops
// (set-up and warm-up); the metrics leave them out.
const setupOp = -1

func newTracer() *tracer { return &tracer{t0: time.Now(), op: setupOp} }

// setCurrent names the op being replayed and its root span.
func (t *tracer) setCurrent(op, root int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op, t.root = op, root
}

// current returns the op being replayed and its root span.
func (t *tracer) current() (op, root int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.op, t.root
}

// start opens a span and returns its ID (IDs are 1-based so that 0 can
// mean "no parent").
func (t *tracer) start(name string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.Start = time.Since(t.t0).Nanoseconds()
	return s.ID
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// totals sums, by name, the durations of the spans that belong to a
// replayed op.
func (t *tracer) totals() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Op != setupOp {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its direct children
// cover (children of one span never overlap here: the staged replay is
// sequential).
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id-1]
	self := time.Duration(p.End - p.Start)
	for _, s := range t.spans[id:] {
		if s.Parent == id {
			self -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
