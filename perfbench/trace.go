package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name ("<layer>.<call>"), the span
// that caused it (-1 for a root), the op it belongs to (-1 for work shared
// by several ops) and its start and end in nanoseconds since the tracer's
// epoch.
type span struct {
	id, parent int
	op         int
	name       string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// layer is the span name's prefix: the package the call goes into.
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps every span of a traced run in memory until the run ends.
// Each goroutine records through its own spanBuf and merges it in once.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a recording buffer for one goroutine, attributing its spans to
// op until setOp moves it on.
func (t *tracer) buf() *spanBuf { return &spanBuf{tr: t, op: -1} }

// spanBuf records the spans of one goroutine. A nil *spanBuf records
// nothing, so instrumented code paths run untraced at the cost of a nil
// check per call.
type spanBuf struct {
	tr    *tracer
	op    int
	spans []span
	stack []int // indexes into spans of the open spans
}

// setOp attributes the spans begun from now on to op.
func (b *spanBuf) setOp(op int) {
	if b != nil {
		b.op = op
	}
}

// begin opens a span named name, nested in the innermost open span.
func (b *spanBuf) begin(name string) {
	if b == nil {
		return
	}
	parent := -1
	if n := len(b.stack); n > 0 {
		parent = b.spans[b.stack[n-1]].id
	}
	id := int(b.tr.next.Add(1))
	b.stack = append(b.stack, len(b.spans))
	b.spans = append(b.spans, span{id: id, parent: parent, op: b.op, name: name,
		start: int64(time.Since(b.tr.epoch))})
}

// end closes the innermost open span.
func (b *spanBuf) end() {
	if b == nil {
		return
	}
	i := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.spans[i].end = int64(time.Since(b.tr.epoch))
}

// flush hands the buffer's closed spans to the tracer.
func (b *spanBuf) flush() {
	if b == nil {
		return
	}
	if len(b.stack) != 0 {
		panic("perfbench: flushing a span buffer with open spans")
	}
	b.tr.mu.Lock()
	b.tr.spans = append(b.tr.spans, b.spans...)
	b.tr.mu.Unlock()
	b.spans = nil
}

// sumBy returns, per span name, the total duration in nanoseconds and the
// number of spans.
func sumBy(spans []span) (ns map[string]int64, calls map[string]int) {
	ns = make(map[string]int64)
	calls = make(map[string]int)
	for _, s := range spans {
		ns[s.name] += s.dur()
		calls[s.name]++
	}
	return ns, calls
}

// selfByLayer returns each layer's self time in nanoseconds: per span, its
// duration minus the part its child spans cover, summed over the layer's
// spans. Children of one span run on the parent's goroutine, one after the
// other, so the covered part is the sum of their durations.
func selfByLayer(spans []span) map[string]int64 {
	childNS := make(map[int]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			childNS[s.parent] += s.dur()
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.layer()] += s.dur() - childNS[s.id]
	}
	return self
}

// write stores every span as one JSON line:
// {"id":..,"parent":..,"op":..,"name":..,"start_ns":..,"end_ns":..}.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Op      int    `json:"op"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{s.id, s.parent, s.op, s.name, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
