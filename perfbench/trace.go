package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded call from the benchmark into a layer of the program.
// Spans of one op share Op; Parent links a call made inside another call.
type span struct {
	Op     int    `json:"op"` // op sequence number; -1 outside any op
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(op, parent int, layer, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Op: op, ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

func (t *tracer) setEnd(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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

// selfTimes returns, per op, the self time of each layer in nanoseconds: a
// span's duration minus the part of it that its child spans cover (children
// may overlap when they run concurrently, so their union is subtracted).
// Spans outside any op (Op < 0) are skipped.
func selfTimes(spans []span) map[int]map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]int64)
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		self := (s.End - s.Start) - covered(s, children[s.ID])
		m := out[s.Op]
		if m == nil {
			m = make(map[string]int64)
			out[s.Op] = m
		}
		m[s.Layer] += self
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// opCtx times one op. The op's time is the wall time of its top-level calls
// into the program, so work the benchmark does between calls (reloading
// inputs, checking quotients) is not charged to the op. When traced, every
// call also becomes a span, nested under the call that encloses it.
type opCtx struct {
	tr    *tracer // nil for an untraced op
	op    int
	stack []int // ids of the open spans, innermost last
	depth int
	wall  time.Duration
	alloc uint64 // heap bytes allocated inside the top-level calls
}

// call runs f as one call into layer and accounts for it.
func (c *opCtx) call(layer, name string, f func() error) error {
	top := c.depth == 0
	var a0 uint64
	if top {
		a0 = heapAllocBytes()
	}
	start := time.Now()
	id := -1
	if c.tr != nil {
		id = c.tr.add(c.op, c.parent(), layer, name, start, start)
		c.stack = append(c.stack, id)
	}
	c.depth++
	err := f()
	c.depth--
	end := time.Now()
	if c.tr != nil {
		c.stack = c.stack[:len(c.stack)-1]
		c.tr.setEnd(id, end)
	}
	if top {
		c.wall += end.Sub(start)
		c.alloc += heapAllocBytes() - a0
	}
	return err
}

// record adds a span whose interval was measured elsewhere (by the program
// itself), under the innermost open call. Untraced ops ignore it.
func (c *opCtx) record(layer, name string, start, end time.Time) {
	if c.tr != nil {
		c.tr.add(c.op, c.parent(), layer, name, start, end)
	}
}

// addTop accounts a top-level interval the benchmark measured itself (the
// open loop's lateness before a request could be sent).
func (c *opCtx) addTop(layer, name string, start, end time.Time) {
	c.wall += end.Sub(start)
	if c.tr != nil {
		c.tr.add(c.op, -1, layer, name, start, end)
	}
}

func (c *opCtx) parent() int {
	if len(c.stack) == 0 {
		return -1
	}
	return c.stack[len(c.stack)-1]
}

// diag times a diagnostic call made outside any op (it counts towards no op
// time) and records it as a span with Op = -1 when tr is set.
func diag(tr *tracer, layer, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	if tr != nil {
		tr.add(-1, -1, layer, name, start, end)
	}
	return end.Sub(start), err
}
