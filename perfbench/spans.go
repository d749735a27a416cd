package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one timed operation share Op; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
	ops   int64  // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates a fresh operation id.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent int, op int64) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, op int64, f func() error) error {
	_, end := t.begin(name, parent, op)
	defer end()
	return f()
}

// selfTimes returns, per span name and operation, the summed self time
// in seconds: each span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[int64]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered[s.ID]
		if self < 0 {
			self = 0
		}
		if out[s.Name] == nil {
			out[s.Name] = map[int64]float64{}
		}
		out[s.Name][s.Op] += float64(self) / 1e9
	}
	return out
}

// medianSelf is the median over operations of a layer's summed self time
// (seconds); operations in which the layer never ran are not counted.
func (t *tracer) medianSelf(self map[string]map[int64]float64, name string) float64 {
	byOp := self[name]
	vals := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		vals = append(vals, v)
	}
	return median(vals)
}

// write stores every span, ordered by start, with the host stamp.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
