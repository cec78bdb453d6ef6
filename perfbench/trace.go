package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one read share Read;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Read   int    `json:"read"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(layer, name string, read, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Read: read, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(layer, name string, read, parent int, f func()) time.Duration {
	id := t.begin(layer, name, read, parent)
	f()
	return t.end(id)
}

// layerTimes sums each layer's span time (total) and its self time: a
// span's duration minus the part its children cover.
func (t *tracer) layerTimes() (total, self map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Layer] += d
		self[s.Layer] += d - child[s.ID]
	}
	return total, self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
