package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no enclosing span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Op     int    `json:"op"` // op index; -1 outside ops
}

// tracer keeps spans in memory until the run ends. Spans nest by call
// order: the benchmark opens them on one goroutine at a time. A nil
// tracer only times.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span and returns the function that closes it and
// returns its duration.
func (t *tracer) begin(name string) func() time.Duration {
	start := time.Now()
	if t == nil {
		return func() time.Duration { return time.Since(start) }
	}
	t.mu.Lock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), Op: t.op})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return func() time.Duration {
		end := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == idx {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		return end.Sub(start)
	}
}

// setOp labels the spans opened from now on with op index i.
func (t *tracer) setOp(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the time
// its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[string]int64)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= s.End - s.Start
		}
	}
	return self
}

// spanFile is the document a traced run writes.
type spanFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns"` // per span name
}

// write stores the spans as dir/<workload>.spans.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := spanFile{Workload: workload, Seed: seed, SelfNS: t.selfTimes()}
	t.mu.Lock()
	doc.Spans = t.spans
	t.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, os.WriteFile(path, b, 0o644)
}
