package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call across a layer boundary: its name (the layer
// and function, e.g. "transport.Client.Attach"), the span that caused it,
// and the operation it belongs to. Times are nanoseconds since the tracer
// started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	ops  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// spanRef is an open span; end closes it. The zero value (from a nil
// tracer) is inert.
type spanRef struct {
	t *tracer
	s span
}

// newOp allocates an operation id that groups the spans of one request.
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span named name under parent (0 for a root) in op.
func (t *tracer) begin(name string, op, parent uint64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Now()
	return spanRef{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(now.Sub(t.t0)),
	}}
}

// id returns the span id for use as a child's parent.
func (r spanRef) id() uint64 { return r.s.ID }

// end closes the span and records it.
func (r spanRef) end() {
	if r.t == nil {
		return
	}
	r.s.End = int64(time.Since(r.t.t0))
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, op, parent uint64, fn func()) {
	ref := t.begin(name, op, parent)
	fn()
	ref.end()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// stageStats summarizes every span name: count, median duration and the
// median self time (duration minus the union of its children).
type stageStats struct {
	Count    int     `json:"count"`
	MedianUS float64 `json:"median_us"`
	Q1US     float64 `json:"q1_us"`
	Q3US     float64 `json:"q3_us"`
	SelfUS   float64 `json:"median_self_us"`
}

func summarizeSpans(spans []span) map[string]stageStats {
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		self := selfTime(interval{s.Start, s.End}, children[s.ID])
		selfs[s.Name] = append(selfs[s.Name], float64(self)/1e3)
	}
	out := make(map[string]stageStats, len(durs))
	for name, d := range durs {
		st := stageStats{Count: len(d), MedianUS: median(d), SelfUS: median(selfs[name])}
		if q1, _, q3, err := quartiles(d); err == nil {
			st.Q1US, st.Q3US = q1, q3
		} else {
			st.Q1US, st.Q3US = st.MedianUS, st.MedianUS
		}
		out[name] = st
	}
	return out
}

// medianOf returns the median duration in microseconds of the spans
// named name, 0 when none were recorded.
func medianOf(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e3)
		}
	}
	return median(d)
}

// writeSpans writes the spans and their per-name summary as JSON under
// dir, returning the file path.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	body, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Stages   map[string]stageStats `json:"stages"`
		Spans    []span                `json:"spans"`
	}{workload, seed, summarizeSpans(spans), spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}
