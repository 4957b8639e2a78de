package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call the benchmark made into a layer. Spans nest: the
// parent is the span that was open when this one began. Spans of one
// unit of work (a pass, an HTTP job, a probe group) share a group id.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Group  string  `json:"group"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory; they are written out when the run
// ends. The benchmark's client side is one goroutine, so spans nest
// strictly and a stack gives each span its parent. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	group string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: t.group, Layer: layer, Name: name,
		Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; it must be the innermost open
// span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// setGroup sets the group id of the spans begun next and returns the
// previous one.
func (t *tracer) setGroup(g string) string {
	if t == nil {
		return ""
	}
	prev := t.group
	t.group = g
	return prev
}

// selfTimes sums, per layer, each span's duration minus the time its
// child spans cover. Children of one span never overlap (the client
// is serial), so their coverage is the sum of their durations.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[s.Layer] += s.End - s.Start - child[i]
	}
	return self
}

// write stores the spans, the per-layer self times and the
// workload-specific values as one JSON document.
func (t *tracer) write(path string, extras map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Spans  []span             `json:"spans"`
		Self   map[string]float64 `json:"self_s"`
		Extras map[string]metric  `json:"workload_metrics"`
	}{t.spans, t.selfTimes(), extras}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
