package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary, recorded from outside
// the program: around a client call, around ServeHTTP, around a store
// method, or between two engine events.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the request id the spans of one HTTP request share: the
	// client span's id, carried to the server in a header.
	Req   uint64 `json:"req,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Status is the HTTP status of a service span.
	Status int  `json:"status,omitempty"`
	Err    bool `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu sync.Mutex
	// spans are the finished spans in finishing order; guarded by mu.
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span. A zero req makes the span its own request.
func (t *tracer) start(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	s := span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}
	if s.Req == 0 {
		s.Req = s.ID
	}
	return s
}

// finish closes and records a span.
func (t *tracer) finish(s span, err error) {
	if t == nil {
		return
	}
	s.End = t.now()
	s.Err = err != nil
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts a wall-clock instant to the tracer's span time.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.epoch))
}

// child records a closed span under parent, from start to end in span
// time.
func (t *tracer) child(parent span, name string, start, end int64) {
	if t == nil {
		return
	}
	s := span{ID: t.ids.Add(1), Parent: parent.ID, Req: parent.Req, Name: name, Start: start, End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// spanRef is the part of a span its children need.
type spanRef struct{ id, req uint64 }

// withSpan makes s the parent of spans started under ctx.
func withSpan(ctx context.Context, s span) context.Context {
	if s.ID == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{s.ID, s.Req})
}

// spanOf returns the span ctx carries (zero when none).
func spanOf(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerSummary is one span name's totals.
type layerSummary struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// summarize totals duration and self time per span name, by name.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	by := make(map[string]*layerSummary)
	for _, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			by[s.Name] = l
		}
		l.Count++
		l.Total += s.dur().Seconds()
		l.Self += self[s.ID].Seconds()
	}
	out := make([]layerSummary, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes the spans as JSON lines, then one summary line per
// span name.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, l := range summarize(spans) {
		if err := enc.Encode(map[string]layerSummary{"summary": l}); err != nil {
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

// printSummary logs the per-name totals to stderr.
func printSummary(spans []span) {
	for _, l := range summarize(spans) {
		fmt.Fprintf(os.Stderr, "perfbench: span %-26s n=%-7d total=%9.4fs self=%9.4fs\n", l.Name, l.Count, l.Total, l.Self)
	}
}
