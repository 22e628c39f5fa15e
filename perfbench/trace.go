package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one job or session share Group;
// Parent is 0 for a root span. Times are nanoseconds since the tracer
// started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s *Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Layer is the name's prefix before the first dot ("firrtl.parse" →
// "firrtl").
func (s *Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths call the same helpers at no cost beyond
// a nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewTracer starts a tracer's clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Open is a span in progress.
type Open struct {
	tr     *Tracer
	id     int64
	parent int64
	group  string
	name   string
	start  time.Time
}

// Begin opens a root span for a group (job or session).
func (t *Tracer) Begin(group, name string) *Open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &Open{tr: t, id: id, group: group, name: name, start: time.Now()}
}

// Child opens a span nested in o. On a nil Open it returns nil.
func (o *Open) Child(name string) *Open {
	if o == nil {
		return nil
	}
	c := o.tr.Begin(o.group, name)
	c.parent = o.id
	return c
}

// End closes the span and records it.
func (o *Open) End() {
	if o == nil {
		return
	}
	end := time.Now()
	t := o.tr
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		ID: o.id, Parent: o.parent, Group: o.group, Name: o.name,
		Start: int64(o.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// Around runs f inside a child span of parent named name.
func Around[T any](parent *Open, name string, f func() (T, error)) (T, error) {
	sp := parent.Child(name)
	v, err := f()
	sp.End()
	return v, err
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes sums each layer's self time: a span's duration minus the time
// its direct children cover. A layer's calls are made one at a time from
// one goroutine, so a parent's children never overlap each other.
func SelfTimes(spans []Span) map[string]time.Duration {
	child := map[int64]time.Duration{}
	for i := range spans {
		if spans[i].Parent != 0 {
			child[spans[i].Parent] += spans[i].Dur()
		}
	}
	self := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		self[s.Layer()] += max(0, s.Dur()-child[s.ID])
	}
	return self
}

// Durations collects the durations of spans with the given name whose group
// passes keep (nil keeps all).
func Durations(spans []Span, name string, keep func(group string) bool) []time.Duration {
	var out []time.Duration
	for i := range spans {
		if spans[i].Name == name && (keep == nil || keep(spans[i].Group)) {
			out = append(out, spans[i].Dur())
		}
	}
	return out
}

// WriteSpans writes the spans to path as JSON, ordered by start time.
func WriteSpans(path string, spans []Span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
