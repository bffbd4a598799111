package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded from the
// benchmark's side of the boundary. Parent is 0 for a root span; spans
// of one operation (an experiment, a simulation, a request) share
// Trace.
type Span struct {
	Name   string
	Trace  uint64
	ID     int
	Parent int
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// agg accumulates every span of one name: how many, their total and
// self time, and each duration (for percentiles).
type agg struct {
	count int
	total time.Duration
	self  time.Duration
	durs  []time.Duration
}

type openSpan struct {
	span     Span
	children time.Duration // time covered by ended children
}

// Recorder keeps spans in memory. Aggregates cover every span; the
// span list kept for the Chrome trace is capped so a long run cannot
// exhaust memory, and the count of spans left out is reported.
type Recorder struct {
	mu      sync.Mutex
	now     func() time.Duration
	nextID  int
	open    map[int]*openSpan
	aggs    map[string]*agg
	kept    []Span
	limit   int
	dropped int
	roots   time.Duration // summed duration of root spans
}

// NewRecorder returns a recorder on the wall clock that keeps at most
// limit spans for the Chrome trace.
func NewRecorder(limit int) *Recorder {
	epoch := time.Now()
	return newRecorderClock(limit, func() time.Duration { return time.Since(epoch) })
}

func newRecorderClock(limit int, now func() time.Duration) *Recorder {
	return &Recorder{now: now, open: make(map[int]*openSpan), aggs: make(map[string]*agg), limit: limit}
}

// Begin opens a span under parent (0 for a root) and returns its ID.
func (r *Recorder) Begin(name string, trace uint64, parent int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.open[id] = &openSpan{span: Span{Name: name, Trace: trace, ID: id, Parent: parent, Start: t}}
	r.mu.Unlock()
	return id
}

// End closes the span. Its self time is its duration minus the time
// its already-ended children covered; children of one span run one at
// a time on the caller's goroutine, so their durations do not overlap.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.open[id]
	if !ok {
		return
	}
	delete(r.open, id)
	o.span.End = t
	d := t - o.span.Start
	if p, ok := r.open[o.span.Parent]; ok {
		p.children += d
	}
	if o.span.Parent == 0 {
		r.roots += d
	}
	a := r.aggs[o.span.Name]
	if a == nil {
		a = &agg{}
		r.aggs[o.span.Name] = a
	}
	a.count++
	a.total += d
	a.self += d - o.children
	a.durs = append(a.durs, d)
	if len(r.kept) < r.limit {
		r.kept = append(r.kept, o.span)
	} else {
		r.dropped++
	}
}

// Count returns how many spans of the name ended.
func (r *Recorder) Count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.aggs[name]; a != nil {
		return a.count
	}
	return 0
}

// Total returns the summed duration of the name's spans.
func (r *Recorder) Total(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.aggs[name]; a != nil {
		return a.total
	}
	return 0
}

// Self returns the summed self time of the name's spans.
func (r *Recorder) Self(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.aggs[name]; a != nil {
		return a.self
	}
	return 0
}

// Durations returns a copy of the name's span durations.
func (r *Recorder) Durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.aggs[name]; a != nil {
		return append([]time.Duration(nil), a.durs...)
	}
	return nil
}

// Names returns every span name that has ended, sorted.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.aggs))
	for n := range r.aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RootTotal returns the summed duration of every root span: the time
// the recorded layers covered, nested calls counted once.
func (r *Recorder) RootTotal() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roots
}

// Kept returns how many spans the Chrome trace will hold.
func (r *Recorder) Kept() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.kept)
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]int `json:"args"`
}

// WriteChrome writes the kept spans as Chrome-trace JSON, one thread
// row per trace ID, ordered by start time.
func (r *Recorder) WriteChrome(w io.Writer) error {
	r.mu.Lock()
	spans := append([]Span(nil), r.kept...)
	dropped := r.dropped
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]int `json:"metadata"`
	}{TraceEvents: make([]chromeEvent, 0, len(spans)), Metadata: map[string]int{"dropped_spans": dropped}}
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Trace,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
