package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one record of the kernel's execution timeline: a
// completed stage of one process, with the interval it occupied and,
// for transfers, the achieved payload rate.
type TraceEvent struct {
	Proc  string  `json:"proc"`
	Tag   string  `json:"tag"`
	Kind  string  `json:"kind"` // "compute", "transfer", "wait", "barrier"
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Bytes and AvgRate are set for transfer stages.
	Bytes   float64 `json:"bytes,omitempty"`
	AvgRate float64 `json:"avg_rate,omitempty"`
}

// Tracer collects a kernel's stage timeline. Attach with
// Kernel.SetTracer before Run; the zero value is ready to use.
//
// Tracing exists for model debugging and for exporting executions to
// external timeline viewers; it has no effect on simulation results.
type Tracer struct {
	Events []TraceEvent
}

// record appends one completed-stage event.
func (tr *Tracer) record(ev TraceEvent) {
	tr.Events = append(tr.Events, ev)
}

// ByProc returns the events grouped by process name, sorted by start
// time within each group.
func (tr *Tracer) ByProc() map[string][]TraceEvent {
	out := map[string][]TraceEvent{}
	for _, ev := range tr.Events {
		out[ev.Proc] = append(out[ev.Proc], ev)
	}
	for _, evs := range out {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	}
	return out
}

// BusySeconds sums the time each process spent unblocked (compute and
// transfer stages).
func (tr *Tracer) BusySeconds() map[string]float64 {
	out := map[string]float64{}
	for _, ev := range tr.Events {
		if ev.Kind == "compute" || ev.Kind == "transfer" {
			out[ev.Proc] += ev.End - ev.Start
		}
	}
	return out
}

// chromeTraceEvent is the Chrome trace-viewer "complete" event form
// (the chrome://tracing / Perfetto JSON array format).
type chromeTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the timeline in the Chrome trace-viewer
// JSON array format (loadable in chrome://tracing or Perfetto): one
// thread per simulated process, one complete-event per stage.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	procs := make([]string, 0)
	tids := map[string]int{}
	for _, ev := range tr.Events {
		if _, ok := tids[ev.Proc]; !ok {
			tids[ev.Proc] = len(procs)
			procs = append(procs, ev.Proc)
		}
	}
	events := make([]chromeTraceEvent, 0, len(tr.Events)+len(procs))
	for _, p := range procs {
		events = append(events, chromeTraceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tids[p],
			Args: map[string]any{"name": p},
		})
	}
	for _, ev := range tr.Events {
		ce := chromeTraceEvent{
			Name: ev.Tag,
			Cat:  ev.Kind,
			Ph:   "X",
			TS:   ev.Start * 1e6,
			Dur:  (ev.End - ev.Start) * 1e6,
			PID:  1,
			TID:  tids[ev.Proc],
		}
		if ev.Kind == "transfer" {
			ce.Args = map[string]any{
				"bytes":    ev.Bytes,
				"avg_rate": fmt.Sprintf("%.3g B/s", ev.AvgRate),
			}
		}
		events = append(events, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// SetTracer attaches a tracer to the kernel. Pass nil to detach.
func (k *Kernel) SetTracer(tr *Tracer) { k.tracer = tr }

// traceFinish is called by finishStage's callers via the kernel to
// record the completed stage. It derives the event from the proc's
// in-progress stage bookkeeping.
func (k *Kernel) traceFinish(p *Proc, now float64) {
	if k.tracer == nil || p.stage == nil {
		return
	}
	ev := TraceEvent{Proc: p.name, Tag: p.tag, Start: p.tick, End: now}
	switch st := p.stage.(type) {
	case *Compute:
		ev.Kind = "compute"
	case *Transfer:
		ev.Kind = "transfer"
		ev.Bytes = st.Bytes
		if d := now - p.tick; d > 0 {
			ev.AvgRate = st.Bytes / d
		}
	case *Wait:
		ev.Kind = "wait"
	case *Arrive:
		ev.Kind = "barrier"
	}
	k.tracer.record(ev)
}
