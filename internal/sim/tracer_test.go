package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func tracedRun(t *testing.T) *Tracer {
	t.Helper()
	tr := &Tracer{}
	r := NewFixedResource("link", 100)
	k := New()
	k.SetTracer(tr)
	c := k.NewCond("v")
	k.Spawn("producer", ProgramFunc(func(k *Kernel) Stage {
		switch c.Value() {
		case 0:
			// compute then publish
			if k.Now() == 0 {
				return &Compute{Seconds: 1, Tag: "c"}
			}
			c.Publish(k, 1)
			return &Transfer{Bytes: 100, Path: []Resource{r}, Tag: "io"}
		}
		return nil
	}))
	k.Spawn("consumer", Sequence(
		&Wait{C: c, Target: 1, Tag: "wait"},
		&Transfer{Bytes: 50, Path: []Resource{r}, Tag: "io"},
	))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracerCapturesAllStageKinds(t *testing.T) {
	tr := tracedRun(t)
	kinds := map[string]bool{}
	for _, ev := range tr.Events {
		kinds[ev.Kind] = true
		if ev.End < ev.Start {
			t.Fatalf("event %v ends before it starts", ev)
		}
	}
	for _, want := range []string{"compute", "transfer", "wait"} {
		if !kinds[want] {
			t.Errorf("no %q events traced (kinds: %v)", want, kinds)
		}
	}
}

func TestTracerTransferRates(t *testing.T) {
	tr := tracedRun(t)
	found := false
	for _, ev := range tr.Events {
		if ev.Kind == "transfer" && ev.Bytes > 0 {
			found = true
			if ev.AvgRate <= 0 || ev.AvgRate > 101 {
				t.Fatalf("transfer avg rate %g outside (0, cap]", ev.AvgRate)
			}
		}
	}
	if !found {
		t.Fatal("no transfer events with bytes")
	}
}

func TestTracerByProcAndBusy(t *testing.T) {
	tr := tracedRun(t)
	byProc := tr.ByProc()
	if len(byProc["producer"]) == 0 || len(byProc["consumer"]) == 0 {
		t.Fatalf("missing per-proc events: %v", byProc)
	}
	for _, evs := range byProc {
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].Start {
				t.Fatal("per-proc events not sorted")
			}
		}
	}
	busy := tr.BusySeconds()
	if busy["producer"] <= 1.0 {
		t.Fatalf("producer busy %g, want > 1 (compute + transfer)", busy["producer"])
	}
	// The consumer's wait time must not count as busy.
	if busy["consumer"] >= busy["producer"] {
		t.Fatalf("consumer busy %g >= producer %g", busy["consumer"], busy["producer"])
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := tracedRun(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	var metas, completes int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			completes++
			if ev["dur"].(float64) < 0 {
				t.Fatal("negative duration")
			}
		}
	}
	if metas != 2 {
		t.Fatalf("%d thread metadata events, want 2", metas)
	}
	if completes != len(tr.Events) {
		t.Fatalf("%d complete events, want %d", completes, len(tr.Events))
	}
	if !strings.Contains(buf.String(), "thread_name") {
		t.Fatal("missing thread names")
	}
}

func TestTracerDetached(t *testing.T) {
	// Without a tracer the kernel must run identically and record
	// nothing (nil tracer is the default).
	k := New()
	k.Spawn("p", Sequence(&Compute{Seconds: 1, Tag: "c"}))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
