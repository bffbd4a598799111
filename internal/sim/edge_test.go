package sim

import "testing"

func TestTransferOpBytesClampedToTotal(t *testing.T) {
	r := NewFixedResource("link", 100)
	k := New()
	// OpBytes larger than the payload: treated as a single op of the
	// whole payload.
	k.Spawn("p", Sequence(&Transfer{
		Bytes: 50, OpBytes: 500, PerOpSeconds: 0.5,
		Path: []Resource{r}, Tag: "io",
	}))
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, end, 0.5+50.0/100, 1e-6, "single-op phase")
}

func TestWaitTargetZeroIsImmediate(t *testing.T) {
	k := New()
	c := k.NewCond("v")
	p := k.Spawn("p", Sequence(&Wait{C: c, Target: 0, Tag: "w"}, &Compute{Seconds: 1, Tag: "c"}))
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, end, 1, tol, "end")
	approx(t, p.TimeIn("w"), 0, tol, "wait time")
}

func TestSingleParticipantBarrier(t *testing.T) {
	b := NewBarrier("solo", 1)
	k := New()
	k.Spawn("p", Sequence(&Arrive{B: b, Tag: "bar"}, &Compute{Seconds: 1, Tag: "c"}))
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, end, 1, tol, "end")
	if b.Generation() != 1 {
		t.Fatalf("generation %d", b.Generation())
	}
}

func TestZeroParticipantBarrierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBarrier("bad", 0)
}

func TestBarrierDefaultName(t *testing.T) {
	if NewBarrier("", 2).Name() != "barrier" {
		t.Fatal("empty name not defaulted")
	}
}

func TestCondDefaultName(t *testing.T) {
	k := New()
	if k.NewCond("").Name() == "" {
		t.Fatal("empty cond name")
	}
	if k.NewCond("x").Name() != "x" {
		t.Fatal("explicit cond name lost")
	}
}

func TestEmptyKernelRuns(t *testing.T) {
	k := New()
	end, err := k.Run()
	if err != nil || end != 0 {
		t.Fatalf("empty kernel: %g, %v", end, err)
	}
}

func TestProcTerminatingImmediately(t *testing.T) {
	k := New()
	p := k.Spawn("noop", ProgramFunc(func(*Kernel) Stage { return nil }))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() || p.EndTime() != 0 {
		t.Fatal("immediate termination mishandled")
	}
}

func TestFlowAccessors(t *testing.T) {
	r := NewFixedResource("link", 100)
	k := New()
	var captured *Flow
	probe := probeResource{inner: r, onFlows: func(fs []*Flow) {
		if len(fs) > 0 {
			captured = fs[0]
		}
	}}
	k.Spawn("p", Sequence(&Transfer{Bytes: 100, Path: []Resource{&probe}, Tag: "io"}))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("probe saw no flows")
	}
	if captured.Rate() <= 0 || captured.DeviceRate() <= 0 {
		t.Fatal("flow rates not set")
	}
	if captured.Remaining() < 0 {
		t.Fatal("negative remaining")
	}
	if captured.Weight != 1 {
		t.Fatalf("pure stream weight %g", captured.Weight)
	}
}

// probeResource wraps a resource and observes its flow lists.
type probeResource struct {
	inner   Resource
	onFlows func([]*Flow)
}

func (p *probeResource) Name() string { return "probe:" + p.inner.Name() }
func (p *probeResource) SetFlows(now float64, fs []*Flow) {
	p.onFlows(fs)
	p.inner.SetFlows(now, fs)
}
func (p *probeResource) Evaluate() (float64, float64) { return p.inner.Evaluate() }
