package pmem

import (
	"math"
	"testing"
	"testing/quick"

	"pmemsched/internal/units"
)

func TestGen1OptaneValidates(t *testing.T) {
	m := Gen1Optane()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBrokenModels(t *testing.T) {
	break1 := func(mut func(*Model)) Model {
		m := Gen1Optane()
		mut(&m)
		return m
	}
	cases := []Model{
		break1(func(m *Model) { m.ReadMax = 0 }),
		break1(func(m *Model) { m.WriteMax = -1 }),
		break1(func(m *Model) { m.ReadScaleOps = 0 }),
		break1(func(m *Model) { m.WriteFloor = 1.5 }),
		break1(func(m *Model) { m.MixPenalty = 0.9; m.SmallMixBoost = 0.2 }),
		break1(func(m *Model) { m.MixFullOps = m.MixOnsetOps }),
		break1(func(m *Model) { m.MixPressureFloor = 1.2 }),
		break1(func(m *Model) { m.RemoteReadMaxPenalty = 1.0; m.RemoteReadBase = 1.2 }),
		break1(func(m *Model) { m.RemoteWriteSlopeBase = -0.1 }),
		break1(func(m *Model) { m.PressureTau = 0 }),
		break1(func(m *Model) { m.ReadLatencyLocal = 0 }),
		break1(func(m *Model) { m.ReadLatencyRemote = m.ReadLatencyLocal / 2 }),
		break1(func(m *Model) { m.DIMMs = 0 }),
		break1(func(m *Model) { m.ReadPerFlowMax = 0 }),
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: broken model validated", i)
		}
	}
}

func TestLatencyConstantsMatchPaper(t *testing.T) {
	m := Gen1Optane()
	// §II-B: "write latency of 90 ns compared to a read latency of 169 ns".
	if got := m.ReadLatency(false); math.Abs(got-169e-9) > 1e-12 {
		t.Errorf("local read latency %g, want 169ns", got)
	}
	if got := m.WriteLatency(false); math.Abs(got-90e-9) > 1e-12 {
		t.Errorf("local write latency %g, want 90ns", got)
	}
	if m.ReadLatency(true) <= m.ReadLatency(false) {
		t.Error("remote read latency must exceed local")
	}
	if m.WriteLatency(true) < m.WriteLatency(false) {
		t.Error("remote write latency must not be below local")
	}
	// Reads pay a much larger remote premium than posted writes.
	if m.ReadLatency(true)-m.ReadLatency(false) <= m.WriteLatency(true)-m.WriteLatency(false) {
		t.Error("remote premium for reads should exceed that for writes")
	}
}

func TestBandwidthPeaksMatchPaper(t *testing.T) {
	m := Gen1Optane()
	// §II-B: 39.4 GB/s local read, 13.9 GB/s local write.
	if m.ReadMax != 39.4*units.GBps {
		t.Errorf("ReadMax %g", m.ReadMax)
	}
	if m.WriteMax != 13.9*units.GBps {
		t.Errorf("WriteMax %g", m.WriteMax)
	}
	// Reads scale to 17 ops, writes to 4 (§II-B).
	if m.ReadScaleOps != 17 || m.WriteScaleOps != 4 {
		t.Errorf("scale ops %g/%g", m.ReadScaleOps, m.WriteScaleOps)
	}
}

func TestInterleaveGeometry(t *testing.T) {
	m := Gen1Optane()
	// §II-B: 4 KB chunks across 6 DIMMs form 24 KB stripes.
	if m.DIMMs != 6 || m.ChunkBytes != 4*units.KiB || m.StripeBytes != 24*units.KiB {
		t.Errorf("geometry %d/%d/%d", m.DIMMs, m.ChunkBytes, m.StripeBytes)
	}
	if m.StripeBytes != int64(m.DIMMs)*m.ChunkBytes {
		t.Error("stripe != dimms*chunk")
	}
}

func localReads(n float64) Load { return Load{LocalReads: n, RawReads: int(math.Ceil(n))} }
func localWrites(n float64) Load {
	return Load{LocalWrites: n, RawWrites: int(math.Ceil(n))}
}

func TestReadScalesLinearlyToSaturation(t *testing.T) {
	m := Gen1Optane()
	one := m.Caps(localReads(1), 0).Read
	if math.Abs(one-m.ReadMax/m.ReadScaleOps) > 1e-3*m.ReadMax {
		t.Errorf("single-reader aggregate %g", one)
	}
	// At the 17-op saturation point the aggregate reaches the peak,
	// less the internal-cache thrash factor for raw streams beyond the
	// thrash threshold.
	want := m.ReadMax
	if 17 > m.XPThrashOps {
		want /= 1 + m.XPThrashSlope*float64(17-m.XPThrashOps)
	}
	at17 := m.Caps(localReads(17), 0).Read
	if math.Abs(at17-want) > 1e-6*m.ReadMax {
		t.Errorf("17 readers aggregate %g, want %g", at17, want)
	}
	// And scaling up to 17 is monotone.
	prev := 0.0
	for n := 1; n <= 17; n++ {
		v := m.Caps(localReads(float64(n)), 0).Read
		if v < prev-1e-6 {
			t.Fatalf("read aggregate decreased at %d ops: %g -> %g", n, prev, v)
		}
		prev = v
	}
}

func TestWriteSaturatesAtFourOps(t *testing.T) {
	m := Gen1Optane()
	at4 := m.Caps(localWrites(4), 0).Write
	if math.Abs(at4-m.WriteMax) > 1e-6*m.WriteMax {
		t.Errorf("4 writers aggregate %g, want peak %g", at4, m.WriteMax)
	}
	at2 := m.Caps(localWrites(2), 0).Write
	if at2 >= at4 {
		t.Error("2 writers should not reach peak")
	}
	at12 := m.Caps(localWrites(12), 0).Write
	if at12 > at4 {
		t.Error("write bandwidth must not scale beyond 4 ops")
	}
}

func TestRemoteWriteCollapseDeepensWithPressure(t *testing.T) {
	m := Gen1Optane()
	idle := m.RemoteWritePenalty(24, 0)
	busy := m.RemoteWritePenalty(24, 1)
	if busy <= idle {
		t.Fatalf("pressure did not deepen the collapse: %g vs %g", idle, busy)
	}
	if m.RemoteWritePenalty(1, 1) != 1 {
		t.Error("single remote writer should be penalty-free")
	}
}

func TestRemoteWritesCollapseHarderThanRemoteReads(t *testing.T) {
	m := Gen1Optane()
	// §II-B: 15x write drop vs 1.3x read slowdown at 24 concurrent ops.
	local := m.Caps(Load{LocalWrites: 24, RawWrites: 24}, 1).Write
	remote := m.Caps(Load{RemoteWrites: 24, RawWrites: 24}, 1).Write
	writeRatio := local / remote
	localR := m.Caps(Load{LocalReads: 24, RawReads: 24}, 1).Read
	remoteR := m.Caps(Load{RemoteReads: 24, RawReads: 24}, 1).Read
	readRatio := localR / remoteR
	if writeRatio <= readRatio {
		t.Fatalf("remote write ratio %g not worse than read ratio %g", writeRatio, readRatio)
	}
	if readRatio > 1.35 {
		t.Errorf("remote read slowdown %g exceeds the ~1.3x measurement", readRatio)
	}
	if writeRatio < 2 {
		t.Errorf("sustained remote write collapse %g implausibly mild", writeRatio)
	}
}

func TestMixingReducesBothCaps(t *testing.T) {
	m := Gen1Optane()
	pureR := m.Caps(Load{LocalReads: 20, RawReads: 20}, 1).Read
	pureW := m.Caps(Load{LocalWrites: 20, RawWrites: 20}, 1).Write
	mixed := m.Caps(Load{LocalReads: 20, LocalWrites: 20, RawReads: 20, RawWrites: 20}, 1)
	if mixed.Read >= pureR {
		t.Errorf("mixed read cap %g not below pure %g", mixed.Read, pureR)
	}
	if mixed.Write >= pureW {
		t.Errorf("mixed write cap %g not below pure %g", mixed.Write, pureW)
	}
}

func TestMixingRampsWithRawCount(t *testing.T) {
	m := Gen1Optane()
	// Same weighted mix, different raw counts: more streams, deeper cut.
	few := m.Caps(Load{LocalReads: 3, LocalWrites: 3, RawReads: 3, RawWrites: 3}, 1).Write
	many := m.Caps(Load{LocalReads: 3, LocalWrites: 3, RawReads: 24, RawWrites: 24}, 1).Write
	if many >= few {
		t.Fatalf("mixing did not deepen with raw streams: %g vs %g", many, few)
	}
}

func TestMixingScalesWithPressure(t *testing.T) {
	m := Gen1Optane()
	l := Load{LocalReads: 10, LocalWrites: 10, RawReads: 20, RawWrites: 20}
	calm := m.Caps(l, 0).Write
	busy := m.Caps(l, 1).Write
	if busy >= calm {
		t.Fatalf("pressure did not deepen mixing: calm %g busy %g", calm, busy)
	}
}

func TestSmallAccessContention(t *testing.T) {
	m := Gen1Optane()
	big := m.Caps(Load{LocalWrites: 12, RawWrites: 12}, 0).Write
	small := m.Caps(Load{LocalWrites: 12, SmallWrites: 12, RawWrites: 12, RawSmall: 12}, 0).Write
	if small >= big {
		t.Fatalf("small accesses should contend per-DIMM: %g vs %g", small, big)
	}
}

func TestSmallClassification(t *testing.T) {
	m := Gen1Optane()
	if !m.Small(2 * units.KiB) {
		t.Error("2 KiB should be small")
	}
	if !m.Small(4608) {
		t.Error("miniAMR 4.5 KiB objects should be small")
	}
	if m.Small(64 * units.MiB) {
		t.Error("64 MiB should be large")
	}
	if m.Small(m.SmallAccessBytes) {
		t.Error("threshold itself should not be small")
	}
}

func TestRemoteReadDragSlowsWrites(t *testing.T) {
	m := Gen1Optane()
	undragged := m.Caps(Load{LocalWrites: 8, RawWrites: 8}, 1).Write
	dragged := m.Caps(Load{LocalWrites: 8, RemoteReads: 16, RawWrites: 8, RawReads: 16}, 1).Write
	if dragged >= undragged {
		t.Fatalf("remote reads should back-press writes: %g vs %g", dragged, undragged)
	}
}

// Property: caps are non-negative and never exceed the device peaks,
// for arbitrary load censuses and pressures.
func TestCapsBoundedProperty(t *testing.T) {
	m := Gen1Optane()
	f := func(lr, rr, lw, rw uint8, rawR, rawW uint8, pressure float64) bool {
		l := Load{
			LocalReads:   float64(lr % 40),
			RemoteReads:  float64(rr % 40),
			LocalWrites:  float64(lw % 40),
			RemoteWrites: float64(rw % 40),
			RawReads:     int(rawR%48) + 1,
			RawWrites:    int(rawW%48) + 1,
		}
		p := math.Mod(math.Abs(pressure), 1)
		c := m.Caps(l, p)
		if c.Read < 0 || c.Write < 0 {
			return false
		}
		return c.Read <= m.ReadMax*1.0001 && c.Write <= m.WriteMax*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: once write bandwidth is saturated (≥ WriteScaleOps local
// writers), adding remote writers never increases aggregate capacity.
// (Below saturation, extra writers — even remote ones — legitimately
// add bandwidth.)
func TestRemotePenaltyMonotoneProperty(t *testing.T) {
	m := Gen1Optane()
	f := func(w uint8, extra uint8) bool {
		base := float64(w%20) + m.WriteScaleOps
		add := float64(extra % 20)
		l1 := Load{LocalWrites: base, RemoteWrites: add, RawWrites: int(base + add)}
		l2 := Load{LocalWrites: base, RemoteWrites: add + 4, RawWrites: int(base+add) + 4}
		return m.Caps(l2, 1).Write <= m.Caps(l1, 1).Write+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
