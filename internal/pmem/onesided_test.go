package pmem

import (
	"math"
	"math/rand"
	"testing"
)

// twoSidedCaps is the capacity model as Caps computed it before the
// one-sided functions existed: each aggregate only when its side has
// load, then one shared efficiency scaling both. ReadCap and WriteCap
// must match it bit for bit, because the device ports call them.
func twoSidedCaps(m *Model, l Load, pressure float64) Caps {
	var c Caps
	if l.Reads() > 0 {
		c.Read = m.readAggregate(l)
	}
	if l.Writes() > 0 {
		c.Write = m.writeAggregate(l, pressure)
	}
	shared := m.sharedEfficiency(l, pressure)
	c.Read *= shared
	c.Write *= shared
	return c
}

// randomLoad draws a census the way Device.load builds one from its
// flows: the raw stream count sits near one of the model's thresholds
// (mix onset, XPBuffer thrash, small-access contention), either side
// may be empty, and each stream's duty cycle, locality and access size
// are drawn at random under a mix that favours small or remote streams
// in some draws.
func randomLoad(rng *rand.Rand, m *Model) Load {
	thresholds := []int{m.MixOnsetOps, m.XPThrashOps, m.SmallContendOps}
	raw := thresholds[rng.Intn(len(thresholds))] + rng.Intn(7) - 3
	if raw < 1 {
		raw = 1
	}
	reads := rng.Intn(raw + 1)
	switch rng.Intn(4) {
	case 0:
		reads = 0 // writes only
	case 1:
		reads = raw // reads only
	}
	pRemote, pSmall := rng.Float64(), rng.Float64()
	var l Load
	for i := 0; i < raw; i++ {
		w := rng.Float64()
		if rng.Intn(8) == 0 {
			w = 1 // a pure stream
		}
		remote, small := rng.Float64() < pRemote, rng.Float64() < pSmall
		if i < reads {
			l.RawReads++
			if remote {
				l.RemoteReads += w
			} else {
				l.LocalReads += w
			}
			if small {
				l.SmallReads += w
				l.RawSmall++
			}
			continue
		}
		l.RawWrites++
		if remote {
			l.RemoteWrites += w
		} else {
			l.LocalWrites += w
		}
		if small {
			l.SmallWrites += w
			l.RawSmall++
		}
	}
	return l
}

// TestOneSidedCapsMatchTwoSided sweeps seeded random censuses over both
// device generations and the whole pressure range: ReadCap and WriteCap
// must equal the two-sided reference, and Caps, bit for bit.
func TestOneSidedCapsMatchTwoSided(t *testing.T) {
	for _, gen := range []struct {
		name string
		m    Model
	}{{"gen1", Gen1Optane()}, {"gen2", Gen2Optane()}} {
		name, m := gen.name, gen.m
		rng := rand.New(rand.NewSource(1))
		var emptyRead, emptyWrite, mixed int
		for i := 0; i < 20000; i++ {
			l := randomLoad(rng, &m)
			pressure := rng.Float64()
			switch i % 16 {
			case 0:
				pressure = 0
			case 1:
				pressure = 1
			}
			want := twoSidedCaps(&m, l, pressure)
			r, w := m.ReadCap(l, pressure), m.WriteCap(l, pressure)
			if math.Float64bits(r) != math.Float64bits(want.Read) || math.Float64bits(w) != math.Float64bits(want.Write) {
				t.Fatalf("%s draw %d: %+v at pressure %g: ReadCap %x WriteCap %x, two-sided %x %x",
					name, i, l, pressure, math.Float64bits(r), math.Float64bits(w),
					math.Float64bits(want.Read), math.Float64bits(want.Write))
			}
			if c := m.Caps(l, pressure); c != (Caps{Read: r, Write: w}) {
				t.Fatalf("%s draw %d: Caps %+v, one-sided %g %g", name, i, c, r, w)
			}
			switch {
			case l.RawReads == 0:
				emptyRead++
			case l.RawWrites == 0:
				emptyWrite++
			default:
				mixed++
			}
		}
		if emptyRead == 0 || emptyWrite == 0 || mixed == 0 {
			t.Fatalf("%s: sweep missed a side: %d write-only, %d read-only, %d mixed", name, emptyRead, emptyWrite, mixed)
		}
	}
}
