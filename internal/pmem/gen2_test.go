package pmem

import "testing"

func TestGen2OptaneValidates(t *testing.T) {
	m := Gen2Optane()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGen2ImprovesOnGen1(t *testing.T) {
	g1, g2 := Gen1Optane(), Gen2Optane()
	if g2.ReadMax <= g1.ReadMax || g2.WriteMax <= g1.WriteMax {
		t.Fatal("Gen-2 peaks not above Gen-1")
	}
	if g2.ReadPerFlowMax <= g1.ReadPerFlowMax || g2.WritePerFlowMax <= g1.WritePerFlowMax {
		t.Fatal("Gen-2 per-flow caps not above Gen-1")
	}
	if g2.WriteScaleOps <= g1.WriteScaleOps {
		t.Fatal("Gen-2 write combining not deeper")
	}
	// The trade-off STRUCTURE is shared: same latencies, same interleave
	// geometry, same penalty shapes.
	if g2.ReadLatencyLocal != g1.ReadLatencyLocal || g2.WriteLatencyLocal != g1.WriteLatencyLocal {
		t.Fatal("media latencies should carry over")
	}
	if g2.DIMMs != g1.DIMMs || g2.ChunkBytes != g1.ChunkBytes {
		t.Fatal("interleave geometry should carry over")
	}
}

func TestGen2KeepsQualitativeAsymmetries(t *testing.T) {
	m := Gen2Optane()
	// Reads still outpace writes.
	if m.ReadMax <= m.WriteMax {
		t.Fatal("read/write asymmetry lost")
	}
	// Remote writes still collapse harder than remote reads under
	// sustained pressure.
	localW := m.Caps(Load{LocalWrites: 24, RawWrites: 24}, 1).Write
	remoteW := m.Caps(Load{RemoteWrites: 24, RawWrites: 24}, 1).Write
	localR := m.Caps(Load{LocalReads: 24, RawReads: 24}, 1).Read
	remoteR := m.Caps(Load{RemoteReads: 24, RawReads: 24}, 1).Read
	if localW/remoteW <= localR/remoteR {
		t.Fatal("remote-write collapse asymmetry lost")
	}
}
