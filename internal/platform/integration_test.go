package platform

import (
	"testing"

	"pmemsched/internal/sim"
	"pmemsched/internal/units"
)

// End-to-end path tests: flows routed through Machine.Path must feel
// every resource on the path (device port, UPI, DRAM).

func runFlows(t *testing.T, m *Machine, n int, a Access, bytes float64) float64 {
	t.Helper()
	k := sim.New()
	for i := 0; i < n; i++ {
		path, class, _ := m.Path(a)
		k.Spawn("f", sim.Sequence(&sim.Transfer{
			Bytes: bytes, Path: path, Class: class, Tag: "io",
		}))
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestRemoteReadsBoundByUPI(t *testing.T) {
	m := Testbed()
	// 24 remote readers moving 1 GiB each: local read capacity exceeds
	// the interconnect, so the UPI (21.6 GB/s) must bound throughput.
	perFlow := float64(1 * units.GiB)
	end := runFlows(t, m, 24, Access{From: 1, Device: 0, Kind: sim.Read, Bytes: 64 * units.MiB}, perFlow)
	total := 24 * perFlow
	rate := total / end
	upi := 21.6e9
	if rate > upi*1.01 {
		t.Fatalf("aggregate remote read rate %g exceeds UPI %g", rate, upi)
	}
	if rate < upi*0.5 {
		t.Fatalf("aggregate remote read rate %g implausibly low vs UPI %g", rate, upi)
	}
}

func TestLocalReadsNotBoundByUPI(t *testing.T) {
	m := Testbed()
	perFlow := float64(1 * units.GiB)
	localEnd := runFlows(t, m, 24, Access{From: 0, Device: 0, Kind: sim.Read, Bytes: 64 * units.MiB}, perFlow)
	remoteEnd := runFlows(t, m, 24, Access{From: 1, Device: 0, Kind: sim.Read, Bytes: 64 * units.MiB}, perFlow)
	if localEnd >= remoteEnd {
		t.Fatalf("local reads (%g) not faster than remote (%g)", localEnd, remoteEnd)
	}
}

func TestWritesSeparateDevices(t *testing.T) {
	// Writers to pmem0 must not contend with writers to pmem1.
	m := Testbed()
	soloEnd := runFlows(t, m, 8, Access{From: 0, Device: 0, Kind: sim.Write, Bytes: 64 * units.MiB}, 512*float64(units.MiB))

	k := sim.New()
	spawn := func(a Access) {
		path, class, _ := m.Path(a)
		k.Spawn("w", sim.Sequence(&sim.Transfer{
			Bytes: 512 * float64(units.MiB), Path: path, Class: class, Tag: "io",
		}))
	}
	for i := 0; i < 8; i++ {
		spawn(Access{From: 0, Device: 0, Kind: sim.Write, Bytes: 64 * units.MiB})
		spawn(Access{From: 1, Device: 1, Kind: sim.Write, Bytes: 64 * units.MiB})
	}
	bothEnd, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bothEnd > soloEnd*1.05 {
		t.Fatalf("independent devices interfered: solo %g, both %g", soloEnd, bothEnd)
	}
}

func TestDRAMSharedWithinSocket(t *testing.T) {
	// Flows from the same socket share its DRAM resource; enough of
	// them must eventually bound on it. Use reads from both devices so
	// the PMEM ports are not the bottleneck.
	m := Testbed()
	k := sim.New()
	perFlow := 4 * float64(units.GiB)
	n := 24
	for i := 0; i < n; i++ {
		dev := i % 2
		path, class, _ := m.Path(Access{From: 0, Device: 0, Kind: sim.Read, Bytes: 64 * units.MiB})
		if dev == 1 {
			path, class, _ = m.Path(Access{From: 0, Device: 1, Kind: sim.Read, Bytes: 64 * units.MiB})
		}
		k.Spawn("r", sim.Sequence(&sim.Transfer{Bytes: perFlow, Path: path, Class: class, Tag: "io"}))
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(n) * perFlow / end
	dram := 105e9
	if rate > dram*1.01 {
		t.Fatalf("aggregate rate %g exceeds socket DRAM %g", rate, dram)
	}
}
