package pmem

import (
	"testing"

	"pmemsched/internal/sim"
	"pmemsched/internal/units"
)

// These tests exercise the device under the real kernel, validating
// the pressure integrator against actual flow schedules (including the
// idle periods between checkpoint bursts, which the kernel reports by
// clearing the installed flow lists).

// writerProg emits alternating compute and write-transfer stages.
func writerProg(d *Device, compute float64, bytes float64, iters int) sim.Program {
	i, st := 0, 0
	return sim.ProgramFunc(func(k *sim.Kernel) sim.Stage {
		for {
			if i >= iters {
				return nil
			}
			switch st {
			case 0:
				st = 1
				if compute == 0 {
					continue
				}
				return &sim.Compute{Seconds: compute, Tag: "c"}
			default:
				st = 0
				i++
				return &sim.Transfer{
					Bytes: bytes,
					Path:  []sim.Resource{d.WritePort()},
					Class: sim.FlowClass{Kind: sim.Write, AccessSize: 64 * units.MiB},
					Tag:   "io",
				}
			}
		}
	})
}

func TestPressureSustainedVsBurstyUnderKernel(t *testing.T) {
	run := func(compute float64) float64 {
		d := NewDevice("pmem0", Gen1Optane())
		k := sim.New()
		for r := 0; r < 8; r++ {
			// ~0.3 s of writing per iteration at the shared rate.
			k.Spawn("w", writerProg(d, compute, 512*float64(units.MiB), 40))
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return d.Pressure()
	}
	sustained := run(0)
	bursty := run(3.0) // long compute between checkpoints
	if sustained < 0.8 {
		t.Fatalf("sustained streaming pressure %g, want near 1", sustained)
	}
	if bursty > sustained*0.5 {
		t.Fatalf("bursty pressure %g not well below sustained %g", bursty, sustained)
	}
}

func TestIdleGapsDrainPressure(t *testing.T) {
	// Regression test for the stale-census bug: after the last flow of
	// a burst completes, the kernel must clear the device's flow lists
	// so the following compute-only gap decays pressure instead of
	// integrating a stale occupancy of 1.
	d := NewDevice("pmem0", Gen1Optane())
	k := sim.New()
	k.Spawn("w", writerProg(d, 30 /* one huge gap */, 256*float64(units.MiB), 2))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two short bursts separated by 30 s of idle: the EMA must have
	// decayed across the gap, leaving low pressure after the final
	// short burst.
	if p := d.Pressure(); p > 0.3 {
		t.Fatalf("pressure %g after long idle gap; stale census?", p)
	}
}

func TestDevicePortsUnderContention(t *testing.T) {
	// Mixed read/write flows through the kernel: both must finish, and
	// the mixed run must be slower than the write-only run (mixing
	// penalty at high raw counts).
	elapsed := func(withReads bool) float64 {
		d := NewDevice("pmem0", Gen1Optane())
		k := sim.New()
		for r := 0; r < 16; r++ {
			k.Spawn("w", sim.Sequence(&sim.Transfer{
				Bytes: 256 * float64(units.MiB),
				Path:  []sim.Resource{d.WritePort()},
				Class: sim.FlowClass{Kind: sim.Write, AccessSize: 64 * units.MiB},
				Tag:   "io",
			}))
		}
		if withReads {
			for r := 0; r < 16; r++ {
				k.Spawn("r", sim.Sequence(&sim.Transfer{
					Bytes: 256 * float64(units.MiB),
					Path:  []sim.Resource{d.ReadPort()},
					Class: sim.FlowClass{Kind: sim.Read, AccessSize: 64 * units.MiB},
					Tag:   "io",
				}))
			}
		}
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	pure := elapsed(false)
	mixed := elapsed(true)
	if mixed <= pure {
		t.Fatalf("mixed run (%g) not slower than pure writes (%g)", mixed, pure)
	}
}
