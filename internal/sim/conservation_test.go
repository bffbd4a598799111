package sim

import (
	"math/rand"
	"testing"
)

// Conservation property: for random mixes of flows over shared
// resources, every process finishes, total simulated time is bounded
// below by aggregate-work/capacity and above by serialized work, and
// accounted stage time matches the clock.
func TestRandomizedConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		capacity := 100 + rng.Float64()*900
		r := NewFixedResource("link", capacity)
		k := New()
		n := 1 + rng.Intn(10)
		totalBytes := 0.0
		totalCompute := 0.0
		procs := make([]*Proc, n)
		for i := 0; i < n; i++ {
			nStages := 1 + rng.Intn(6)
			stages := make([]Stage, 0, 2*nStages)
			for s := 0; s < nStages; s++ {
				if rng.Float64() < 0.4 {
					d := rng.Float64() * 2
					totalCompute += d
					stages = append(stages, &Compute{Seconds: d, Tag: "c"})
				} else {
					b := 100 + rng.Float64()*10000
					totalBytes += b
					tr := &Transfer{Bytes: b, Path: []Resource{r}, Tag: "io"}
					if rng.Float64() < 0.5 {
						tr.OpBytes = b / float64(1+rng.Intn(8))
						tr.PerOpSeconds = rng.Float64() * 0.01
					}
					stages = append(stages, tr)
				}
			}
			procs[i] = k.Spawn("p", Sequence(stages...))
		}
		end, err := k.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, p := range procs {
			if !p.Done() {
				t.Fatalf("trial %d: proc %d not done", trial, i)
			}
			if p.EndTime() > end+1e-9 {
				t.Fatalf("trial %d: proc end beyond clock", trial)
			}
		}
		// Lower bound: the link must move all bytes.
		if end < totalBytes/capacity-1e-6 {
			t.Fatalf("trial %d: finished faster than link capacity allows: %g < %g",
				trial, end, totalBytes/capacity)
		}
		// Upper bound: fully serialized execution plus all software time
		// (loose but must hold; per-op software can stretch transfers).
		upper := totalBytes/capacity*float64(n) + totalCompute + 10
		if end > upper {
			t.Fatalf("trial %d: runtime %g beyond serialized bound %g", trial, end, upper)
		}
	}
}

// Weighted-census property: a flow's payload rate never exceeds its
// device share, and never exceeds opBytes/perOp (the software-bound
// throughput ceiling).
func TestSoftwareThroughputCeiling(t *testing.T) {
	r := NewFixedResource("link", 1e9)
	k := New()
	perOp := 1e-3
	opBytes := 1000.0
	p := k.Spawn("p", Sequence(&Transfer{
		Bytes: 100 * opBytes, OpBytes: opBytes, PerOpSeconds: perOp,
		Path: []Resource{r}, Tag: "io",
	}))
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 100 ops, each at least perOp long: the run takes >= 100*perOp.
	if end < 100*perOp-1e-9 {
		t.Fatalf("finished in %g, below the software floor %g", end, 100*perOp)
	}
	_ = p
}
