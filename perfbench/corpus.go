package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"pmemsched/internal/workflow"
)

// The daemon workload's seeded inputs. The one --seed drives these and
// the fleet streams (see streamSeed); each generator derives its own
// random source from it, so adding draws to one never shifts another.
const (
	streamCorpus    = 1
	streamPlacement = 2
)

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// coldCorpus generates inline workflow specs no cache has seen: every
// spec carries its own name and its own draw of shape parameters, so
// each is a distinct run-engine key.
type coldCorpus struct {
	seed int64
	rng  *rand.Rand
	n    int
}

func newColdCorpus(seed int64) *coldCorpus {
	return &coldCorpus{seed: seed, rng: rngFor(seed, streamCorpus)}
}

var coldObjectSizes = []int64{4 << 10, 64 << 10, 1 << 20, 8 << 20}

// next returns the next spec as a validated Spec and its JSON form.
func (c *coldCorpus) next() (workflow.Spec, []byte, error) {
	r := c.rng
	sim := workflow.ComponentSpec{
		Name:                fmt.Sprintf("coldsim%d", r.Intn(4)),
		ComputePerIteration: 0.05 + 0.45*r.Float64(),
	}
	for k := 0; k < 1+r.Intn(2); k++ {
		sim.Objects = append(sim.Objects, workflow.ObjectSpec{
			Bytes:        coldObjectSizes[r.Intn(len(coldObjectSizes))],
			CountPerRank: 1 + r.Intn(6),
		})
	}
	ana := workflow.AnalyticsKernel{
		Name:             fmt.Sprintf("coldana%d", r.Intn(4)),
		ComputePerObject: 1e-4 + 5e-3*r.Float64(),
	}
	ranks := []int{2, 4, 6, 8}[r.Intn(4)]
	iters := 2 + r.Intn(3)
	wf := workflow.Couple(fmt.Sprintf("cold-s%d-%d", c.seed, c.n), sim, ana, ranks, iters)
	c.n++
	var b bytes.Buffer
	if err := workflow.WriteSpec(&b, wf); err != nil {
		return workflow.Spec{}, nil, err
	}
	return wf, b.Bytes(), nil
}

// catalog is the warm request set: every daemon catalog workload at the
// suite's three concurrency levels. Client B submits the same jobs, so
// set-up warms the placement path too.
var catalogNames = []string{
	"micro-64mb", "micro-2k", "gtc+readonly", "gtc+matrixmult",
	"miniamr+readonly", "miniamr+matrixmult",
}

var catalogRanks = []int{8, 16, 24}

func catalogBodies() []string {
	var out []string
	for _, name := range catalogNames {
		for _, r := range catalogRanks {
			out = append(out, fmt.Sprintf(`{"name":%q,"ranks":%d}`, name, r))
		}
	}
	return out
}

// scriptOps lists client B's requests for the seed's first n rounds.
// A round submits a job that arrives now, asks for a scheduling pass,
// then moves the clock forward; every stateEvery rounds B also reads
// the state. Offered load sits below the fleet's capacity, so jobs
// queue and backfill at times while the queue stays short.
func scriptOps(seed int64, n int) []placeOp {
	r := rngFor(seed, streamPlacement)
	var ops []placeOp
	now := 0.0
	for i := 1; i <= n; i++ {
		name := catalogNames[r.Intn(len(catalogNames))]
		ranks := catalogRanks[r.Intn(len(catalogRanks))]
		now += r.ExpFloat64() * placementInterarrival
		ops = append(ops,
			placeOp{method: "POST", path: "/v1/jobs", body: fmt.Sprintf(`{"name":%q,"ranks":%d}`, name, ranks)},
			placeOp{method: "GET", path: "/v1/schedule"},
			placeOp{method: "POST", path: "/v1/advance", body: fmt.Sprintf(`{"to_seconds":%v}`, now)})
		if i%stateEvery == 0 {
			ops = append(ops, placeOp{method: "GET", path: "/v1/state"})
		}
	}
	return ops
}
