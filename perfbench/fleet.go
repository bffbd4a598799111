package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/workloads"
)

// fleetShape is one fleet workload: the seeded suite stream, the
// cluster it runs on and the offered load.
type fleetShape struct {
	jobs         int
	interarrival float64 // mean seconds between arrivals
	// perSecond fixes a run at round(seconds*perSecond) simulations,
	// cycling through the seed's sub-streams. A run averages over several
	// streams of its seed, so the figures depend less on how deep one
	// stream's queue happens to grow.
	perSecond float64
}

const (
	fleetNodes = 100
	// fleetStreams is how many sub-streams one seed has.
	fleetStreams = 8
)

var (
	// 11.2 per second is 14 whole passes over the sub-streams at 10 s.
	fleetOpen   = fleetShape{jobs: 2000, interarrival: 0.27, perSecond: 11.2}
	fleetQueued = fleetShape{jobs: 600, interarrival: 0.05, perSecond: 0.7}
)

// streamSeed is the stream seed of a seed's sub-stream.
func streamSeed(seed int64, sub int) int64 { return seed*fleetStreams + int64(sub) }

// runs returns how many simulations a run of the given length makes.
func (s fleetShape) runs(seconds float64) int {
	return int(math.Max(1, math.Round(seconds*s.perSecond)))
}

// fleetOutput is what one simulation produced, as the checks compare
// it: the Summary's JSON encoding and the engine's event count.
type fleetOutput struct {
	summary string
	events  int
	passes  int
}

func (o fleetOutput) digest() string {
	h := sha256.Sum256([]byte(o.summary))
	return fmt.Sprintf("%s/%d", hex.EncodeToString(h[:8]), o.events)
}

func (s fleetShape) source(seed int64) (cluster.TraceSource, error) {
	return cluster.SyntheticSource(workloads.Suite(), cluster.SyntheticConfig{
		Jobs: s.jobs, MeanInterarrivalSeconds: s.interarrival, Seed: seed,
	})
}

// fleetRunner builds the run engine the fleet simulations share and
// fills its cache with every suite workflow's recommendation, runs and
// profiles, as a long-running scheduler's engine would hold them.
func fleetRunner(env core.Env) (*core.Runner, error) {
	rt := core.NewRunner(env, workers)
	est := cluster.NewEstimator(rt)
	for _, wf := range workloads.Suite() {
		if _, err := est.Recommend(wf); err != nil {
			return nil, err
		}
		for _, cfg := range core.Configs {
			if _, err := est.Profile(wf, cfg); err != nil {
				return nil, err
			}
		}
	}
	return rt, nil
}

// simulate runs one fleet simulation of the seeded stream. With probe
// non-nil, the estimator, policy and source are wrapped to record spans.
func (s fleetShape) simulate(rt *core.Runner, seed int64, probe *clusterProbe) (fleetOutput, error) {
	src, err := s.source(seed)
	if err != nil {
		return fleetOutput{}, err
	}
	opt := cluster.Options{
		Nodes:        fleetNodes,
		Policy:       cluster.PMEMAwareInterferenceAware(),
		Estimator:    cluster.NewEstimator(rt),
		Interference: cluster.DefaultInterference(),
		Fleet:        cluster.FleetOptions{SummaryOnly: true},
	}
	if probe != nil {
		opt.Policy = policyWrap{inner: opt.Policy, p: probe}
		opt.Estimator = estimatorWrap{inner: opt.Estimator, p: probe}
		src = sourceWrap{inner: src, p: probe}
	}
	m, err := cluster.SimulateStream(src, opt)
	if err != nil {
		return fleetOutput{}, err
	}
	sum, err := json.Marshal(m.Summary())
	if err != nil {
		return fleetOutput{}, err
	}
	return fleetOutput{summary: string(sum), events: m.Events, passes: m.Passes}, nil
}

// reference computes the expected output for a stream seed through a
// second entry point: the batch simulator over the materialized trace,
// on an unwrapped run engine that no benchmarked simulation used.
func (s fleetShape) reference(rt *core.Runner, seed int64) (fleetOutput, error) {
	tr, err := cluster.Synthetic(workloads.Suite(), cluster.SyntheticConfig{
		Jobs: s.jobs, MeanInterarrivalSeconds: s.interarrival, Seed: seed,
	})
	if err != nil {
		return fleetOutput{}, err
	}
	m, err := cluster.Simulate(tr, cluster.Options{
		Nodes:        fleetNodes,
		Policy:       cluster.PMEMAwareInterferenceAware(),
		Estimator:    cluster.NewEstimator(rt),
		Interference: cluster.DefaultInterference(),
		Fleet:        cluster.FleetOptions{SummaryOnly: true},
	})
	if err != nil {
		return fleetOutput{}, err
	}
	sum, err := json.Marshal(m.Summary())
	if err != nil {
		return fleetOutput{}, err
	}
	return fleetOutput{summary: string(sum), events: m.Events, passes: m.Passes}, nil
}
