package main

import (
	"bytes"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/pmem"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// layerMetric names one per-layer metric. Every traced run reports all
// of them; a layer a workload does not load reads 0.
type layerMetric struct {
	name string
	unit string
}

func layerMetricList() []layerMetric {
	var out []layerMetric
	for _, id := range experimentIDs() {
		out = append(out, layerMetric{"experiments." + id + "_s", "s"})
	}
	return append(out,
		layerMetric{"core.runs", "count"},
		layerMetric{"core.misses", "count"},
		layerMetric{"core.hit_ratio", "frac"},
		layerMetric{"core.inflight_joins", "count"},
		layerMetric{"core.entries", "count"},
		layerMetric{"core.hit_us", "us"},
		layerMetric{"core.run_ms", "ms"},
		layerMetric{"core.recommend_cold_ms", "ms"},
		layerMetric{"stack.instances", "count"},
		layerMetric{"stack.calls", "count"},
		layerMetric{"stack.self_s", "s"},
		layerMetric{"platform.machines", "count"},
		layerMetric{"platform.build_s", "s"},
		layerMetric{"pmem.caps_ns", "ns"},
		layerMetric{"workflow.read_spec_us", "us"},
		layerMetric{"cluster.events", "count"},
		layerMetric{"cluster.passes", "count"},
		layerMetric{"cluster.pass_us", "us"},
		layerMetric{"cluster.policy_self_s", "s"},
		layerMetric{"cluster.estimator_calls", "count"},
		layerMetric{"cluster.estimates_per_pass", "count"},
		layerMetric{"cluster.estimator_s", "s"},
		layerMetric{"cluster.placed_per_estimate", "frac"},
		layerMetric{"cluster.source_s", "s"},
		layerMetric{"cluster.engine_self_s", "s"},
		layerMetric{"schedd.warm_handler_ms", "ms"},
		layerMetric{"schedd.cold_handler_ms", "ms"},
		layerMetric{"schedd.place_handler_ms", "ms"},
		layerMetric{"schedd.transport_ms", "ms"},
		layerMetric{"schedd.passes", "count"},
		layerMetric{"schedd.policy_s", "s"},
		layerMetric{"schedd.cache_hits", "count"},
		layerMetric{"schedd.cache_misses", "count"},
		layerMetric{"schedd.cache_entries", "count"},
		layerMetric{"schedd.batches", "count"},
		layerMetric{"schedd.batch_mean_size", "count"},
		layerMetric{"schedd.shed", "count"},
		layerMetric{"trace.overhead_s", "s"},
		layerMetric{"trace.overhead_frac", "frac"},
		layerMetric{"trace.spans", "count"},
	)
}

// coreStats reports the run engine's counters as deltas between two
// snapshots (entries as the final count).
func coreStats(vals map[string]float64, before, after core.RunnerStats) {
	runs := after.Runs() - before.Runs()
	vals["core.runs"] = float64(runs)
	vals["core.misses"] = float64(after.Misses - before.Misses)
	vals["core.inflight_joins"] = float64(after.Inflight - before.Inflight)
	vals["core.entries"] = float64(after.Entries)
	if runs > 0 {
		vals["core.hit_ratio"] = float64(after.Hits-before.Hits+after.Inflight-before.Inflight) / float64(runs)
	}
}

// envStats reports what the environment probe counted since snap.
func envStats(vals map[string]float64, p *envProbe, snap envSnapshot) {
	now := p.snapshot()
	vals["stack.instances"] = float64(now.instances - snap.instances)
	vals["stack.calls"] = float64(now.calls - snap.calls)
	vals["stack.self_s"] = float64(now.stackNs-snap.stackNs) / 1e9
	vals["platform.machines"] = float64(now.machines - snap.machines)
	vals["platform.build_s"] = float64(now.machineNs-snap.machineNs) / 1e9
}

type envSnapshot struct{ machines, machineNs, instances, calls, stackNs int64 }

func (p *envProbe) snapshot() envSnapshot {
	return envSnapshot{p.machines.Load(), p.machineNs.Load(), p.instances.Load(), p.calls.Load(), p.stackNs.Load()}
}

// capsSink keeps the capacity-curve results live, so the compiler
// cannot drop the calls being timed.
var capsSink float64

// layerProbes times single layers through their public entry points on
// fixed inputs (the cold corpus from the seed), the same in every
// workload's traced run.
func layerProbes(vals map[string]float64, seed int64) error {
	suite := workloads.Suite()

	// A cached key: the cost of keying and looking up a run.
	rt := core.NewRunner(core.DefaultEnv(), workers)
	if _, err := rt.Run(suite[0], core.Configs[0]); err != nil {
		return err
	}
	const hits = 20000
	t := time.Now()
	for i := 0; i < hits; i++ {
		if _, err := rt.Run(suite[0], core.Configs[0]); err != nil {
			return err
		}
	}
	vals["core.hit_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / hits

	// Cold executions: every suite workflow under every configuration.
	t = time.Now()
	for _, wf := range suite {
		for _, cfg := range core.Configs {
			if _, err := core.Run(wf, cfg, core.DefaultEnv()); err != nil {
				return err
			}
		}
	}
	vals["core.run_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6 / float64(len(suite)*len(core.Configs))

	// Cold recommendations and spec decoding on the seed's corpus.
	corpus := newColdCorpus(seed)
	var specs [][]byte
	var wfs []workflow.Spec
	for i := 0; i < 200; i++ {
		wf, spec, err := corpus.next()
		if err != nil {
			return err
		}
		wfs = append(wfs, wf)
		specs = append(specs, spec)
	}
	const recs = 20
	rt = core.NewRunner(core.DefaultEnv(), workers)
	t = time.Now()
	for _, wf := range wfs[:recs] {
		if _, err := rt.RecommendWorkflow(wf); err != nil {
			return err
		}
	}
	vals["core.recommend_cold_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6 / recs

	const passes = 5
	t = time.Now()
	for p := 0; p < passes; p++ {
		for _, s := range specs {
			if _, err := workflow.ReadSpec(bytes.NewReader(s)); err != nil {
				return err
			}
		}
	}
	vals["workflow.read_spec_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(passes*len(specs))

	// The device model's capacity curve over a fixed load grid.
	m := pmem.Gen1Optane()
	calls := 0
	t = time.Now()
	for rep := 0; rep < 20; rep++ {
		for r := 0; r <= 24; r += 2 {
			for w := 0; w <= 24; w += 2 {
				for _, pressure := range []float64{0, 0.5, 1} {
					l := pmem.Load{
						LocalReads: float64(r), RemoteReads: float64(r) / 4,
						LocalWrites: float64(w), RemoteWrites: float64(w) / 4,
						SmallReads: float64(r) / 2, SmallWrites: float64(w) / 2,
						RawReads: r, RawWrites: w, RawSmall: (r + w) / 2,
					}
					c := m.Caps(l, pressure)
					capsSink += c.Read + c.Write
					calls++
				}
			}
		}
	}
	vals["pmem.caps_ns"] = float64(time.Since(t).Nanoseconds()) / float64(calls)
	return nil
}
