// fleetbench measures the cluster engine's scheduling cost at fleet
// scale and writes the result as a BENCH_fleet.json document — the
// repo's performance trajectory for the fleet-scale engine work.
//
// The workload is the bundled 18-workflow suite drawn as a seeded
// synthetic Poisson stream (cluster.SyntheticSource), run through
// cluster.SimulateStream in summary-only mode so a million-job trace
// needs constant memory. That the indexed engine schedules exactly as
// a brute-force all-nodes scan would is checked by the cluster
// package's tests, not here.
//
// With -baseline the run gates against a committed BENCH_fleet.json:
// it fails (exit 1) when the fresh per-event cost regresses more than
// -tolerance times the baseline's, which is what CI's bench smoke job
// runs on every push.
//
// Exit codes: 0 success, 1 runtime failure or a failed gate, 2 usage
// error (bad flags or flag values, rejected before anything runs).
//
// Wall-clock timing lives here and not in internal/cluster because the
// simulator proper is deterministic by contract (pmemlint bans
// time.Now there); the engine exports event and pass counters and this
// command divides them by wall time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pmemsched/internal/cli"
	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/workloads"
)

// benchDoc is the BENCH_fleet.json schema, version
// "pmemsched/bench-fleet/v1". Fields under "indexed" are
// machine-dependent wall-clock measurements; everything else is
// deterministic. Future PRs append runs by regenerating the file, and
// the CI gate reads indexed.ns_per_event.
type benchDoc struct {
	Schema string      `json:"schema"`
	Config benchConfig `json:"config"`
	// Indexed is the production engine (bucketed free-capacity index,
	// copy-on-write snapshots, streaming trace, summary-only metrics).
	Indexed benchRun `json:"indexed"`
	// Summary is the simulation outcome.
	Summary cluster.Summary `json:"summary"`
}

type benchConfig struct {
	Nodes                   int     `json:"nodes"`
	Jobs                    int     `json:"jobs"`
	MeanInterarrivalSeconds float64 `json:"mean_interarrival_seconds"`
	Seed                    int64   `json:"seed"`
	Policy                  string  `json:"policy"`
	CoresPerSocket          int     `json:"cores_per_socket"`
	Stack                   string  `json:"stack"`
}

type benchRun struct {
	WallSeconds float64 `json:"wall_seconds"`
	Events      int     `json:"events"`
	Passes      int     `json:"passes"`
	NsPerEvent  float64 `json:"ns_per_event"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the command: it parses args, measures one stream and writes
// the document to -out, logging to stderr. It returns the exit code: 0
// success, 1 runtime failure or a failed -baseline gate, 2 usage error
// (bad flags or flag values, rejected before anything is simulated).
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 1000, "cluster size")
	jobs := fs.Int("jobs", 1000000, "synthetic trace length")
	interarrival := fs.Float64("interarrival", 0.027, "mean inter-arrival in seconds (Poisson; 0.027 loads the default 1k-node cluster to ~60%)")
	seed := fs.Int64("seed", 1, "trace seed")
	policyName := fs.String("policy", "easy", "scheduling policy: fcfs, easy, pmem-aware, easy-i or pmem-aware-i")
	configName := fs.String("config", "S-LocW", "fixed site-wide configuration for fcfs/easy")
	stackName := fs.String("stack", "nova", "storage stack: nova or nvstream")
	parallel := fs.Int("parallel", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	out := fs.String("out", "BENCH_fleet.json", "output path")
	baseline := fs.String("baseline", "", "committed BENCH_fleet.json to gate against (CI)")
	tolerance := fs.Float64("tolerance", 2.0, "max allowed indexed ns/event regression factor vs the baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		cli.Sayf(stderr, "fleetbench: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	env, err := cli.StackEnv(*stackName)
	if err != nil {
		cli.Sayln(stderr, "fleetbench:", err)
		return 2
	}
	fixed, err := core.ParseConfig(*configName)
	if err != nil {
		cli.Sayln(stderr, "fleetbench:", err)
		return 2
	}
	policy, err := cluster.ParsePolicy(*policyName, fixed)
	if err != nil {
		cli.Sayln(stderr, "fleetbench:", err)
		return 2
	}
	opt := cluster.Options{
		Nodes:     *nodes,
		Policy:    policy,
		Estimator: cluster.NewEstimator(core.NewRunner(env, *parallel)),
		Fleet:     cluster.FleetOptions{SummaryOnly: true},
	}
	cfg := cluster.SyntheticConfig{Jobs: *jobs, MeanInterarrivalSeconds: *interarrival, Seed: *seed}

	indexed, sum, err := measure(opt, cfg)
	if err != nil {
		cli.Sayln(stderr, "fleetbench:", err)
		return 1
	}
	doc := benchDoc{
		Schema: "pmemsched/bench-fleet/v1",
		Config: benchConfig{
			Nodes: *nodes, Jobs: *jobs, MeanInterarrivalSeconds: *interarrival,
			Seed: *seed, Policy: policy.Name(), CoresPerSocket: sum.CoresPerSocket, Stack: *stackName,
		},
		Indexed: indexed,
		Summary: sum,
	}
	cli.Sayf(stderr, "indexed: %d jobs on %d nodes in %.2fs (%.0f ns/event, %d events, %d passes)\n",
		*jobs, *nodes, indexed.WallSeconds, indexed.NsPerEvent, indexed.Events, indexed.Passes)

	if *baseline != "" {
		if err := gate(stderr, *baseline, indexed, *tolerance); err != nil {
			cli.Sayln(stderr, "fleetbench:", err)
			return 1
		}
	}
	if err := writeDoc(*out, doc); err != nil {
		cli.Sayln(stderr, "fleetbench:", err)
		return 1
	}
	return 0
}

// writeDoc writes the document to path as indented JSON.
func writeDoc(path string, doc benchDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// measure executes one simulation of the seeded stream and times it.
func measure(opt cluster.Options, cfg cluster.SyntheticConfig) (benchRun, cluster.Summary, error) {
	src, err := cluster.SyntheticSource(workloads.Suite(), cfg)
	if err != nil {
		return benchRun{}, cluster.Summary{}, err
	}
	start := time.Now()
	m, err := cluster.SimulateStream(src, opt)
	if err != nil {
		return benchRun{}, cluster.Summary{}, err
	}
	wall := time.Since(start)
	r := benchRun{
		WallSeconds: wall.Seconds(),
		Events:      m.Events,
		Passes:      m.Passes,
	}
	if m.Events > 0 {
		r.NsPerEvent = float64(wall.Nanoseconds()) / float64(m.Events)
	}
	return r, m.Summary(), nil
}

// gate compares the fresh indexed per-event cost against a committed
// baseline and fails on a regression beyond the tolerance factor.
func gate(stderr io.Writer, path string, fresh benchRun, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if base.Indexed.NsPerEvent <= 0 {
		return fmt.Errorf("baseline %s has no indexed ns/event measurement", path)
	}
	limit := base.Indexed.NsPerEvent * tolerance
	if fresh.NsPerEvent > limit {
		return fmt.Errorf("per-event scheduling cost regressed: %.0f ns/event vs baseline %.0f (limit %.0fx = %.0f)",
			fresh.NsPerEvent, base.Indexed.NsPerEvent, tolerance, limit)
	}
	cli.Sayf(stderr, "gate:    %.0f ns/event within %.1fx of baseline %.0f\n",
		fresh.NsPerEvent, tolerance, base.Indexed.NsPerEvent)
	return nil
}
