// Command perfbench is the repository's benchmark. It drives the public
// entry points of every layer in one process, on a seeded workload,
// checks each output against references recorded from the program, and
// prints one JSON result line.
//
//	perfbench --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
// wraps each layer's public interface from the outside, records spans,
// and reports the per-layer metrics, the tracing overhead and a Chrome
// trace file. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
)

// workers is the run engine's pool size in every workload: the
// benchmark machine's two CPUs.
const workers = 2

const (
	suiteSetups  = 3000 // set-ups per run, for workloads whose set-up is cheap
	heavySetups  = 3    // set-ups per run, for workloads that warm a cache
	spanLimit    = 200000
	traceDir     = ".bench_build/traces"
	tracePairs   = 60  // client A warm+cold pairs in a traced daemon run
	traceRounds  = 200 // client B rounds in a traced daemon run
	suitesPerSec = 5.0 // one suite regeneration per this many --seconds
)

var workloadNames = []string{"paper-suite", "fleet-open", "fleet-queued", "schedd-mix"}

var fleetShapes = map[string]fleetShape{"fleet-open": fleetOpen, "fleet-queued": fleetQueued}

func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

type options struct {
	workload string
	seed     int64
	seconds  float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one run checked, and the lines it prints to stderr.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	native    []string // the workload's own numbers, for people
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(attempted, failed int, problems []string) {
	o.attempted += attempted
	o.failed += failed
	o.problems = append(o.problems, problems...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper-suite, fleet-open, fleet-queued or schedd-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	recordPath := fs.String("record", "", "regenerate the reference outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordPath != "" {
		if err := record(*recordPath); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res result
	var out *outcome
	if *trace == 1 {
		var vals map[string]float64
		vals, out, err = traced(o, refs)
		if err == nil {
			res.Metrics = map[string]metric{}
			for _, m := range layerMetricList() {
				res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
			}
		}
	} else {
		var e *endToEnd
		e, out, err = measure(o, refs)
		if err == nil {
			res.Metrics = e.metrics(out)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, line := range out.native {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", o.workload, line)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", o.workload, p)
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0 && out.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd is what an untraced run measured.
type endToEnd struct {
	setup []float64 // process CPU seconds per set-up
	lat   []float64 // wall milliseconds per operation
	wall  float64   // wall seconds of the measured phase
	cpu   float64   // process CPU seconds during the measured phase
	alloc uint64    // bytes allocated during the measured phase
	live  uint64    // heap in use after it, following a forced GC
}

// metrics are the end-to-end metrics every workload reports. An
// operation is the workload's unit of work: one experiment report,
// one fleet simulation, one HTTP request. The times are process CPU
// time, which leaves out the time the virtual machine's CPUs were
// taken by its host. Wall-clock throughput and latency go to stderr:
// on a shared host they drift too far from run to run to be held to
// a bound.
func (e *endToEnd) metrics(out *outcome) map[string]metric {
	ops := float64(len(e.lat))
	t := tail(e.lat)
	if !t.OK { // too few samples for a tail: report the slowest
		t.Value, t.Percentile = maxOf(e.lat), 100
	}
	out.native = append(out.native, fmt.Sprintf("wall: ops_per_s=%.4f op_p50_ms=%.4f op_tail_ms=%.4f (p%d of %d operations)",
		ops/e.wall, median(e.lat), t.Value, t.Percentile, t.Samples))
	return map[string]metric{
		"setup_s":         {median(e.setup), "s"},
		"cpu_ms_per_op":   {e.cpu * 1e3 / ops, "ms"},
		"alloc_kb_per_op": {float64(e.alloc) / 1024 / ops, "kB"},
		"live_heap_mb":    {float64(e.live) / (1 << 20), "MB"},
	}
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// repeatSetup builds the workload's fixture n times, timing each in
// process CPU time, and keeps the last; earlier ones are released after
// timing.
func repeatSetup[T any](n int, build func() (T, error), release func(T)) (T, []float64, error) {
	var fx T
	var times []float64
	for i := 0; i < n; i++ {
		t := cpuTime()
		next, err := build()
		if err != nil {
			if i > 0 && release != nil {
				release(fx)
			}
			return next, nil, err
		}
		times = append(times, (cpuTime() - t).Seconds())
		if i > 0 && release != nil {
			release(fx)
		}
		fx = next
	}
	return fx, times, nil
}

func measure(o options, refs *references) (*endToEnd, *outcome, error) {
	switch o.workload {
	case "paper-suite":
		return measureSuite(o, refs)
	case "fleet-open", "fleet-queued":
		return measureFleet(o, refs)
	case "schedd-mix":
		return measureMix(o, refs)
	}
	return nil, nil, fmt.Errorf("unknown workload (want one of %v)", workloadNames)
}

func measureSuite(o options, refs *references) (*endToEnd, *outcome, error) {
	e, out := &endToEnd{}, &outcome{}
	rt, setup, err := repeatSetup(suiteSetups, func() (*core.Runner, error) {
		return core.NewRunner(core.DefaultEnv(), workers), nil
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	e.setup = setup
	// Whole suites only, a count fixed by --seconds, so every run ranks
	// the same number of experiment latencies.
	suites := int(math.Max(1, math.Round(o.seconds/suitesPerSec)))
	var walls []float64
	mm, cpu0 := startMem(), cpuTime()
	start := time.Now()
	for i := 0; i < suites; i++ {
		if i > 0 {
			rt = core.NewRunner(core.DefaultEnv(), workers)
		}
		s, err := runSuite(rt, experiments.All(), nil)
		if err != nil {
			return nil, nil, err
		}
		out.add(s.check(refs))
		e.lat = append(e.lat, s.lat...)
		walls = append(walls, s.wall)
	}
	e.wall, e.cpu = since(start), (cpuTime() - cpu0).Seconds()
	e.alloc, e.live = mm.stop()
	st := rt.Stats()
	out.native = append(out.native, fmt.Sprintf("suite_s=%.4f s (median of %d suites; %d runs, %d misses per suite)",
		median(walls), suites, st.Runs(), st.Misses))
	return e, out, nil
}

func measureFleet(o options, refs *references) (*endToEnd, *outcome, error) {
	shape := fleetShapes[o.workload]
	e, out := &endToEnd{}, &outcome{}
	rt, setup, err := repeatSetup(heavySetups, func() (*core.Runner, error) {
		return fleetRunner(core.DefaultEnv())
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	e.setup = setup
	var outs []fleetOutput
	var perEvent []float64
	mm, cpu0 := startMem(), cpuTime()
	start := time.Now()
	for rep := 0; rep < shape.runs(o.seconds); rep++ {
		t := time.Now()
		res, err := shape.simulate(rt, streamSeed(o.seed, rep%fleetStreams), nil)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(t)
		e.lat = append(e.lat, ms(d))
		perEvent = append(perEvent, float64(d.Nanoseconds())/float64(res.events))
		outs = append(outs, res)
	}
	e.wall, e.cpu = since(start), (cpuTime() - cpu0).Seconds()
	e.alloc, e.live = mm.stop()
	st := rt.Stats() // keeps the warmed engine alive past the heap reading
	streams := min(len(outs), fleetStreams)
	want, err := fleetWant(o, shape, streams, refs)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range outs {
		sub := i % fleetStreams
		out.check(res.digest() == want[sub], "simulation %d (sub-stream %d): summary/events %s, want %s",
			i, sub, res.digest(), want[sub])
	}
	out.native = append(out.native, fmt.Sprintf("host_ns_per_event=%.1f ns (median of %d simulations over %d sub-streams; %d run-engine entries)",
		median(perEvent), len(outs), streams, st.Entries))
	return e, out, nil
}

// fleetWant returns the expected digest of sub-streams 0..n-1: the
// recorded one, or for an unrecorded seed the batch simulator's output
// (see reference).
func fleetWant(o options, shape fleetShape, n int, refs *references) ([]string, error) {
	want := make([]string, n)
	var rt *core.Runner
	for sub := range want {
		if d, ok := refs.Fleet[o.workload][refKey(o.seed, sub)]; ok {
			want[sub] = d
			continue
		}
		if rt == nil {
			rt = core.NewRunner(core.DefaultEnv(), workers)
		}
		ref, err := shape.reference(rt, streamSeed(o.seed, sub))
		if err != nil {
			return nil, err
		}
		want[sub] = ref.digest()
	}
	return want, nil
}

func measureMix(o options, refs *references) (*endToEnd, *outcome, error) {
	e, out := &endToEnd{}, &outcome{}
	d, setup, err := repeatSetup(heavySetups, func() (*daemon, error) {
		return newDaemon(core.DefaultEnv(), nil)
	}, func(d *daemon) { _ = d.close() })
	if err != nil {
		return nil, nil, err
	}
	e.setup = setup
	before := d.rt.Stats()
	mm, cpu0 := startMem(), cpuTime()
	pairs := int(math.Max(1, math.Round(pairsPerSecond*o.seconds)))
	m := runMix(d, o.seed, pairs, int(math.Max(stateCheckRound, math.Round(roundsPerSecond*o.seconds))), refs)
	e.wall, e.cpu = m.wall, (cpuTime() - cpu0).Seconds()
	e.alloc, e.live = mm.stop()
	after := d.rt.Stats()
	if err := d.close(); err != nil {
		return nil, nil, err
	}
	checkPlacement(m, o.seed, refs)
	out.add(m.attempted, m.failed, m.problems)
	checkColdMisses(out, before, after, m.cold)
	classes := []string{classWarm, classCold, classPlace, classState}
	for _, c := range classes {
		e.lat = append(e.lat, m.lat[c]...)
	}
	out.native = append(out.native, fmt.Sprintf("req_per_s=%.2f 1/s (%d requests, %d client-A pairs, %d client-B rounds)",
		float64(len(e.lat))/m.wall, len(e.lat), pairs, m.rounds))
	for _, c := range classes[:3] {
		t := tail(m.lat[c])
		out.native = append(out.native, fmt.Sprintf("%s_p50_ms=%.4f %s_tail_ms=%.4f (p%d of %d)",
			c, median(m.lat[c]), c, t.Value, t.Percentile, t.Samples))
	}
	return e, out, nil
}

// traced runs the workload's unit of work twice on fresh fixtures,
// first plain and then with every layer wrapped, checks both outputs,
// and returns the per-layer metrics of the wrapped run.
func traced(o options, refs *references) (map[string]float64, *outcome, error) {
	vals := map[string]float64{}
	out := &outcome{}
	rec := NewRecorder(spanLimit)
	var plain, wrapped float64
	var err error
	switch o.workload {
	case "paper-suite":
		plain, wrapped, err = traceSuite(vals, out, rec, refs)
	case "fleet-open", "fleet-queued":
		plain, wrapped, err = traceFleet(o, vals, out, rec, refs)
	case "schedd-mix":
		plain, wrapped, err = traceMix(o, vals, out, rec, refs)
	default:
		err = fmt.Errorf("unknown workload (want one of %v)", workloadNames)
	}
	if err != nil {
		return nil, nil, err
	}
	vals["trace.overhead_s"] = wrapped - plain
	vals["trace.overhead_frac"] = (wrapped - plain) / plain
	vals["trace.spans"] = float64(rec.Kept())
	out.native = append(out.native, fmt.Sprintf("tracing overhead %.3f s (%.1f%% of %.3f s untraced)",
		wrapped-plain, 100*(wrapped-plain)/plain, plain))
	if err := layerProbes(vals, o.seed); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := writeTrace(path, rec); err != nil {
		return nil, nil, err
	}
	out.native = append(out.native, "Chrome trace written to "+path)
	out.native = append(out.native, selfTimes(rec)...)
	return vals, out, nil
}

func writeTrace(path string, rec *Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := rec.WriteChrome(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// selfTimes lists each span name's count, total and self time, largest
// self time first.
func selfTimes(rec *Recorder) []string {
	names := rec.Names()
	sort.SliceStable(names, func(i, j int) bool { return rec.Self(names[i]) > rec.Self(names[j]) })
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("span %-28s n=%-8d total=%9.4fs self=%9.4fs", n, rec.Count(n), rec.Total(n).Seconds(), rec.Self(n).Seconds()))
	}
	return out
}

func traceSuite(vals map[string]float64, out *outcome, rec *Recorder, refs *references) (float64, float64, error) {
	plain, err := runSuite(core.NewRunner(core.DefaultEnv(), workers), experiments.All(), nil)
	if err != nil {
		return 0, 0, err
	}
	out.add(plain.check(refs))
	probe := &envProbe{}
	rt := core.NewRunner(probe.wrapEnv(core.DefaultEnv()), workers)
	snap := probe.snapshot()
	wrapped, err := runSuite(rt, experiments.All(), rec)
	if err != nil {
		return 0, 0, err
	}
	out.add(wrapped.check(refs))
	out.check(bytes.Equal(plain.text(), wrapped.text()), "traced suite text differs from the untraced one")
	out.check(digestOf(wrapped.text()) == refs.SuiteText, "suite text digest differs from the reference")
	for _, id := range wrapped.ids {
		vals["experiments."+id+"_s"] = rec.Total("experiments." + id).Seconds()
	}
	coreStats(vals, core.RunnerStats{}, rt.Stats())
	envStats(vals, probe, snap)
	return plain.wall, wrapped.wall, nil
}

func traceFleet(o options, vals map[string]float64, out *outcome, rec *Recorder, refs *references) (float64, float64, error) {
	shape := fleetShapes[o.workload]
	rt, err := fleetRunner(core.DefaultEnv())
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	plain, err := shape.simulate(rt, streamSeed(o.seed, 0), nil)
	if err != nil {
		return 0, 0, err
	}
	plainWall := since(t)

	probe := &envProbe{}
	rt, err = fleetRunner(probe.wrapEnv(core.DefaultEnv()))
	if err != nil {
		return 0, 0, err
	}
	snap, before := probe.snapshot(), rt.Stats()
	cp := &clusterProbe{rec: rec, trace: 1}
	t = time.Now()
	wrapped, err := shape.simulate(rt, streamSeed(o.seed, 0), cp)
	if err != nil {
		return 0, 0, err
	}
	wrappedWall := since(t)

	wants, err := fleetWant(o, shape, 1, refs)
	if err != nil {
		return 0, 0, err
	}
	want := wants[0]
	out.check(plain.digest() == want, "untraced simulation: summary/events %s, want %s", plain.digest(), want)
	out.check(wrapped.digest() == want, "traced simulation: summary/events %s, want %s", wrapped.digest(), want)
	out.check(plain.summary == wrapped.summary, "traced summary differs from the untraced one")

	coreStats(vals, before, rt.Stats())
	envStats(vals, probe, snap)
	calls := float64(rec.Count(spanEstimator))
	vals["cluster.events"] = float64(wrapped.events)
	vals["cluster.passes"] = float64(wrapped.passes)
	vals["cluster.pass_us"] = median(durationsMs(rec.Durations(spanPolicy))) * 1e3
	vals["cluster.policy_self_s"] = rec.Self(spanPolicy).Seconds()
	vals["cluster.estimator_calls"] = calls
	vals["cluster.estimator_s"] = rec.Total(spanEstimator).Seconds()
	vals["cluster.source_s"] = rec.Total(spanSource).Seconds()
	vals["cluster.engine_self_s"] = wrappedWall - rec.RootTotal().Seconds()
	if wrapped.passes > 0 {
		vals["cluster.estimates_per_pass"] = calls / float64(wrapped.passes)
	}
	if calls > 0 {
		vals["cluster.placed_per_estimate"] = float64(cp.placements) / calls
	}
	out.native = append(out.native, fmt.Sprintf("host_ns_per_event=%.1f ns untraced, %.1f ns traced (%d events)",
		plainWall*1e9/float64(plain.events), wrappedWall*1e9/float64(wrapped.events), wrapped.events))
	return plainWall, wrappedWall, nil
}

func traceMix(o options, vals map[string]float64, out *outcome, rec *Recorder, refs *references) (float64, float64, error) {
	d, err := newDaemon(core.DefaultEnv(), nil)
	if err != nil {
		return 0, 0, err
	}
	plain := runMix(d, o.seed, tracePairs, traceRounds, refs)
	if err := d.close(); err != nil {
		return 0, 0, err
	}

	probe := &envProbe{}
	d, err = newDaemon(probe.wrapEnv(core.DefaultEnv()), rec)
	if err != nil {
		return 0, 0, err
	}
	snap, before := probe.snapshot(), d.rt.Stats()
	metBefore, err := d.metrics()
	if err != nil {
		_ = d.close()
		return 0, 0, err
	}
	// Spans from set-up and the /metrics read are not part of the phase.
	skip := map[string]int{}
	for _, c := range []string{classWarm, classCold, classPlace, classState} {
		skip[c] = rec.Count("schedd.handler." + c)
	}
	passes0, policy0 := rec.Count(spanScheddPolicy), rec.Total(spanScheddPolicy)
	wrapped := runMix(d, o.seed, tracePairs, traceRounds, refs)
	after := d.rt.Stats()
	metAfter, err := d.metrics()
	if err != nil {
		_ = d.close()
		return 0, 0, err
	}
	if err := d.close(); err != nil {
		return 0, 0, err
	}

	for _, m := range []*mixResult{plain, wrapped} {
		checkPlacement(m, o.seed, refs)
		out.add(m.attempted, m.failed, m.problems)
	}
	same := len(plain.ops) == len(wrapped.ops)
	for i := 0; same && i < len(plain.ops); i++ {
		same = plain.ops[i] == wrapped.ops[i]
	}
	out.check(same, "traced placement responses differ from the untraced ones")
	checkColdMisses(out, before, after, wrapped.cold)

	coreStats(vals, before, after)
	envStats(vals, probe, snap)
	var clientMs, handlerMs float64
	var n int
	for _, c := range []string{classWarm, classCold, classPlace, classState} {
		hs := durationsMs(rec.Durations("schedd.handler." + c))[skip[c]:]
		for _, v := range hs {
			handlerMs += v
		}
		for _, v := range wrapped.lat[c] {
			clientMs += v
		}
		n += len(wrapped.lat[c])
		if c != classState {
			vals["schedd."+c+"_handler_ms"] = median(hs)
		}
	}
	vals["schedd.transport_ms"] = (clientMs - handlerMs) / float64(n)
	vals["schedd.passes"] = float64(rec.Count(spanScheddPolicy) - passes0)
	vals["schedd.policy_s"] = (rec.Total(spanScheddPolicy) - policy0).Seconds()
	vals["schedd.cache_hits"] = float64(after.Hits - before.Hits)
	vals["schedd.cache_misses"] = float64(after.Misses - before.Misses)
	vals["schedd.cache_entries"] = float64(after.Entries)
	batches := metAfter.Batch.Batches - metBefore.Batch.Batches
	vals["schedd.batches"] = float64(batches)
	if batches > 0 {
		vals["schedd.batch_mean_size"] = float64(metAfter.Batch.Requests-metBefore.Batch.Requests) / float64(batches)
	}
	vals["schedd.shed"] = float64(metAfter.Admission.Shed - metBefore.Admission.Shed)
	return plain.wall, wrapped.wall, nil
}
