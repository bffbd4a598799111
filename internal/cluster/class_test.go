package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"unsafe"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// countingEst wraps an estimator and counts how often each distinct
// question reaches it. Questions are keyed by the JSON encoding of the
// whole spec (or DAG) plus the configuration, independently of the
// engine's own fingerprint.
type countingEst struct {
	inner Estimator
	calls map[string]int
}

// countingDAGEst is countingEst for an inner estimator that also
// prices DAGs, so wrapping never changes which jobs are priceable.
type countingDAGEst struct{ *countingEst }

// countCalls wraps est and returns the wrapper with its call counts.
func countCalls(est Estimator) (Estimator, map[string]int) {
	c := &countingEst{inner: est, calls: map[string]int{}}
	if _, ok := est.(DAGEstimator); ok {
		return countingDAGEst{c}, c.calls
	}
	return c, c.calls
}

func (c *countingEst) count(kind string, v any, cfg string) {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	c.calls[kind+" "+cfg+" "+string(raw)]++
}

func (c *countingEst) Estimate(wf workflow.Spec, cfg core.Config) (float64, error) {
	c.count("estimate", wf, cfg.Label())
	return c.inner.Estimate(wf, cfg)
}

func (c *countingEst) Recommend(wf workflow.Spec) (core.Config, error) {
	c.count("recommend", wf, "")
	return c.inner.Recommend(wf)
}

func (c *countingEst) Profile(wf workflow.Spec, cfg core.Config) (JobProfile, error) {
	c.count("profile", wf, cfg.Label())
	return c.inner.Profile(wf, cfg)
}

func (c countingDAGEst) EstimateDAG(d workflow.DAGSpec, cfg core.Config) (float64, error) {
	c.count("estimate-dag", d, cfg.Label())
	return c.inner.(DAGEstimator).EstimateDAG(d, cfg)
}

func (c countingDAGEst) RecommendDAG(d workflow.DAGSpec) (core.Config, error) {
	c.count("recommend-dag", d, "")
	return c.inner.(DAGEstimator).RecommendDAG(d)
}

// checkMemo runs the trace twice: once under opt with the estimator
// wrapped to count its calls, and once through linearOracle, whose
// context carries no class table, so its policy asks the estimator
// directly on every query. It fails unless every distinct question
// reached the estimator at most once in the first run (Recommend once
// per class, Estimate and Profile once per class and configuration)
// and both reports are byte-identical, and returns the first run's
// metrics and report bytes.
func checkMemo(t *testing.T, label string, tr Trace, opt Options) (*Metrics, []byte) {
	t.Helper()
	counted := opt
	var calls map[string]int
	counted.Estimator, calls = countCalls(opt.Estimator)
	m, memo := simulateReport(t, label, tr, counted)
	if len(calls) == 0 {
		t.Fatalf("%s: the estimator was never asked anything", label)
	}
	for q, n := range calls {
		if n > 1 {
			t.Fatalf("%s: the estimator was asked %d times: %.200s", label, n, q)
		}
	}
	oracle := opt
	oracle.Policy = linearOracle{opt.Policy}
	if _, direct := simulateReport(t, label, tr, oracle); !bytes.Equal(memo, direct) {
		t.Fatalf("%s: the memoized engine and the direct-estimator oracle produced different report bytes", label)
	}
	return m, memo
}

// simulateReport runs the trace and returns the metrics with their
// serialized report.
func simulateReport(t *testing.T, label string, tr Trace, opt Options) (*Metrics, []byte) {
	t.Helper()
	m, err := Simulate(tr, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return m, b.Bytes()
}

// TestPriceOnce runs a contended suite stream on the production
// estimator: the queue grows hundreds deep, and every pass reads the
// configuration and profile of every waiting job. Each distinct job
// must still reach the run engine once per question, and the report
// must match the oracle's, which asks the estimator every time.
func TestPriceOnce(t *testing.T) {
	tr, err := Synthetic(workloads.Suite(), SyntheticConfig{Jobs: 600, MeanInterarrivalSeconds: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Nodes:        100,
		Policy:       PMEMAwareInterferenceAware(),
		Estimator:    NewEstimator(core.NewRunner(core.DefaultEnv(), 1)),
		Interference: DefaultInterference(),
	}
	m, _ := checkMemo(t, "suite stream", tr, opt)
	waited := 0
	for _, r := range m.Records {
		if r.WaitSeconds > 0 {
			waited++
		}
	}
	if waited < len(tr.Jobs)/2 {
		t.Fatalf("only %d of %d jobs queued: the stream is not contended, so the test proves nothing", waited, len(tr.Jobs))
	}
}

// TestJobStateSize pins jobState to its allocation size class: the
// daemon keeps one per submitted job, and the class handle must stay
// in the flags' padding (see the jobState doc comment).
func TestJobStateSize(t *testing.T) {
	if got := unsafe.Sizeof(jobState{}); got > 384 {
		t.Fatalf("jobState is %d bytes, want at most 384 (one size class)", got)
	}
}

// configCycler places queued jobs first fit, each under the Table I
// configuration its ID selects, so one class runs under all four.
type configCycler struct{}

func (configCycler) Name() string { return "config-cycler" }

func (configCycler) Schedule(ctx *SchedContext) ([]Placement, error) {
	var placed []Placement
	for _, j := range ctx.Queue {
		node := ctx.Fits(&j)
		if node < 0 {
			break
		}
		cfg := core.Configs[j.ID%len(core.Configs)]
		dur, err := ctx.Est.Estimate(j.Workflow, cfg)
		if err != nil {
			return nil, err
		}
		placed = append(placed, ctx.Place(j, node, cfg, dur, JobProfile{}))
	}
	return placed, nil
}

// TestClassMemoPerConfig pins the memo's configuration key: the engine
// prices a placement under the configuration the policy chose, so jobs
// of one class placed under different configurations must each run for
// their own configuration's estimate.
func TestClassMemoPerConfig(t *testing.T) {
	wf := workloads.GTCReadOnly(4)
	var tr Trace
	for i := 0; i < 8; i++ {
		tr.Jobs = append(tr.Jobs, Job{ID: i, Workflow: wf, ArrivalSeconds: float64(i)})
	}
	m, err := Simulate(tr, Options{Nodes: 2, CoresPerSocket: 8, Policy: configCycler{}, Estimator: variedEst{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Records {
		cfg := core.Configs[r.ID%len(core.Configs)]
		want, _ := variedEst{}.Estimate(wf, cfg)
		if r.Config != cfg.Label() || r.RunSeconds != want {
			t.Errorf("job %d ran %gs under %s, want %gs under %s", r.ID, r.RunSeconds, r.Config, want, cfg.Label())
		}
	}
}

// TestBackfillSkipsOnlyBlockedWidths pins the backfill skip: once no
// node has room for some width, wider jobs are skipped for the rest of
// the pass, but a narrower job behind them must still be tried.
//
// One 8-core node runs a 5-rank job until t=10. At t=1 an 8-rank head
// (reserved for t=10), a 6-rank and a 4-rank job, none of which fit the
// 3 free cores, queue ahead of a 2-rank, 5-second job, which fits and
// ends before the reservation, so it backfills at once.
func TestBackfillSkipsOnlyBlockedWidths(t *testing.T) {
	widths := []int{5, 8, 6, 4, 2}
	est := fakeEst{dur: map[string]float64{}}
	var tr Trace
	for i, r := range widths {
		wf := workloads.GTCReadOnly(r)
		est.dur[wf.Name] = 10
		arrival := 1.0
		if i == 0 {
			arrival = 0
		}
		tr.Jobs = append(tr.Jobs, Job{ID: i, Workflow: wf, ArrivalSeconds: arrival})
	}
	est.dur[workloads.GTCReadOnly(2).Name] = 5
	for _, pol := range []Policy{EASY(core.SLocW), EASYInterferenceAware(core.SLocW), PMEMAware()} {
		m, err := Simulate(tr, Options{Nodes: 1, CoresPerSocket: 8, Policy: pol, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		if r := recordOf(t, m, 4); r.StartSeconds != 1 {
			t.Errorf("%s: the 2-rank job started at %g, want 1 (backfilled behind the blocked wider jobs)", pol.Name(), r.StartSeconds)
		}
	}
}

// TestBackfillSkipIgnoresDRAMShortfall pins what marks a width
// blocked: a tiered job that has the cores but not the DRAM must not
// stop a wider untiered job behind it from backfilling.
//
// One 8-core node runs a 2-rank tiered job until t=10, holding most of
// the node's DRAM. At t=1 an 8-rank head (reserved for t=10) and a
// 3-rank tiered job that fits the cores but not the DRAM queue ahead
// of a 4-rank, 5-second untiered job, which backfills at once.
func TestBackfillSkipIgnoresDRAMShortfall(t *testing.T) {
	spill := workflow.TierSpec{Policy: workflow.TierDRAMFirstSpill}
	resident, short := workloads.GTCReadOnly(2), workloads.GTCReadOnly(3)
	resident.Tier, short.Tier = spill, spill
	head, narrow := workloads.MiniAMRReadOnly(8), workloads.MiniAMRReadOnly(4)
	capacity := float64(resident.TierDRAMBytes() + short.TierDRAMBytes() - 1)
	est := fakeEst{dur: map[string]float64{resident.Name: 10, short.Name: 10, head.Name: 10, narrow.Name: 5}}
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: resident, ArrivalSeconds: 0},
		{ID: 1, Workflow: head, ArrivalSeconds: 1},
		{ID: 2, Workflow: short, ArrivalSeconds: 1},
		{ID: 3, Workflow: narrow, ArrivalSeconds: 1},
	}}
	for _, pol := range []Policy{EASY(core.SLocW), EASYInterferenceAware(core.SLocW)} {
		m, err := Simulate(tr, Options{Nodes: 1, CoresPerSocket: 8, DRAMBytesPerNode: capacity, Policy: pol, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		if r := recordOf(t, m, 2); r.StartSeconds < 10 {
			t.Fatalf("%s: the DRAM-short job started at %g, before the resident freed its DRAM", pol.Name(), r.StartSeconds)
		}
		if r := recordOf(t, m, 3); r.StartSeconds != 1 {
			t.Errorf("%s: the 4-rank job started at %g, want 1 (backfilled behind the DRAM-short job)", pol.Name(), r.StartSeconds)
		}
	}
}

// TestBackfillSettleExpiresOnPlacement pins the settle key: a class
// that placed nothing is skipped only until the pass's next placement,
// which changes the snapshot the outcome was read from.
//
// Two 8-core nodes run 6-rank jobs, node 0 until t=10 and node 1 until
// t=20. At t=1 an 8-rank head (reserved on node 0 for t=10) queues
// ahead of H1 (2 ranks, 100 s), S (2 ranks, 5 s) and H2 (H1's class).
// H1's first fit is node 0, where it would break the reservation, so
// it waits and settles its class. S then backfills node 0's last two
// cores, ending before the reservation. Now H2's first fit is node 1,
// which is not reserved, so H2 must start at once.
func TestBackfillSettleExpiresOnPlacement(t *testing.T) {
	r0, r1 := workloads.GTCReadOnly(6), workloads.GTCMatrixMult(6)
	head, long, short := workloads.MiniAMRReadOnly(8), workloads.GTCReadOnly(2), workloads.GTCMatrixMult(2)
	est := fakeEst{dur: map[string]float64{r0.Name: 10, r1.Name: 20, head.Name: 10, long.Name: 100, short.Name: 5}}
	tr := Trace{Jobs: []Job{
		{ID: 0, Workflow: r0, ArrivalSeconds: 0},
		{ID: 1, Workflow: r1, ArrivalSeconds: 0},
		{ID: 2, Workflow: head, ArrivalSeconds: 1},
		{ID: 3, Workflow: long, ArrivalSeconds: 1},
		{ID: 4, Workflow: short, ArrivalSeconds: 1},
		{ID: 5, Workflow: long, ArrivalSeconds: 1},
	}}
	for _, pol := range []Policy{EASY(core.SLocW), PMEMAware(), EASYInterferenceAware(core.SLocW), PMEMAwareInterferenceAware()} {
		m, _ := checkMemo(t, pol.Name(), tr, Options{Nodes: 2, CoresPerSocket: 8, Policy: pol, Estimator: est})
		if r := recordOf(t, m, 3); r.StartSeconds < 10 {
			t.Errorf("%s: H1 started at %g, before the head's reservation", pol.Name(), r.StartSeconds)
		}
		if r := recordOf(t, m, 4); r.StartSeconds != 1 || r.Node != 0 {
			t.Errorf("%s: S started at %g on node %d, want 1 on node 0", pol.Name(), r.StartSeconds, r.Node)
		}
		if r := recordOf(t, m, 5); r.StartSeconds != 1 || r.Node != 1 {
			t.Errorf("%s: H2 started at %g on node %d, want 1 on node 1 (its class settled before S placed)", pol.Name(), r.StartSeconds, r.Node)
		}
	}
}

// TestBackfillSettleSkipsAvoidingJobs pins the settle exclusion: a
// retried job steered away from the node that killed it picks by its
// ID, not its class, so it neither reads nor sets its class's mark.
// Contended fault streams under the failure-aware pmem-aware-i policy
// must schedule exactly as the oracle, which settles nothing, and
// enough of their jobs must be retried for the comparison to bind.
func TestBackfillSettleSkipsAvoidingJobs(t *testing.T) {
	catalog, est := propertyCatalog()
	retried := 0
	for seed := int64(0); seed < 10; seed++ {
		tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 200, MeanInterarrivalSeconds: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Nodes: 4, CoresPerSocket: 8, Policy: PMEMAwareInterferenceAware(), Estimator: est,
			Interference: DefaultInterference(), Faults: RandomFaults(150, 30, seed)}
		m, _ := checkMemo(t, fmt.Sprintf("seed %d", seed), tr, opt)
		for _, r := range m.Records {
			if r.Attempts > 1 {
				retried++
			}
		}
	}
	if retried < 200 {
		t.Fatalf("only %d retried jobs across the streams: the avoid-node path is barely exercised", retried)
	}
}
