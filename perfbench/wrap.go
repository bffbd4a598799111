package main

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/platform"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/workflow"
)

// The wrappers below sit on the benchmark's side of each layer's
// public interface. Each delegates every method unchanged, including
// Name(), so environment fingerprints, run keys and policy names are
// the same as without them; they only count calls and record spans.

// envProbe counts the machines and stack instances a core.Env hands
// out, and the calls and time spent inside the stack instances. Stack
// methods run on the run engine's worker goroutines, thousands of
// times per simulation, so they feed atomic totals rather than spans.
type envProbe struct {
	machines  atomic.Int64
	machineNs atomic.Int64
	instances atomic.Int64
	calls     atomic.Int64
	stackNs   atomic.Int64
}

// wrapEnv returns env with NewMachine and NewStack routed through the
// probe, building the same machines and stacks the defaults would.
func (p *envProbe) wrapEnv(env core.Env) core.Env {
	newMachine := env.NewMachine
	if newMachine == nil {
		newMachine = platform.Testbed
	}
	newStack := env.NewStack
	if newStack == nil {
		newStack = func() stack.Instance { return nova.Default() }
	}
	env.NewMachine = func() *platform.Machine {
		t := time.Now()
		m := newMachine()
		p.machineNs.Add(int64(time.Since(t)))
		p.machines.Add(1)
		return m
	}
	env.NewStack = func() stack.Instance {
		p.instances.Add(1)
		return &stackWrap{inner: newStack(), p: p}
	}
	return env
}

type stackWrap struct {
	inner stack.Instance
	p     *envProbe
}

func (s *stackWrap) done(t time.Time) {
	s.p.stackNs.Add(int64(time.Since(t)))
	s.p.calls.Add(1)
}

func (s *stackWrap) Name() string {
	defer s.done(time.Now())
	return s.inner.Name()
}

func (s *stackWrap) WriteCost(b int64) float64 {
	defer s.done(time.Now())
	return s.inner.WriteCost(b)
}

func (s *stackWrap) ReadCost(b int64) float64 {
	defer s.done(time.Now())
	return s.inner.ReadCost(b)
}

func (s *stackWrap) AccessSize(b int64) int64 {
	defer s.done(time.Now())
	return s.inner.AccessSize(b)
}

func (s *stackWrap) Append(rank int, v int64, obj stack.ObjectID, b int64) error {
	defer s.done(time.Now())
	return s.inner.Append(rank, v, obj, b)
}

func (s *stackWrap) Commit(rank int, v int64) error {
	defer s.done(time.Now())
	return s.inner.Commit(rank, v)
}

func (s *stackWrap) Fetch(rank int, v int64, obj stack.ObjectID) (int64, error) {
	defer s.done(time.Now())
	return s.inner.Fetch(rank, v, obj)
}

func (s *stackWrap) Committed(rank int) int64 {
	defer s.done(time.Now())
	return s.inner.Committed(rank)
}

// clusterProbe records the cluster layer's spans. The engine calls the
// policy, the estimator and the trace source from one goroutine, so a
// plain stack of open spans gives each span its parent.
type clusterProbe struct {
	rec        *Recorder
	trace      uint64
	open       []int
	placements int
}

func (p *clusterProbe) begin(name string) int {
	parent := 0
	if n := len(p.open); n > 0 {
		parent = p.open[n-1]
	}
	id := p.rec.Begin(name, p.trace, parent)
	p.open = append(p.open, id)
	return id
}

func (p *clusterProbe) end(id int) {
	p.open = p.open[:len(p.open)-1]
	p.rec.End(id)
}

const (
	spanPolicy    = "cluster.policy"
	spanEstimator = "cluster.estimator"
	spanSource    = "cluster.source"
)

type estimatorWrap struct {
	inner cluster.Estimator
	p     *clusterProbe
}

func (e estimatorWrap) Estimate(wf workflow.Spec, cfg core.Config) (float64, error) {
	defer e.p.end(e.p.begin(spanEstimator))
	return e.inner.Estimate(wf, cfg)
}

func (e estimatorWrap) Recommend(wf workflow.Spec) (core.Config, error) {
	defer e.p.end(e.p.begin(spanEstimator))
	return e.inner.Recommend(wf)
}

func (e estimatorWrap) Profile(wf workflow.Spec, cfg core.Config) (cluster.JobProfile, error) {
	defer e.p.end(e.p.begin(spanEstimator))
	return e.inner.Profile(wf, cfg)
}

type policyWrap struct {
	inner cluster.Policy
	p     *clusterProbe
}

func (w policyWrap) Name() string { return w.inner.Name() }

func (w policyWrap) Schedule(ctx *cluster.SchedContext) ([]cluster.Placement, error) {
	defer w.p.end(w.p.begin(spanPolicy))
	pls, err := w.inner.Schedule(ctx)
	w.p.placements += len(pls)
	return pls, err
}

type sourceWrap struct {
	inner cluster.TraceSource
	p     *clusterProbe
}

func (s sourceWrap) Next() (cluster.Job, bool, error) {
	defer s.p.end(s.p.begin(spanSource))
	return s.inner.Next()
}

// scheddPolicyWrap records the daemon's placement passes. The daemon
// calls its policy under the store mutex, so passes never overlap.
type scheddPolicyWrap struct {
	inner cluster.Policy
	rec   *Recorder
}

const (
	spanScheddPolicy = "schedd.policy"
	headerClass      = "X-Bench-Class"
	headerSeq        = "X-Bench-Seq"
)

func (w scheddPolicyWrap) Name() string { return w.inner.Name() }

func (w scheddPolicyWrap) Schedule(ctx *cluster.SchedContext) ([]cluster.Placement, error) {
	defer w.rec.End(w.rec.Begin(spanScheddPolicy, 0, 0))
	return w.inner.Schedule(ctx)
}

// timedHandler wraps Server.Handler() and records one span per
// request, named after the request class the client put in a header
// (the daemon ignores unknown headers), with the client's sequence
// number as the trace ID.
func timedHandler(next http.Handler, rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseUint(r.Header.Get(headerSeq), 10, 64)
		id := rec.Begin("schedd.handler."+r.Header.Get(headerClass), seq, 0)
		next.ServeHTTP(w, r)
		rec.End(id)
	})
}
