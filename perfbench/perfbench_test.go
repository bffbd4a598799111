package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
	"pmemsched/internal/schedd"
	"pmemsched/internal/workflow"
)

func TestWrappedSuiteTextIdentical(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	var exps []experiments.Experiment
	for _, id := range []string{"fig4", "tab2", "stackcmp", "online"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	plain, err := runSuite(core.NewRunner(core.DefaultEnv(), workers), exps, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := &envProbe{}
	rec := NewRecorder(100)
	wrapped, err := runSuite(core.NewRunner(probe.wrapEnv(core.DefaultEnv()), workers), exps, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.text(), wrapped.text()) {
		t.Fatal("wrapped run rendered different text")
	}
	for i, id := range wrapped.ids {
		if digestOf(wrapped.reports[i]) != refs.Suite[id] {
			t.Errorf("%s: report differs from the reference", id)
		}
	}
	if probe.calls.Load() == 0 || probe.machines.Load() == 0 || rec.Count("experiments.fig4") != 1 {
		t.Errorf("probe saw %d stack calls, %d machines, %d fig4 spans", probe.calls.Load(), probe.machines.Load(), rec.Count("experiments.fig4"))
	}
}

func TestWrappedFleetSummaryIdentical(t *testing.T) {
	shape := fleetShape{jobs: 150, interarrival: 0.05}
	rt, err := fleetRunner(core.DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := shape.simulate(rt, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := &envProbe{}
	wrt, err := fleetRunner(probe.wrapEnv(core.DefaultEnv()))
	if err != nil {
		t.Fatal(err)
	}
	cp := &clusterProbe{rec: NewRecorder(10)}
	wrapped, err := shape.simulate(wrt, 5, cp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shape.reference(core.NewRunner(core.DefaultEnv(), workers), 5)
	if err != nil {
		t.Fatal(err)
	}
	if plain.summary != wrapped.summary || plain.events != wrapped.events || plain.digest() != ref.digest() {
		t.Fatalf("summaries differ:\nplain   %s\nwrapped %s\nbatch   %s", plain.summary, wrapped.summary, ref.summary)
	}
	if got := cp.rec.Count(spanPolicy); got != wrapped.passes {
		t.Errorf("%d policy spans for %d passes", got, wrapped.passes)
	}
	if cp.rec.Count(spanSource) != shape.jobs+1 {
		t.Errorf("%d source spans for %d jobs", cp.rec.Count(spanSource), shape.jobs)
	}
}

// serve sends the requests to a fresh in-process daemon and returns
// each response's status and body digest.
func serve(t *testing.T, rec *Recorder, ops []placeOp) []placeOp {
	t.Helper()
	var policy cluster.Policy = cluster.PMEMAware()
	if rec != nil {
		policy = scheddPolicyWrap{inner: policy, rec: rec}
	}
	srv, err := schedd.New(schedd.Config{Runner: core.NewRunner(core.DefaultEnv(), workers), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.AddNodes(placementNodes)
	h := srv.Handler()
	if rec != nil {
		h = timedHandler(h, rec)
	}
	out := make([]placeOp, len(ops))
	for i, op := range ops {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(op.method, op.path, strings.NewReader(op.body))
		req.Header.Set(headerClass, classPlace)
		h.ServeHTTP(w, req)
		out[i] = placeOp{method: op.method, path: op.path, body: op.body, status: w.Code, digest: digestOf(w.Body.Bytes())}
	}
	return out
}

func TestWrappedDaemonResponsesIdentical(t *testing.T) {
	var ops []placeOp
	for _, body := range catalogBodies()[:4] {
		ops = append(ops, placeOp{method: "POST", path: "/v1/recommend", body: body})
	}
	corpus := newColdCorpus(9)
	for i := 0; i < 3; i++ {
		_, spec, err := corpus.next()
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, placeOp{method: "POST", path: "/v1/recommend", body: `{"workflow":` + string(spec) + `}`})
	}
	ops = append(ops, scriptOps(9, 30)...)
	rec := NewRecorder(1000)
	plain, wrapped := serve(t, nil, ops), serve(t, rec, ops)
	for i := range ops {
		if plain[i] != wrapped[i] || plain[i].status != 200 {
			t.Fatalf("request %d (%s %s): plain %d %s, wrapped %d %s", i, ops[i].method, ops[i].path,
				plain[i].status, plain[i].digest, wrapped[i].status, wrapped[i].digest)
		}
	}
	if rec.Count("schedd.handler."+classPlace) != len(ops) || rec.Count(spanScheddPolicy) == 0 {
		t.Errorf("%d handler spans for %d requests, %d policy spans", rec.Count("schedd.handler."+classPlace), len(ops), rec.Count(spanScheddPolicy))
	}
}

func TestTailTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so tail must sort
		}
		return v
	}
	if st := tail(seq(10)); st.OK || st.Samples != 10 {
		t.Errorf("10 samples: %+v, want no tail", st)
	}
	for _, c := range []struct{ n, p, beyond int }{
		{11, 9, 10}, {44, 77, 10}, {100, 90, 10}, {1000, 99, 10}, {5000, 99, 50},
	} {
		st := tail(seq(c.n))
		beyond := 0
		for _, v := range seq(c.n) {
			if v > st.Value {
				beyond++
			}
		}
		if !st.OK || st.Samples != c.n || beyond != c.beyond || st.Percentile != c.p {
			t.Errorf("n=%d: %+v with %d beyond, want p%d with %d beyond", c.n, st, beyond, c.p, c.beyond)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeOnSpanTree(t *testing.T) {
	var now time.Duration
	rec := newRecorderClock(10, func() time.Duration { return now })
	at := func(d time.Duration) { now = d }
	// root [0,100] { a [10,30], b [40,70] { c [50,60] } }, then a
	// second root d [100,105].
	at(0)
	root := rec.Begin("root", 1, 0)
	at(10)
	a := rec.Begin("a", 1, root)
	at(30)
	rec.End(a)
	at(40)
	b := rec.Begin("b", 1, root)
	at(50)
	c := rec.Begin("c", 1, b)
	at(60)
	rec.End(c)
	at(70)
	rec.End(b)
	at(100)
	rec.End(root)
	d := rec.Begin("d", 2, 0)
	at(105)
	rec.End(d)
	want := map[string][2]time.Duration{ // total, self
		"root": {100, 50}, "a": {20, 20}, "b": {30, 20}, "c": {10, 10}, "d": {5, 5},
	}
	for name, w := range want {
		if got := [2]time.Duration{rec.Total(name), rec.Self(name)}; got != w {
			t.Errorf("%s: total/self %v, want %v", name, got, w)
		}
	}
	if rec.RootTotal() != 105 || rec.Kept() != 5 {
		t.Errorf("root total %v over %d kept spans, want 105 over 5", rec.RootTotal(), rec.Kept())
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil || !strings.Contains(buf.String(), `"name":"c","ph":"X","ts":0.05,"dur":0.01`) {
		t.Errorf("chrome trace: %v\n%s", err, buf.String())
	}
}

func TestColdCorpusDeterministicAndDistinct(t *testing.T) {
	a, b, other := newColdCorpus(3), newColdCorpus(3), newColdCorpus(4)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		wf, sa, err := a.next()
		if err != nil {
			t.Fatal(err)
		}
		_, sb, _ := b.next()
		_, so, _ := other.next()
		if !bytes.Equal(sa, sb) {
			t.Fatalf("spec %d differs between two corpora of one seed", i)
		}
		if bytes.Equal(sa, so) {
			t.Fatalf("spec %d is the same under seeds 3 and 4", i)
		}
		if seen[string(sa)] {
			t.Fatalf("spec %d repeats an earlier one", i)
		}
		seen[string(sa)] = true
		back, err := workflow.ReadSpec(bytes.NewReader(sa))
		if err != nil || back.Name != wf.Name {
			t.Fatalf("spec %d does not read back: %v", i, err)
		}
	}
}
