package schedd

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer builds a daemon over the default environment and wraps
// it in an httptest server. The mutate hook adjusts the config before
// construction.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Runner: core.NewRunner(core.DefaultEnv(), 0)}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// call performs one request and returns status and body.
func call(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing body: %v", err)
		}
	}()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, data
}

// checkGolden compares a response body against a committed fixture.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("writing golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\ngot:  %s\nwant: %s", name, got, want)
	}
}

func TestRecommendGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "POST", "/v1/recommend",
		`{"name":"micro-2k","ranks":8,"include_runtimes":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	checkGolden(t, "recommend_micro2k.json", body)

	status, body = call(t, ts, "POST", "/v1/recommend", `{"name":"gtc+readonly","ranks":4}`)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	checkGolden(t, "recommend_gtc_readonly.json", body)
}

func TestRecommendInlineSpecMatchesCatalog(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var spec strings.Builder
	if err := workflow.WriteSpec(&spec, workloads.GTCReadOnly(4)); err != nil {
		t.Fatalf("WriteSpec: %v", err)
	}
	status, inline := call(t, ts, "POST", "/v1/recommend",
		fmt.Sprintf(`{"workflow":%s}`, spec.String()))
	if status != http.StatusOK {
		t.Fatalf("inline spec: status %d, body %s", status, inline)
	}
	status, named := call(t, ts, "POST", "/v1/recommend", `{"name":"gtc+readonly","ranks":4}`)
	if status != http.StatusOK {
		t.Fatalf("catalog: status %d, body %s", status, named)
	}
	if !bytes.Equal(inline, named) {
		t.Errorf("inline spec and catalog name disagree:\ninline: %s\nnamed:  %s", inline, named)
	}
}

// wideSpecDoc is a valid inline workflow one rank wider than the
// testbed's 28-core sockets.
const wideSpecDoc = `{"name":"wide","ranks":29,"iterations":1,
  "simulation":{"name":"s","objects":[{"bytes":4096,"count_per_rank":1}]},
  "analytics":{"name":"a"}}`

func TestRecommendErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed", `{`, "decoding request"},
		{"unknown field", `{"nmae":"micro-2k"}`, "decoding request"},
		{"unknown workload", `{"name":"hpl"}`, "unknown workload"},
		{"neither", `{}`, "needs a workload name or an inline workflow spec"},
		{"both", `{"name":"micro-2k","workflow":{"name":"x"}}`, "sets both name and workflow"},
		{"negative ranks", `{"name":"micro-2k","ranks":-4}`, "ranks must be positive"},
		{"indivisible miniamr ranks", `{"name":"miniamr+readonly","ranks":7}`, "must evenly divide"},
		{"bad spec", `{"workflow":{"name":"x","ranks":0}}`, "workflow"},
		{"wider than a socket", `{"name":"gtc+readonly","ranks":64}`, "needs 64 ranks on one socket, but sockets have 28 cores"},
		{"absurd ranks", `{"name":"micro-2k","ranks":100000000}`, "needs 100000000 ranks"},
		{"inline spec wider than a socket", `{"workflow":` + wideSpecDoc + `}`, "needs 29 ranks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := call(t, ts, "POST", "/v1/recommend", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", status, body)
			}
			var e errorJSON
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not the uniform shape: %s", body)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)

	status, body := call(t, ts, "POST", "/v1/nodes", `{"count":2}`)
	if status != http.StatusOK {
		t.Fatalf("nodes: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_nodes.json", body)

	for i, job := range []string{
		`{"name":"gtc+readonly","ranks":8}`,
		`{"name":"miniamr+matrixmult","ranks":8}`,
		`{"name":"micro-2k","ranks":4,"arrival_seconds":5}`,
	} {
		status, body = call(t, ts, "POST", "/v1/jobs", job)
		if status != http.StatusOK {
			t.Fatalf("job %d: status %d, body %s", i, status, body)
		}
	}

	status, body = call(t, ts, "GET", "/v1/schedule", "")
	if status != http.StatusOK {
		t.Fatalf("schedule: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_schedule.json", body)

	status, body = call(t, ts, "POST", "/v1/advance", `{"to_seconds":100000}`)
	if status != http.StatusOK {
		t.Fatalf("advance: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_advance.json", body)

	status, body = call(t, ts, "GET", "/v1/state", "")
	if status != http.StatusOK {
		t.Fatalf("state: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_state.json", body)

	status, body = call(t, ts, "GET", "/v1/jobs/0", "")
	if status != http.StatusOK {
		t.Fatalf("job status: status %d, body %s", status, body)
	}
	checkGolden(t, "placement_job0.json", body)

	var js jobStatusJSON
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("job status decode: %v", err)
	}
	if js.Phase != "done" {
		t.Errorf("job 0 phase %q after advancing past everything, want done", js.Phase)
	}
}

func TestPlacementErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name         string
		method, path string
		body         string
		status       int
		want         string
	}{
		{"zero nodes", "POST", "/v1/nodes", `{"count":0}`, 400, "count must be in"},
		{"too many nodes", "POST", "/v1/nodes", `{"count":100000}`, 400, "count must be in"},
		{"oversized job", "POST", "/v1/jobs", `{"name":"micro-2k","ranks":999}`, 400, "ranks"},
		{"inline job wider than a socket", "POST", "/v1/jobs", `{"workflow":` + wideSpecDoc + `}`, 400, "needs 29 ranks"},
		{"indivisible miniamr job", "POST", "/v1/jobs", `{"name":"miniamr+readonly","ranks":7}`, 400, "must evenly divide"},
		{"job status non-int", "GET", "/v1/jobs/zz", "", 400, "must be an integer"},
		{"job status missing", "GET", "/v1/jobs/7", "", 404, "no job 7"},
		{"advance backwards", "POST", "/v1/advance", `{"to_seconds":-1}`, 400, "backwards"},
		{"wrong method", "GET", "/v1/recommend", "", 405, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := call(t, ts, tc.method, tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d; body %s", status, tc.status, body)
			}
			if tc.want != "" && !strings.Contains(string(body), tc.want) {
				t.Errorf("body %q does not mention %q", body, tc.want)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := call(t, ts, "GET", "/healthz", "")
	if status != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz: status %d, body %q", status, body)
	}
}

// slowEnv returns the default environment with an artificial delay in
// stack construction, widening every simulation's execution window so
// concurrent identical requests reliably overlap in the runner.
func slowEnv(d time.Duration) core.Env {
	return core.Env{NewStack: func() stack.Instance {
		time.Sleep(d)
		return nova.Default()
	}}
}

// TestConcurrentRecommendCoalesce hammers one workflow from many
// clients at once (run under -race). All responses must be 200 with
// byte-identical bodies, and the shared runner must report in-flight
// joins: concurrent requests asked for the same computation and
// joined one execution instead of duplicating it.
func TestConcurrentRecommendCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Runner = core.NewRunner(slowEnv(2*time.Millisecond), 0)
		// Admit every client at once; shedding is TestAdmissionShed's
		// subject, not this test's.
		cfg.MaxInflight = 64
	})

	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":6}`)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d, body %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	st := srv.Stats()
	if st.Inflight == 0 {
		t.Errorf("no in-flight joins recorded (hits %d, misses %d): concurrent identical requests never coalesced", st.Hits, st.Misses)
	}
	if st.Hits+st.Inflight == 0 {
		t.Errorf("every request executed fresh: cache sharing is broken (stats %+v)", st)
	}
}

// TestAdmissionShed saturates the single decision slot and checks the
// daemon sheds with 429 + Retry-After while saturated, then recovers.
func TestAdmissionShed(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxInflight = 1
		// A slow stack pins the slot with a cold decision long enough
		// for the second request to observe saturation.
		cfg.Runner = core.NewRunner(slowEnv(200*time.Millisecond), 0)
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":4}`)
		if status != http.StatusOK {
			t.Errorf("pinned request: status %d, body %s", status, body)
		}
	}()

	// Wait until the first request holds the slot.
	for i := 0; srv.gate.inflight() == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/recommend", strings.NewReader(`{"name":"micro-2k","ranks":4}`))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading shed body: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("closing shed body: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	if !strings.Contains(string(body), "saturated") {
		t.Errorf("shed body %q does not explain the rejection", body)
	}

	// Introspection must stay available while the gate is shedding.
	if status, _ := call(t, ts, "GET", "/healthz", ""); status != http.StatusOK {
		t.Errorf("healthz unavailable during saturation: status %d", status)
	}
	if status, _ := call(t, ts, "GET", "/metrics", ""); status != http.StatusOK {
		t.Errorf("metrics unavailable during saturation: status %d", status)
	}

	<-done
	// The slot is free again: the same request now succeeds (and is a
	// cache hit).
	if status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":4}`); status != http.StatusOK {
		t.Fatalf("post-recovery request: status %d, body %s", status, body)
	}
	if shed := srv.met.shed.Load(); shed == 0 {
		t.Errorf("shed counter is zero after a 429")
	}
}

func TestMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Generate some traffic, including a repeat (cache hit) and an error.
	for i := 0; i < 2; i++ {
		if status, body := call(t, ts, "POST", "/v1/recommend", `{"name":"micro-2k","ranks":4}`); status != http.StatusOK {
			t.Fatalf("recommend: status %d, body %s", status, body)
		}
	}
	if status, _ := call(t, ts, "POST", "/v1/recommend", `{"name":"bogus"}`); status != http.StatusBadRequest {
		t.Fatalf("expected 400 for bogus workload, got %d", status)
	}

	status, body := call(t, ts, "GET", "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var m metricsJSON
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics decode: %v\n%s", err, body)
	}
	var rec *endpointJSON
	for i := range m.Requests {
		if m.Requests[i].Endpoint == "recommend" {
			rec = &m.Requests[i]
		}
	}
	if rec == nil {
		t.Fatalf("metrics missing recommend endpoint: %s", body)
	}
	if rec.Requests != 3 || rec.Errors != 1 {
		t.Errorf("recommend counters %d/%d, want 3 requests 1 error", rec.Requests, rec.Errors)
	}
	if rec.Latency.Count != 3 || rec.Latency.MaxMs <= 0 {
		t.Errorf("recommend latency summary %+v", rec.Latency)
	}
	if m.Cache.Misses == 0 {
		t.Errorf("cache misses zero after cold requests: %+v", m.Cache)
	}
	if m.Cache.Hits == 0 {
		t.Errorf("cache hits zero after a repeated request: %+v", m.Cache)
	}
	if m.Cache.HitRate <= 0 || m.Cache.HitRate >= 1 {
		t.Errorf("hit rate %v out of (0,1)", m.Cache.HitRate)
	}
	if m.Admission.MaxInflight <= 0 {
		t.Errorf("admission capacity %d", m.Admission.MaxInflight)
	}
}

// TestRecommendDeadline runs plain and DAG decisions past a short
// deadline: each answers 504, keeps computing detached while holding
// its admission slot, and Close waits for it. A retry through a daemon
// with a generous deadline on the same runner is then served entirely
// from the warmed cache.
func TestRecommendDeadline(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"plain", `{"name":"micro-2k","ranks":6,"include_runtimes":true}`},
		{"dag", `{"dag":` + testDAGDoc + `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := core.NewRunner(slowEnv(300*time.Millisecond), 0)
			srv, ts := newTestServer(t, func(cfg *Config) {
				cfg.Runner = rt
				cfg.RequestTimeout = 20 * time.Millisecond
				cfg.MaxInflight = 1
			})
			status, body := call(t, ts, "POST", "/v1/recommend", tc.body)
			if status != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504; body %s", status, body)
			}
			if !strings.Contains(string(body), "retry to hit the warmed cache") {
				t.Errorf("504 body %q does not point at the retry", body)
			}
			if status, body := call(t, ts, "POST", "/v1/recommend", tc.body); status != http.StatusTooManyRequests {
				t.Errorf("second request: status %d, want 429 while the detached decision holds the only slot; body %s", status, body)
			}
			ts.Close()
			srv.Close() // returns once the detached decision has filled the cache

			before := rt.Stats()
			_, warm := newTestServer(t, func(cfg *Config) { cfg.Runner = rt })
			if status, body := call(t, warm, "POST", "/v1/recommend", tc.body); status != http.StatusOK {
				t.Fatalf("retry: status %d, body %s", status, body)
			}
			after := rt.Stats()
			if after.Hits <= before.Hits {
				t.Errorf("retry recorded no cache hits (before %+v, after %+v)", before, after)
			}
			if after.Misses != before.Misses {
				t.Errorf("retry missed the cache %d times: the detached decision did not finish before Close returned",
					after.Misses-before.Misses)
			}
		})
	}
}

// TestDecodeRejectsOversizedAndTrailingInput checks every body-reading
// endpoint takes exactly one JSON value of at most maxBodyBytes:
// trailing garbage and a second value are 400, a longer body is 413.
func TestDecodeRejectsOversizedAndTrailingInput(t *testing.T) {
	_, ts := newTestServer(t, nil)
	valid := map[string]string{
		"/v1/recommend": `{"name":"micro-2k","ranks":4}`,
		"/v1/nodes":     `{"count":1}`,
		"/v1/jobs":      `{"name":"micro-2k","ranks":4}`,
		"/v1/advance":   `{"to_seconds":0}`,
	}
	for _, path := range []string{"/v1/recommend", "/v1/nodes", "/v1/jobs", "/v1/advance"} {
		body := valid[path]
		for _, tc := range []struct {
			name   string
			body   string
			status int
			want   string
		}{
			{"trailing garbage", body + "garbage", http.StatusBadRequest, "trailing data"},
			{"second value", body + " " + body, http.StatusBadRequest, "trailing data"},
			{"oversized", body + strings.Repeat(" ", 2<<20), http.StatusRequestEntityTooLarge, "exceeds"},
		} {
			t.Run(strings.TrimPrefix(path, "/v1/")+"/"+tc.name, func(t *testing.T) {
				status, got := call(t, ts, "POST", path, tc.body)
				if status != tc.status {
					t.Fatalf("status %d, want %d; body %s", status, tc.status, got)
				}
				if !strings.Contains(string(got), tc.want) {
					t.Errorf("body %q does not mention %q", got, tc.want)
				}
			})
		}
	}
	// The valid bodies alone are still accepted, with trailing
	// whitespace.
	for _, path := range []string{"/v1/recommend", "/v1/nodes", "/v1/jobs", "/v1/advance"} {
		if status, got := call(t, ts, "POST", path, valid[path]+"\n"); status != http.StatusOK {
			t.Errorf("%s: status %d, body %s", path, status, got)
		}
	}
}

// TestRequestIDsAndLogs checks the middleware stamps X-Request-Id and
// emits one structured log line per request.
func TestRequestIDsAndLogs(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.Logger = newBufLogger(&buf)
	})
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("closing body: %v", err)
	}
	id := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(id, "req-") {
		t.Errorf("X-Request-Id %q", id)
	}
	logged := buf.String()
	if !strings.Contains(logged, id) || !strings.Contains(logged, "/healthz") {
		t.Errorf("request log missing id or path: %q", logged)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a config without a runner")
	}
}
