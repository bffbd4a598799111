package schedd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// FuzzRecommendRequest throws arbitrary bodies at the recommend
// endpoint's request decoding — decodeJSON, then resolve, or the DAG
// reader for dag requests — without running a decision. The contract:
// hostile input gets an error, never a panic, and every body that
// decodes and resolves yields a spec that validates and fits a socket.
func FuzzRecommendRequest(f *testing.F) {
	cores := core.DefaultEnv().CoresPerSocket()
	f.Add(`{"name":"micro-2k","ranks":8,"include_runtimes":true}`)
	f.Add(`{"name":"miniamr+matrixmult","ranks":-3}`)
	f.Add(`{"name":"gtc+readonly","tier":{"policy":"dram-first-spill","dram_bytes_per_rank":1048576}}`)
	f.Add(`{"workflow":{"name":"w","ranks":2,"iterations":1,
	  "simulation":{"name":"s","objects":[{"bytes":4096,"count_per_rank":1}]},
	  "analytics":{"name":"a"}}}`)
	f.Add(`{"dag":` + testDAGDoc + `}`)
	f.Add(`{"count":1} {"count":5}`)
	f.Add(`{"name":"micro-2k"}garbage`)
	f.Add(`{"name":"micro-2k","ranks":100000000}`)
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body))
		var req recommendRequest
		if _, err := decodeJSON(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		if len(req.DAG) > 0 {
			d, err := workflow.ReadDAGSpec(bytes.NewReader(req.DAG))
			if err == nil {
				if err := d.Validate(); err != nil {
					t.Fatalf("accepted dag does not validate: %v\nbody: %s", err, body)
				}
			}
			return
		}
		wf, err := req.resolve(cores)
		if err != nil {
			return
		}
		if err := wf.Validate(); err != nil {
			t.Fatalf("accepted request resolves to an invalid spec: %v\nbody: %s", err, body)
		}
		if wf.Ranks > cores {
			t.Fatalf("accepted request is %d ranks wide, more than a socket's %d cores\nbody: %s", wf.Ranks, cores, body)
		}
	})
}

// placementPaths are the placement endpoints with request bodies;
// FuzzPlacementRequest picks one by its first argument.
var placementPaths = []string{"/v1/nodes", "/v1/jobs", "/v1/advance"}

// FuzzPlacementRequest throws arbitrary bodies at the placement
// endpoints' decoding and validation, each through the real handler on
// a fresh daemon with an empty store, so nothing an input registers
// carries over to the next. The contract: hostile input gets a 4xx,
// never a panic or a 500, and a job the daemon accepts resolves to a
// spec that validates and fits a socket.
func FuzzPlacementRequest(f *testing.F) {
	rt := core.NewRunner(core.DefaultEnv(), 1)
	cores := rt.Env().CoresPerSocket()
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		srv, err := New(Config{Runner: rt})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		path := placementPaths[int(endpoint)%len(placementPaths)]
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if w.Code >= 500 {
			t.Fatalf("POST %s answered %d: %s\nbody: %s", path, w.Code, w.Body, body)
		}
		if path != "/v1/jobs" || w.Code != http.StatusOK {
			return
		}
		var req submitJobRequest
		if _, err := decodeJSON(httptest.NewRecorder(), httptest.NewRequest("POST", path, strings.NewReader(body)), &req); err != nil {
			t.Fatalf("accepted job body no longer decodes: %v\nbody: %s", err, body)
		}
		wf, err := req.resolve(cores)
		if err != nil {
			t.Fatalf("accepted job does not resolve: %v\nbody: %s", err, body)
		}
		if err := wf.Validate(); err != nil {
			t.Fatalf("accepted job resolves to an invalid spec: %v\nbody: %s", err, body)
		}
	})
}
