package schedd

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"pmemsched/internal/workflow"
)

// FuzzRecommendRequest throws arbitrary bodies at the recommend
// endpoint's request decoding — decodeJSON, then resolve, or the DAG
// reader for dag requests — without running a decision. The contract:
// hostile input gets an error, never a panic, and every body that
// decodes and resolves yields a spec that validates.
func FuzzRecommendRequest(f *testing.F) {
	f.Add(`{"name":"micro-2k","ranks":8,"include_runtimes":true}`)
	f.Add(`{"name":"miniamr+matrixmult","ranks":-3}`)
	f.Add(`{"name":"gtc+readonly","tier":{"policy":"dram-first-spill","dram_bytes_per_rank":1048576}}`)
	f.Add(`{"workflow":{"name":"w","ranks":2,"iterations":1,
	  "simulation":{"name":"s","objects":[{"bytes":4096,"count_per_rank":1}]},
	  "analytics":{"name":"a"}}}`)
	f.Add(`{"dag":` + testDAGDoc + `}`)
	f.Add(`{"count":1} {"count":5}`)
	f.Add(`{"name":"micro-2k"}garbage`)
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
		wf, err := req.resolve()
		if err != nil {
			return
		}
		if err := wf.Validate(); err != nil {
			t.Fatalf("accepted request resolves to an invalid spec: %v\nbody: %s", err, body)
		}
	})
}
