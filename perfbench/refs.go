package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
	"pmemsched/internal/schedd"
)

// references holds outputs recorded from the unwrapped program at the
// commit that introduced the benchmark. Later runs must reproduce them
// byte for byte; fleet and daemon entries exist for the recorded seeds.
//
//go:embed references.json
var referencesJSON []byte

type references struct {
	// HeldOutSeed is heldOutSeed, recorded with the references.
	HeldOutSeed int64 `json:"held_out_seed"`
	// SuiteText is the SHA-256 of the whole report, as wfsuite prints it.
	SuiteText  string            `json:"suite_text"`
	SuiteTally string            `json:"suite_tally"`
	Suite      map[string]string `json:"suite"` // experiment ID -> report digest
	// Warm holds the digest of each catalog recommend response, in
	// catalogBodies order.
	Warm []string `json:"warm"`
	// Fleet maps workload -> "seed/sub-stream" -> summary digest and
	// event count.
	Fleet map[string]map[string]string `json:"fleet"`
	// Schedd maps seed -> digest of client B's state read after round
	// stateCheckRound.
	Schedd map[string]string `json:"schedd_mix"`
}

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referencesJSON, &r); err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	return &r, nil
}

func refKey(seed int64, sub int) string { return fmt.Sprintf("%d/%d", seed, sub) }

// heldOutSeed was not used while the benchmark was tuned; claims made
// with the benchmark must hold on it too.
const heldOutSeed = 7919

// recordSeeds are the seeds whose fleet and daemon outputs are recorded.
func recordSeeds() []int64 {
	var out []int64
	for s := int64(0); s < 32; s++ {
		out = append(out, s)
	}
	return append(out, heldOutSeed)
}

// record regenerates the references from the unwrapped program and
// writes them to path.
func record(path string) error {
	r := references{HeldOutSeed: heldOutSeed, Suite: map[string]string{}, Fleet: map[string]map[string]string{}, Schedd: map[string]string{}}
	run, err := runSuite(core.NewRunner(core.DefaultEnv(), workers), experiments.All(), nil)
	if err != nil {
		return err
	}
	r.SuiteText = digestOf(run.text())
	r.SuiteTally = run.tally
	for i, id := range run.ids {
		r.Suite[id] = digestOf(run.reports[i])
	}

	srv, err := schedd.New(schedd.Config{Runner: core.NewRunner(core.DefaultEnv(), workers), Policy: cluster.PMEMAware()})
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, body := range catalogBodies() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			srv.Close()
			return fmt.Errorf("recording %s: status %d", body, rec.Code)
		}
		r.Warm = append(r.Warm, digestOf(rec.Body.Bytes()))
	}
	srv.Close()

	rt := core.NewRunner(core.DefaultEnv(), workers)
	for _, name := range []string{"fleet-open", "fleet-queued"} {
		r.Fleet[name] = map[string]string{}
		for _, seed := range recordSeeds() {
			for sub := 0; sub < fleetStreams; sub++ {
				out, err := fleetShapes[name].reference(rt, streamSeed(seed, sub))
				if err != nil {
					return err
				}
				r.Fleet[name][refKey(seed, sub)] = out.digest()
			}
		}
	}
	for _, seed := range recordSeeds() {
		ops, err := replayPlacement(scriptOps(seed, stateCheckRound))
		if err != nil {
			return err
		}
		r.Schedd[strconv.FormatInt(seed, 10)] = stateCheckpoint(ops)
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
