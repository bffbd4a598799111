package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pmemsched/internal/core"
)

// updateDigests rewrites testdata/suite_digests.json. Regenerate with
//
//	go test ./internal/experiments -run TestAllExperimentsRun -update
//
// only when an intentional output change lands (and say so in the
// commit message).
var updateDigests = flag.Bool("update", false, "rewrite testdata/suite_digests.json")

var suiteDigestsPath = filepath.Join("testdata", "suite_digests.json")

// TestAllExperimentsRun executes every experiment end to end (the same
// pipeline cmd/wfsuite drives) and checks each produces a renderable
// report with findings. Winner-level assertions live in the
// calibration acceptance tests; here the contract is completeness: no
// experiment errors, every report renders, and every figure experiment
// carries at least one claim check. Each rendered report's SHA-256 must
// equal the one pinned in testdata/suite_digests.json, so any change to
// what the suite prints, down to one byte, fails here.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	want := map[string]string{}
	if !*updateDigests {
		b, err := os.ReadFile(suiteDigestsPath)
		if err != nil {
			t.Fatalf("reading %s (run with -update to create): %v", suiteDigestsPath, err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	// Runs once every parallel subtest has finished.
	t.Cleanup(func() {
		if len(got) != len(All()) {
			return // a -run filter skipped some experiments
		}
		if !*updateDigests {
			for id := range want {
				if _, ok := got[id]; !ok {
					t.Errorf("%s pins experiment %q, which no longer exists", suiteDigestsPath, id)
				}
			}
			return
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteDigestsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	// One engine shared across all experiments, exercised concurrently
	// by the parallel subtests — the same sharing cmd/wfsuite does.
	rt := core.NewRunner(core.DefaultEnv(), 0)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := e.Run(rt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID {
				t.Errorf("report ID %q != experiment ID %q", rep.ID, e.ID)
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("empty report")
			}
			sum := sha256.Sum256(buf.Bytes())
			digest := hex.EncodeToString(sum[:])
			mu.Lock()
			got[e.ID] = digest
			mu.Unlock()
			if !*updateDigests && digest != want[e.ID] {
				t.Errorf("report digest %s, pinned %q in %s", digest, want[e.ID], suiteDigestsPath)
			}
			if _, total := rep.Matched(); total == 0 {
				t.Fatal("no claim checks recorded")
			}
			// Structured exports must work for every report.
			var csv, js bytes.Buffer
			if err := rep.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if err := rep.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
		})
	}
}
