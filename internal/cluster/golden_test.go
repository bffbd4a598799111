package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pmemsched/internal/core"
)

// The golden files pin the engine's output byte for byte: the
// interference-off ones hold the fluid reflow engine to the original
// fixed-duration engine, and tiered_dram.json pins schedules with DRAM
// modeled as a node resource. Regenerate with
//
//	go test ./internal/cluster -run Golden -update-golden
//
// only when an intentional output change lands (and say so in the
// commit message).
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update-golden to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output diverged from the golden bytes (%d vs %d bytes)", name, len(got), len(want))
	}
}

// TestGoldenCraftedEASY pins the crafted backfill scenario's full JSON
// and text reports under the canned estimator.
func TestGoldenCraftedEASY(t *testing.T) {
	tr, est := craftedTrace()
	m, err := Simulate(tr, craftedOptions(EASY(core.SLocW), est))
	if err != nil {
		t.Fatal(err)
	}
	var js, txt bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "crafted_easy.json", js.Bytes())
	if err := m.Render(&txt); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "crafted_easy.txt", txt.Bytes())
}

// TestGoldenScriptedFaults pins the full JSON and text reports of the
// hand-computed failure scenario (see faultTrace): the retry/backoff/
// checkpoint state machine's output byte for byte, including the fault
// columns and the goodput/badput summary line.
func TestGoldenScriptedFaults(t *testing.T) {
	tr, est := faultTrace()
	m, err := Simulate(tr, faultOptions(EASY(core.SLocW), est,
		ScheduledFaults(Outage{Node: 0, DownSeconds: 30, UpSeconds: 40}), faultRetry()))
	if err != nil {
		t.Fatal(err)
	}
	var js, txt bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "faults_scripted.json", js.Bytes())
	if err := m.Render(&txt); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "faults_scripted.txt", txt.Bytes())
}

// TestGoldenSuitePMEMAware pins the bundled suite trace under the real
// cost model and the PMEM-aware policy — the wfsched CLI's default
// workload.
func TestGoldenSuitePMEMAware(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	rt := core.NewRunner(core.DefaultEnv(), 0)
	tr, err := SuiteTrace(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(tr, Options{Nodes: 2, Policy: PMEMAware(), Estimator: NewEstimator(rt)})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "suite_pmem_aware.json", js.Bytes())
}

// TestGoldenTieredDRAM pins DRAM-modeled schedules: the tiered catalog
// on nodes whose DRAM holds exactly the largest single demand, under
// all five policies, with the interference model off and with
// TieredInterference. Each entry's report must also differ from the
// same run with DRAM unmodeled, so the golden keeps pinning fits that
// the DRAM capacity declines.
func TestGoldenTieredDRAM(t *testing.T) {
	catalog, est := tieredCatalog()
	tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 12, MeanInterarrivalSeconds: 4, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Policy       string          `json:"policy"`
		Interference bool            `json:"interference"`
		Report       json.RawMessage `json:"report"`
	}
	var entries []entry
	binding := 0
	for _, pol := range []Policy{FCFS(core.SLocW), EASY(core.SLocW), PMEMAware(),
		EASYInterferenceAware(core.SLocW), PMEMAwareInterferenceAware()} {
		for _, iv := range []Interference{{}, TieredInterference()} {
			opt := Options{Nodes: 2, CoresPerSocket: 8, Policy: pol, Estimator: est,
				DRAMBytesPerNode: tierNodeDRAM(), Interference: iv}
			_, report := simulateReport(t, pol.Name(), tr, opt)
			opt.DRAMBytesPerNode = 0
			if _, unmodeled := simulateReport(t, pol.Name(), tr, opt); !bytes.Equal(report, unmodeled) {
				binding++
			}
			entries = append(entries, entry{Policy: pol.Name(), Interference: iv.Enabled, Report: report})
		}
	}
	if binding == 0 {
		t.Fatal("no run schedules differently with DRAM unmodeled: the golden pins no DRAM decision")
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "tiered_dram.json", append(got, '\n'))
}
