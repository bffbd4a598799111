package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// Property-based coverage: several hundred seeded random traces are
// pushed through every policy with the interference and fault models
// independently on and off, and structural invariants that must hold
// for ANY schedule are checked — conservation (no job lost or
// duplicated), causality (nothing starts before it arrives or ends
// before it starts), accounting identities (goodput is exactly the
// demand of the completed jobs), monotone event timestamps, and
// byte-determinism of the serialized report across fresh reruns.

// propertyCatalog is the workload mix the random traces sample from:
// ranks 2-8 against 8-core sockets, one bandwidth-heavy streaming
// workload so the interference model binds.
func propertyCatalog() ([]workflow.Spec, fakeEst) {
	specs := []workflow.Spec{
		workloads.GTCReadOnly(2),
		workloads.GTCReadOnly(8),
		workloads.GTCMatrixMult(4),
		workloads.MiniAMRReadOnly(4),
		workloads.MiniAMRMatrixMult(8),
		workloads.MicroWorkflow(64<<20, 4),
	}
	est := fakeEst{
		dur: map[string]float64{
			specs[0].Name: 12,
			specs[1].Name: 45,
			specs[2].Name: 30,
			specs[3].Name: 8,
			specs[4].Name: 60,
			specs[5].Name: 25,
		},
		prof: map[string]JobProfile{
			// The streaming job saturates a socket on its own; the others
			// barely load it.
			specs[5].Name: {IOFraction: 0.8, ReadBytesPerSecond: 3e9, WriteBytesPerSecond: 3e9},
			specs[1].Name: {IOFraction: 0.2, ReadBytesPerSecond: 4e8, WriteBytesPerSecond: 4e8},
		},
	}
	return specs, est
}

func propertyPolicies() []Policy {
	return []Policy{
		FCFS(core.SLocW),
		EASY(core.SLocW),
		PMEMAware(),
		PMEMAwareInterferenceAware(),
	}
}

// linearOracle is the brute-force reference for the indexed engine: it
// wraps a policy so every pass sees a private deep copy of the nodes,
// no free-capacity index and no class table, so each fit query takes
// the linear all-nodes scan, every tentative placement mutates the
// copy directly (each copied node is marked owned), and every
// estimator query goes to the estimator. The index, the copy-on-write
// view and the class memo are exact, so a run through the oracle must
// produce the same report bytes as the plain run.
type linearOracle struct{ Policy }

func (o linearOracle) Schedule(ctx *SchedContext) ([]Placement, error) {
	nodes := make([]*NodeView, len(ctx.Nodes))
	owned := make([]bool, len(ctx.Nodes))
	for i, n := range ctx.Nodes {
		cp := *n
		cp.Running = append([]RunningJob(nil), n.Running...)
		nodes[i] = &cp
		owned[i] = true
	}
	return o.Policy.Schedule(&SchedContext{Now: ctx.Now, Queue: ctx.Queue, Nodes: nodes, Est: ctx.Est, Model: ctx.Model, avoid: ctx.avoid, owned: owned})
}

// simulateFresh rebuilds the trace and runs it from scratch, so two
// calls share no state at all.
func simulateFresh(t *testing.T, seed int64, opt Options) (*Metrics, Trace) {
	t.Helper()
	catalog, _ := propertyCatalog()
	tr, err := Synthetic(catalog, SyntheticConfig{Jobs: 12, MeanInterarrivalSeconds: 15, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

func checkInvariants(t *testing.T, label string, m *Metrics, tr Trace, opt Options) {
	t.Helper()
	retry := opt.retry()
	if len(m.Records) != len(tr.Jobs) {
		t.Fatalf("%s: %d records for %d jobs", label, len(m.Records), len(tr.Jobs))
	}
	_, est := propertyCatalog()
	seen := make(map[int]bool, len(m.Records))
	var goodput, badput float64
	completed, failed, attempts := 0, 0, 0
	for _, r := range m.Records {
		if seen[r.ID] {
			t.Fatalf("%s: job %d recorded twice", label, r.ID)
		}
		seen[r.ID] = true
		arr := tr.Jobs[r.ID].ArrivalSeconds
		if r.StartSeconds < arr-1e-9 {
			t.Errorf("%s: job %d started at %g before its arrival %g", label, r.ID, r.StartSeconds, arr)
		}
		if r.EndSeconds < r.StartSeconds-1e-9 {
			t.Errorf("%s: job %d ended at %g before its start %g", label, r.ID, r.EndSeconds, r.StartSeconds)
		}
		if !close9(r.WaitSeconds, r.StartSeconds-arr) || !close9(r.TurnaroundSeconds, r.EndSeconds-arr) {
			t.Errorf("%s: job %d wait/turnaround inconsistent with start/end/arrival", label, r.ID)
		}
		if math.IsNaN(r.BoundedSlowdown) || math.IsInf(r.BoundedSlowdown, 0) || r.BoundedSlowdown < 1 {
			t.Errorf("%s: job %d bounded slowdown %v, want finite >= 1", label, r.ID, r.BoundedSlowdown)
		}
		if opt.Interference.Enabled || opt.Faults.Enabled {
			if want := est.dur[r.Workflow]; !close9(r.StandaloneSeconds, want) {
				t.Errorf("%s: job %d standalone %g, want its demand %g", label, r.ID, r.StandaloneSeconds, want)
			}
		}
		if opt.Interference.Enabled && !r.Failed && r.Stretch < 1-1e-9 {
			t.Errorf("%s: job %d stretch %g < 1", label, r.ID, r.Stretch)
		}
		if opt.Faults.Enabled {
			if r.Attempts < 1 || r.Attempts > retry.MaxAttempts {
				t.Errorf("%s: job %d attempts %d outside [1, %d]", label, r.ID, r.Attempts, retry.MaxAttempts)
			}
			if r.Failed && r.Attempts != retry.MaxAttempts {
				t.Errorf("%s: job %d failed after %d attempts, budget %d", label, r.ID, r.Attempts, retry.MaxAttempts)
			}
			if r.WastedStandaloneSeconds < -1e-9 {
				t.Errorf("%s: job %d negative wasted work %g", label, r.ID, r.WastedStandaloneSeconds)
			}
			attempts += r.Attempts
			badput += r.WastedStandaloneSeconds
			if r.Failed {
				failed++
			} else {
				completed++
				goodput += r.StandaloneSeconds
			}
		} else if r.Attempts != 0 || r.Failed || r.WastedStandaloneSeconds != 0 {
			t.Errorf("%s: job %d carries fault fields with the model off", label, r.ID)
		}
	}
	s := m.Summary()
	if opt.Faults.Enabled {
		if s.CompletedJobs != completed || s.FailedJobs != failed || s.TotalAttempts != attempts {
			t.Errorf("%s: summary completed/failed/attempts %d/%d/%d, records say %d/%d/%d",
				label, s.CompletedJobs, s.FailedJobs, s.TotalAttempts, completed, failed, attempts)
		}
		if !close9(s.GoodputStandaloneSeconds, goodput) || !close9(s.BadputStandaloneSeconds, badput) {
			t.Errorf("%s: summary goodput/badput %g/%g, records sum to %g/%g",
				label, s.GoodputStandaloneSeconds, s.BadputStandaloneSeconds, goodput, badput)
		}
	}
	for i := 1; i < len(m.Series); i++ {
		if m.Series[i].TimeSeconds < m.Series[i-1].TimeSeconds {
			t.Fatalf("%s: utilization series goes backwards at sample %d (%g after %g)",
				label, i, m.Series[i].TimeSeconds, m.Series[i-1].TimeSeconds)
		}
	}
}

// closeRel is a relative-error comparison for values that may differ
// by floating-point association (summary-only runs aggregate jobs in
// completion order).
func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Abs(a) + math.Abs(b)
	return math.Abs(a-b) <= 1e-6*scale
}

// TestPropertyRandomTraces is the main property sweep: 50 seeds x 4
// policies x {plain, interference, faults, both} = 800 simulations,
// each validated structurally and each rerun from scratch to confirm
// the serialized report is byte-identical.
func TestPropertyRandomTraces(t *testing.T) {
	variants := []struct {
		name string
		opt  func(seed int64) Options
	}{
		{"plain", func(int64) Options { return Options{} }},
		{"interference", func(int64) Options { return Options{Interference: DefaultInterference()} }},
		{"faults", func(seed int64) Options {
			o := Options{Faults: RandomFaults(180, 40, seed)}
			if seed%2 == 0 {
				r := DefaultRetry()
				r.CheckpointIntervalSeconds = 15
				o.Retry = r
			}
			return o
		}},
		{"both", func(seed int64) Options {
			return Options{Interference: DefaultInterference(), Faults: RandomFaults(240, 30, seed+1)}
		}},
	}
	for seed := int64(0); seed < 50; seed++ {
		for _, pol := range propertyPolicies() {
			for _, v := range variants {
				label := fmt.Sprintf("seed %d, %s, %s", seed, pol.Name(), v.name)
				opt := v.opt(seed)
				opt.Nodes = 2
				opt.CoresPerSocket = 8
				opt.Policy = pol
				_, est := propertyCatalog()
				opt.Estimator = est
				m, tr := simulateFresh(t, seed, opt)
				checkInvariants(t, label, m, tr, opt)

				var first, second bytes.Buffer
				if err := m.WriteJSON(&first); err != nil {
					t.Fatal(err)
				}
				m2, _ := simulateFresh(t, seed, opt)
				if err := m2.WriteJSON(&second); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("%s: fresh rerun produced different report bytes", label)
				}

				// The indexed free-capacity view must be an exact drop-in for
				// the linear all-nodes scan, and the class memo for asking the
				// estimator every time: rerun with the estimator's calls
				// counted and through the brute-force oracle, and demand
				// byte-identical reports.
				if _, memo := checkMemo(t, label, tr, opt); !bytes.Equal(first.Bytes(), memo) {
					t.Fatalf("%s: the counted rerun produced different report bytes", label)
				}

				// Sample dedup trades the series' shape for bounded memory,
				// not correctness: the same sim with it on must satisfy every
				// structural invariant, record no more samples, and leave the
				// summary untouched.
				fleetOpt := opt
				fleetOpt.Fleet = FleetOptions{DedupSamples: true}
				fm, ftr := simulateFresh(t, seed, fleetOpt)
				checkInvariants(t, label+", fleet", fm, ftr, fleetOpt)
				if len(fm.Series) > len(m.Series) {
					t.Errorf("%s: dedup produced more samples (%d) than the exact run (%d)", label, len(fm.Series), len(m.Series))
				}
				if fs, es := fm.Summary(), m.Summary(); !reflect.DeepEqual(fs, es) {
					t.Errorf("%s: dedup changed the summary: %+v vs %+v", label, fs, es)
				}
			}
		}
	}
}
