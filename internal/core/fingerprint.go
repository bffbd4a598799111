package core

import (
	"fmt"
	"hash"
	"hash/fnv"

	"pmemsched/internal/workflow"
)

// Content-keyed fingerprints for the run engine's result cache. A cache
// key identifies everything that determines a run's outcome: the
// workflow spec, the deployment, and the environment (machine topology,
// device model, storage-stack cost model). Two runs with equal keys are
// guaranteed to produce identical Results because the simulation is
// deterministic and every run gets a fresh machine and stack.

// stackProbeSizes sample the stack cost model for fingerprinting. The
// provided stacks' costs are affine in object size, so two probe points
// per curve pin the model exactly; the extra sizes also capture
// access-size granularity switches (e.g. NOVA's block rounding).
var stackProbeSizes = []int64{1, 512, 4 << 10, 64 << 10, 1 << 20, 64 << 20}

// fingerprint derives the environment's cache identity by building one
// machine and one stack instance and hashing their observable
// parameters. Environments that construct structurally identical
// machines and stacks share cache entries; environments that differ in
// behaviour but not in probed structure (e.g. a fault-injecting stack
// wrapping a stock one) must set Env.Tag to stay distinct.
func (e Env) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "tag=%s|", e.Tag)
	m := e.machine()
	fmt.Fprintf(h, "sockets=%d|upi=%v|", len(m.Topology.Sockets), m.Topology.UPI.Capacity())
	for _, s := range m.Topology.Sockets {
		fmt.Fprintf(h, "s%d{cores=%d dram=%v}|", s.ID, s.Cores, s.DRAM.Capacity())
	}
	for i, d := range m.PMEM {
		// The device model is a plain struct of calibration constants;
		// %v renders every field with round-trip float precision.
		fmt.Fprintf(h, "pmem%d=%v|", i, d.Model())
	}
	for i, d := range m.DRAM {
		fmt.Fprintf(h, "dram%d=%v|", i, d.Model())
	}
	st := e.stack()
	fmt.Fprintf(h, "stack=%s|", st.Name())
	for _, size := range stackProbeSizes {
		fmt.Fprintf(h, "c%d={w=%v r=%v a=%d}|", size, st.WriteCost(size), st.ReadCost(size), st.AccessSize(size))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeSpecFingerprint serializes every Result-affecting field of the
// spec in a fixed order (including Name, which Results carry verbatim).
// The destination is a hash, not a general writer: hash writes cannot
// fail, which is what lets the fmt.Fprintf errors go unchecked.
func writeSpecFingerprint(w hash.Hash, s workflow.Spec) {
	fmt.Fprintf(w, "wf=%q ranks=%d iters=%d|", s.Name, s.Ranks, s.Iterations)
	writeComponentFingerprint(w, "sim", s.Simulation)
	writeComponentFingerprint(w, "ana", s.Analytics)
	writeTierFingerprint(w, s.Tier)
}

// writeTierFingerprint serializes every Result-affecting field of a
// tier spec. Always written — for the zero (pmem-only) spec too — so
// pre-tier cache keys shift uniformly rather than colliding with a
// parameterized pmem-only spec.
func writeTierFingerprint(w hash.Hash, t workflow.TierSpec) {
	fmt.Fprintf(w, "tier=%d dram=%d drain=%v promote=%d|",
		t.Policy, t.DRAMBytesPerRank, t.DrainBytesPerSecond, t.PromoteAfterIterations)
}

func writeComponentFingerprint(w hash.Hash, role string, c workflow.ComponentSpec) {
	fmt.Fprintf(w, "%s=%q cit=%v cob=%v jit=%v objs=[", role, c.Name, c.ComputePerIteration, c.ComputePerObject, c.ComputeJitter)
	for _, o := range c.Objects {
		fmt.Fprintf(w, "%dx%d,", o.Bytes, o.CountPerRank)
	}
	fmt.Fprint(w, "]|")
}

// writeDAGSpecFingerprint serializes every prediction-affecting field
// of a DAG spec in declaration order.
func writeDAGSpecFingerprint(w hash.Hash, d workflow.DAGSpec) {
	fmt.Fprintf(w, "dag=%q iters=%d stages=[", d.Name, d.Iterations)
	for _, s := range d.Stages {
		fmt.Fprintf(w, "stage=%q ranks=%d ", s.Name, s.Ranks)
		writeComponentFingerprint(w, "comp", s.Component)
		writeTierFingerprint(w, s.Tier)
	}
	fmt.Fprint(w, "] edges=[")
	for _, e := range d.Edges {
		fmt.Fprintf(w, "%s>%s:%s,", e.From, e.To, e.Type)
	}
	fmt.Fprint(w, "]|")
}

// writeAssignmentFingerprint serializes a per-stage assignment
// (index-aligned with the DAG's stages, so stage identity is
// positional).
func writeAssignmentFingerprint(w hash.Hash, a DAGAssignment) {
	fmt.Fprint(w, "asg=[")
	for _, sc := range a.Stages {
		fmt.Fprintf(w, "r=%d m=%d p=%d st=%q ", sc.Ranks, sc.Mode, sc.Place, sc.Stack)
		writeTierFingerprint(w, sc.Tier)
		fmt.Fprint(w, ",")
	}
	fmt.Fprint(w, "]|")
}

// dagKey builds the memo key of one whole-DAG prediction. Stack names
// stand in for stack environments, so the key is sound within one
// tuning run (where DAGOptions is fixed) — which is the only cache it
// feeds.
func dagKey(envKey string, d workflow.DAGSpec, asg DAGAssignment) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "dagpredict|env=%s|", envKey)
	writeDAGSpecFingerprint(h, d)
	writeAssignmentFingerprint(h, asg)
	return fmt.Sprintf("d%016x", h.Sum64())
}

// JobKey returns the 64-bit fingerprint of a job's workload: the spec,
// followed by the DAG when dag is non-nil. It hashes exactly what the
// run and classification cache keys hash about a workload, so jobs with
// equal keys are the same workload to the run engine.
func JobKey(wf workflow.Spec, dag *workflow.DAGSpec) uint64 {
	h := fnv.New64a()
	writeSpecFingerprint(h, wf)
	if dag != nil {
		writeDAGSpecFingerprint(h, *dag)
	}
	return h.Sum64()
}

// runKey builds the cache key of one execution.
func runKey(envKey string, wf workflow.Spec, dep Deployment) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "run|env=%s|", envKey)
	writeSpecFingerprint(h, wf)
	fmt.Fprintf(h, "dep=%d/%d/%d/%d", dep.Mode, dep.SimSocket, dep.AnaSocket, dep.DeviceSocket)
	return fmt.Sprintf("r%016x", h.Sum64())
}

// classifyKey builds the cache key of one profiling+classification.
func classifyKey(envKey string, wf workflow.Spec) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "classify|env=%s|", envKey)
	writeSpecFingerprint(h, wf)
	return fmt.Sprintf("c%016x", h.Sum64())
}
