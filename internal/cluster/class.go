package cluster

import "pmemsched/internal/core"

// Job classes. A fleet trace repeats a handful of distinct workloads
// (the suite stream has 18) across thousands of jobs, and a contended
// queue re-reads every waiting job's configuration, profile and
// runtime on every pass. The engine therefore interns each job into a
// class when it enters — one fingerprint per job, the same 64-bit
// identity the run cache keys on — and each class memoizes the
// estimator's answers the first time a pass asks for them: its Table II
// recommendation, and per configuration its runtime and its profile,
// each with its error. A class is priced once per simulation (or per
// State), not once per queued job per pass.
//
// The memo is exact because an Estimator's answers depend only on
// (spec, configuration); see the Estimator contract. Errors surface
// where the direct call would have raised them, with the same
// messages: the memo only replaces the estimator call, and the callers
// still wrap its error with the asking job's ID. (A DAG job under an
// estimator that cannot price DAGs is the one error that names its job
// inside; the first job of the class to ask builds it, and any pass or
// commit error ends the simulation, so no other job reads it. State
// takes no DAG jobs.)

// classTable interns jobs into classes and holds each class's memo.
type classTable struct {
	est     Estimator
	handles map[uint64]int32
	classes []jobClass
	// marks[h] is class h's settle mark, reused across backfill passes;
	// a mark is live only while it carries the current pass count,
	// backfills (see settle).
	marks     []settleMark
	backfills uint64
}

// jobClass is one class's memo: the recommendation and the costs under
// each configuration consulted so far, in first-use order.
type jobClass struct {
	rec    core.Config
	recErr error
	recSet bool
	costs  []classCost
}

// settleMark records the backfill pass that last settled a class and
// that pass's placement count then (settledForPass: the whole pass).
type settleMark struct {
	pass uint64
	at   int
}

// settledForPass marks a class settled for the rest of its backfill
// pass, whatever that pass places next.
const settledForPass = -1

// classCost is a class's memo under one configuration.
type classCost struct {
	cfg     core.Config
	dur     float64
	durErr  error
	durSet  bool
	prof    JobProfile
	profErr error
	profSet bool
}

func newClassTable(est Estimator) *classTable {
	return &classTable{est: est, handles: make(map[uint64]int32)}
}

// intern returns the job's class handle, opening a class on first
// sight of its workload.
func (t *classTable) intern(j Job) int32 {
	key := core.JobKey(j.Workflow, j.DAG)
	h, ok := t.handles[key]
	if !ok {
		h = int32(len(t.classes))
		t.handles[key] = h
		t.classes = append(t.classes, jobClass{})
	}
	return h
}

// recommend is recommendJob through class h's memo.
func (t *classTable) recommend(h int32, j *Job) (core.Config, error) {
	c := &t.classes[h]
	if !c.recSet {
		c.rec, c.recErr = recommendJob(t.est, *j)
		c.recSet = true
	}
	return c.rec, c.recErr
}

// estimate is estimateJob through class h's memo.
func (t *classTable) estimate(h int32, j *Job, cfg core.Config) (float64, error) {
	c := t.cost(h, cfg)
	if !c.durSet {
		c.dur, c.durErr = estimateJob(t.est, *j, cfg)
		c.durSet = true
	}
	return c.dur, c.durErr
}

// profile is profileJob through class h's memo.
func (t *classTable) profile(h int32, j *Job, cfg core.Config) (JobProfile, error) {
	c := t.cost(h, cfg)
	if !c.profSet {
		c.prof, c.profErr = profileJob(t.est, *j, cfg)
		c.profSet = true
	}
	return c.prof, c.profErr
}

// Settled classes. A backfill pass visits every queued job, but jobs of
// one class are interchangeable to it except for their IDs: the class
// fixes configuration, profile, duration, ranks and DRAM demand, so
// while the pass's snapshot is unchanged a second job of a class that
// placed nothing would place nothing for the same reason. The pass
// therefore settles a class when one of its jobs places nothing, keyed
// by how many placements the pass has made, and skips the class's later
// jobs until the next placement changes the snapshot. The skip needs no
// argument about how capacity or the overload score move; it reuses an
// outcome only on an identical snapshot. A settled class has already
// answered its memo reads without error, so skipping them hides none.
// See listPolicy.backfillBehind for which outcomes settle.

// beginBackfill starts a backfill pass with every class unsettled,
// giving classes interned since the last pass a mark.
func (t *classTable) beginBackfill() {
	t.backfills++
	if n := len(t.classes) - len(t.marks); n > 0 {
		t.marks = append(t.marks, make([]settleMark, n)...)
	}
}

// settle marks class h as placing nothing while the pass has made
// placed placements (settledForPass: for the rest of the pass).
func (t *classTable) settle(h int32, placed int) {
	t.marks[h] = settleMark{pass: t.backfills, at: placed}
}

// settled reports whether class h is settled at the pass's current
// placement count.
func (t *classTable) settled(h int32, placed int) bool {
	m := t.marks[h]
	return m.pass == t.backfills && (m.at == placed || m.at == settledForPass)
}

// cost returns class h's memo entry for cfg, opening it if needed. At
// most the four Table I configurations exist, so a scan beats a map.
func (t *classTable) cost(h int32, cfg core.Config) *classCost {
	c := &t.classes[h]
	for i := range c.costs {
		if c.costs[i].cfg == cfg {
			return &c.costs[i]
		}
	}
	c.costs = append(c.costs, classCost{cfg: cfg})
	return &c.costs[len(c.costs)-1]
}
