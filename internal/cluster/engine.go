package cluster

import (
	"container/heap"
	"fmt"
	"math"

	"pmemsched/internal/numa"
)

// The virtual-clock event loop. Four event kinds exist: a job
// arriving, a job completing, a node failing and a node recovering.
// Events at equal times apply completions first (freeing capacity
// before the policy looks at the queue), then arrivals, then node
// failures and repairs, and break remaining ties by job/node ID, so
// the loop is fully deterministic. All events at one time are drained
// before the policy runs, so the intra-instant order only fixes how
// state mutations compose.
//
// With the interference model enabled the loop is a fluid reflow
// engine: jobs track remaining work in standalone-seconds, progress
// rates are recomputed at every residency change, and completion
// events are re-posted under a per-job epoch counter — an event whose
// epoch no longer matches its job's is stale and skipped. With the
// model disabled no rate ever changes, no event is ever re-posted, and
// the loop reproduces the original fixed-duration engine byte for
// byte.
//
// With the fault model enabled, node-down events kill every resident
// job (bumping its epoch, so any queued completion event goes stale)
// and hand it to the retry policy: requeue with exponential backoff
// via a fresh arrival event, or permanent failure once its attempt
// budget is spent. Checkpoint credit carries whole checkpoint
// intervals of standalone-seconds across attempts. With the model
// disabled no node event is ever posted and no code path below
// diverges from the fault-free engine.
//
// Fleet scale: the engine consumes its trace through a jobSource (one
// staged arrival at a time, so a million-job trace never needs a
// million-element slice), answers placement queries through the
// bucketed freeIndex instead of scanning every node, and hands
// policies a copy-on-write snapshot instead of deep-copying every
// NodeView per pass. All three are exact — the index returns the node
// a linear scan would have, the COW view reads identically, and the
// metrics integrate the same occupancy values — so output is
// byte-identical to a brute-force engine; the tests keep that
// reference as a policy wrapper that hides the index and hands the
// policy a deep copy. The opt-in FleetOptions trade byte-compatibility
// for bounded memory; see Options.Fleet.

type eventKind uint8

const (
	evComplete eventKind = iota // frees capacity: apply before arrivals
	evArrive
	evNodeDown // kills residents; ordered after completions at the same instant
	evNodeUp
)

type event struct {
	at    float64
	kind  eventKind
	job   int // job ID, or node ID for evNodeDown/evNodeUp
	epoch int // completion epoch; stale when != the job's current epoch
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	if h[a].kind != h[b].kind {
		return h[a].kind < h[b].kind
	}
	if h[a].job != h[b].job {
		return h[a].job < h[b].job
	}
	return h[a].epoch < h[b].epoch
}
func (h eventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) next() event  { return heap.Pop(h).(event) }
func (h *eventHeap) add(e event)  { heap.Push(h, e) }
func (h *eventHeap) peek() (event, bool) {
	if len(*h) == 0 {
		return event{}, false
	}
	return (*h)[0], true
}

// jobState tracks one job through the event loop.
//
// The lifecycle flags and the class handle share one word (failed
// belongs to the fault model below): the daemon's store keeps a
// jobState per submitted job, and at 384 bytes the record fills its
// allocation size class exactly. The handle lives here rather than on
// Job, where it would cost a word of its own and push the record into
// the next size class.
type jobState struct {
	job      Job
	queued   bool // arrived and pending, not yet placed
	started  bool
	done     bool
	failed   bool  // retry budget exhausted; the job will never complete
	class    int32 // class handle (see classTable); fills the flags' word
	node     int
	cfg      string
	start    float64
	duration float64 // standalone runtime: the job's total work in standalone-seconds
	end      float64 // current completion estimate; the actual end once done

	// Fluid-reflow state, used only under the interference model.
	profile  JobProfile
	progress float64 // standalone-seconds of work completed (incl. credit)
	rate     float64 // standalone-seconds per wall second (0 = not yet rated)
	lastAt   float64 // virtual time progress was last integrated to
	epoch    int     // current completion-event epoch

	// Fault-model state, used only when failures are enabled.
	attempts int     // times the job has started
	credit   float64 // checkpointed standalone-seconds carried into the next attempt
	wasted   float64 // standalone-seconds lost to kills (work beyond the last checkpoint)
}

// jobSource is the engine-facing arrival stream: jobs in trace order,
// already validated (IDs equal positions, sorted arrivals, ranks that
// fit a socket).
type jobSource interface {
	next() (Job, bool, error)
}

// coresPerSocket resolves the effective per-socket core capacity.
func (o Options) coresPerSocket() int {
	if o.CoresPerSocket != 0 {
		return o.CoresPerSocket
	}
	return numa.TestbedConfig().CoresPerSocket
}

// Simulate runs the trace through the cluster under the policy and
// returns the collected metrics. The loop is event-driven: the virtual
// clock jumps between arrivals and completions, and the policy is
// consulted once per distinct event time with the post-event state.
func Simulate(tr Trace, opt Options) (*Metrics, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	cores := opt.coresPerSocket()
	for _, j := range tr.Jobs {
		if j.Workflow.Ranks > cores {
			return nil, fmt.Errorf("cluster: job %d (%s) needs %d ranks but nodes have %d cores per socket",
				j.ID, j.Workflow.Name, j.Workflow.Ranks, cores)
		}
		if err := checkJobDRAM(j, opt.DRAMBytesPerNode); err != nil {
			return nil, err
		}
	}
	return simulate(&sliceSource{jobs: tr.Jobs}, opt, cores)
}

// SimulateStream is Simulate over a streaming trace: the engine pulls
// jobs from the source one arrival at a time, so the whole trace never
// needs to be resident. Jobs are validated as they stream in (IDs must
// equal stream positions, arrivals must be sorted, ranks must fit a
// socket). With identical jobs and options the report is byte-identical
// to Simulate over the materialized trace.
func SimulateStream(src TraceSource, opt Options) (*Metrics, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	cores := opt.coresPerSocket()
	return simulate(&checkedSource{src: src, cores: cores, dram: opt.DRAMBytesPerNode}, opt, cores)
}

// checkJobDRAM rejects a job whose tier policy demands more node DRAM
// than any node has (it could never be placed), mirroring the
// ranks-per-socket check. Inactive when DRAM is unmodeled (capacity 0).
func checkJobDRAM(j Job, capacity float64) error {
	if demand := jobDRAMBytes(&j); capacity > 0 && demand > capacity {
		return fmt.Errorf("cluster: job %d (%s) holds %g DRAM bytes resident but nodes have %g",
			j.ID, j.Workflow.Name, demand, capacity)
	}
	return nil
}

// sliceSource streams an already-validated in-memory trace.
type sliceSource struct {
	jobs []Job
	i    int
}

func (s *sliceSource) next() (Job, bool, error) {
	if s.i >= len(s.jobs) {
		return Job{}, false, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, true, nil
}

// checkedSource validates a user-supplied TraceSource as it streams:
// the incremental equivalent of Trace.Validate plus the per-socket
// ranks check Simulate performs up front.
type checkedSource struct {
	src   TraceSource
	cores int
	dram  float64
	id    int
	prev  float64
}

func (c *checkedSource) next() (Job, bool, error) {
	j, ok, err := c.src.Next()
	if err != nil {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job %d: %w", c.id, err)
	}
	if !ok {
		return Job{}, false, nil
	}
	if j.ID != c.id {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job at position %d has ID %d (IDs must equal stream positions)", c.id, j.ID)
	}
	if err := validateJob(j); err != nil {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job %d: %w", c.id, err)
	}
	if j.ArrivalSeconds < 0 {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job %d: negative arrival %g", c.id, j.ArrivalSeconds)
	}
	if j.ArrivalSeconds < c.prev {
		return Job{}, false, fmt.Errorf("cluster: streaming trace job %d: arrival %g before job %d's %g (stream must be sorted)",
			c.id, j.ArrivalSeconds, c.id-1, c.prev)
	}
	if j.Workflow.Ranks > c.cores {
		return Job{}, false, fmt.Errorf("cluster: job %d (%s) needs %d ranks but nodes have %d cores per socket",
			j.ID, j.Workflow.Name, j.Workflow.Ranks, c.cores)
	}
	if err := checkJobDRAM(j, c.dram); err != nil {
		return Job{}, false, err
	}
	c.prev = j.ArrivalSeconds
	c.id++
	return j, true, nil
}

// engine is the one cluster event loop: the node views, the
// free-capacity index, the job states, the event heap and the pending
// queue, plus the four steps every driver composes — admit an arrival,
// run one policy pass, commit that pass's placements, and retire an
// event. simulate feeds it a jobSource and runs it to completion;
// State drives it from Submit/Schedule/AdvanceTo.
type engine struct {
	policy Policy
	est    Estimator
	iv     Interference
	retry  RetryPolicy
	faults *faultDriver // nil unless the fault model is enabled
	m      *Metrics     // nil for State, which keeps no report
	cores  int
	dram   float64

	now     float64
	nodes   []*NodeView
	idx     *freeIndex
	states  []*jobState
	classes *classTable // the states' job classes and their memos
	events  eventHeap
	pending []Job
	// avoid[jobID] is the node whose failure killed the job's latest
	// attempt; nil unless the fault model is enabled.
	avoid []int
	// occ mirrors each node's metered occupancy (the value
	// Cores - FreeAt(now) would report, including the convention that a
	// down node meters as fully busy), maintained incrementally so the
	// metrics never rescan resident lists.
	occ []int
	// rerate[nodeID] marks a node whose residents changed since the last
	// reflow rated it: set wherever the authoritative residency changes
	// (commit's place, retire's remove, a failure clearing the node),
	// cleared by reflow.
	rerate   []bool
	finished int // completed or permanently failed jobs

	// Reusable copy-on-write snapshot scratch for the policy pass.
	view  []*NodeView
	owned []bool

	// onCommit, when set, runs for each committed placement once the
	// job's start is recorded and before the free index is charged for
	// it. State uses it to read each placement's filter candidates; it
	// is nil for simulate.
	onCommit func(st *jobState, pl Placement)
}

// newEngine builds an engine over nodes fresh nodes of the given shape
// with the clock at zero.
func newEngine(nodes, cores int, dram float64, policy Policy, est Estimator, iv Interference) *engine {
	e := &engine{
		policy:  policy,
		est:     est,
		classes: newClassTable(est),
		iv:      iv,
		cores:   cores,
		dram:    dram,
		nodes:   make([]*NodeView, nodes),
		idx:     newFreeIndex(nodes, cores),
		occ:     make([]int, nodes),
		rerate:  make([]bool, nodes),
	}
	for i := range e.nodes {
		e.nodes[i] = &NodeView{ID: i, Cores: cores, DRAMBytes: dram}
	}
	return e
}

// addNode registers one fresh, fully free node and returns its ID.
func (e *engine) addNode() int {
	id := e.idx.add()
	e.nodes = append(e.nodes, &NodeView{ID: id, Cores: e.cores, DRAMBytes: e.dram})
	e.occ = append(e.occ, 0)
	e.rerate = append(e.rerate, false)
	return id
}

// track registers a newly entered job's state, interning it into its
// class.
func (e *engine) track(j Job) *jobState {
	st := &jobState{job: j, node: -1, class: e.classes.intern(j)}
	e.states = append(e.states, st)
	return st
}

// admit queues an arrived job for the next pass.
func (e *engine) admit(st *jobState) {
	st.queued = true
	e.pending = append(e.pending, st.job)
}

// pass consults the policy once over the pending queue, which it reads
// in place. The policy sees a copy-on-write view of the nodes and
// records its tentative placements on the free index through a journal
// that is rolled back before the placements return, so the
// authoritative state is untouched until commit.
func (e *engine) pass() ([]Placement, error) {
	if len(e.view) != len(e.nodes) {
		e.view = make([]*NodeView, len(e.nodes))
		e.owned = make([]bool, len(e.nodes))
	}
	copy(e.view, e.nodes)
	clear(e.owned)
	e.idx.begin()
	ctx := &SchedContext{Now: e.now, Queue: e.pending, Nodes: e.view, Est: e.est, Model: e.iv,
		classes: e.classes, states: e.states, avoid: e.avoid, idx: e.idx, owned: e.owned}
	placements, err := e.policy.Schedule(ctx)
	e.idx.rollback()
	return placements, err
}

// commit validates and applies one pass's placements in order, then
// re-rates the nodes they joined under the interference model.
func (e *engine) commit(placements []Placement) error {
	name := e.policy.Name()
	for _, pl := range placements {
		if pl.JobID < 0 || pl.JobID >= len(e.states) || e.states[pl.JobID] == nil || !e.states[pl.JobID].queued {
			return fmt.Errorf("cluster: policy %s placed unknown or non-queued job %d", name, pl.JobID)
		}
		if pl.Node < 0 || pl.Node >= len(e.nodes) {
			return fmt.Errorf("cluster: policy %s placed job %d on unknown node %d", name, pl.JobID, pl.Node)
		}
		st, n := e.states[pl.JobID], e.nodes[pl.Node]
		ranks := st.job.Workflow.Ranks
		if n.Down {
			return fmt.Errorf("cluster: policy %s placed job %d on failed node %d", name, pl.JobID, pl.Node)
		}
		if n.FreeAt(e.now) < ranks {
			return fmt.Errorf("cluster: policy %s overcommitted node %d with job %d (%d ranks, %d cores free)",
				name, pl.Node, pl.JobID, ranks, n.FreeAt(e.now))
		}
		dram := jobDRAMBytes(&st.job)
		if dram > 0 && n.DRAMBytes > 0 && n.DRAMFreeAt(e.now) < dram {
			return fmt.Errorf("cluster: policy %s overcommitted node %d DRAM with job %d (%g bytes demanded, %g free)",
				name, pl.Node, pl.JobID, dram, n.DRAMFreeAt(e.now))
		}
		dur, err := e.classes.estimate(st.class, &st.job, pl.Config)
		if err != nil {
			return fmt.Errorf("cluster: executing job %d (%s): %w", pl.JobID, st.job.Workflow.Name, err)
		}
		remaining := dur - st.credit // checkpoint credit resumes mid-job
		if remaining < 0 {
			remaining = 0
		}
		st.queued = false
		st.started = true
		st.attempts++
		st.node = pl.Node
		st.cfg = pl.Config.Label()
		st.start = e.now
		st.duration = dur
		st.end = e.now + remaining
		if e.avoid != nil {
			e.avoid[pl.JobID] = -1
		}
		if e.iv.Enabled {
			prof, err := e.classes.profile(st.class, &st.job, pl.Config)
			if err != nil {
				return fmt.Errorf("cluster: profiling job %d (%s): %w", pl.JobID, st.job.Workflow.Name, err)
			}
			st.profile = prof
			st.progress = st.credit
			st.lastAt = e.now
			// rate stays 0: the reflow below rates the newcomer and
			// posts its first completion event.
			n.place(st.job.ID, ranks, st.end, dram, prof)
		} else {
			n.place(st.job.ID, ranks, st.end, dram, JobProfile{})
			e.events.add(event{at: st.end, kind: evComplete, job: st.job.ID, epoch: st.epoch})
		}
		e.rerate[pl.Node] = true
		if e.onCommit != nil {
			e.onCommit(st, pl)
		}
		if remaining > 0 {
			e.idx.place(pl.Node, ranks)
			e.occ[pl.Node] += ranks
		}
		e.pending = removeJob(e.pending, st.job.ID)
	}
	if e.iv.Enabled && len(placements) > 0 {
		// Newcomers changed residency: re-rate their nodes.
		e.reflow()
	}
	return nil
}

// retire applies one popped event at the engine's clock and reports
// whether it changed anything (a stale completion changes nothing).
func (e *engine) retire(ev event) (bool, error) {
	switch ev.kind {
	case evArrive:
		e.admit(e.states[ev.job])
	case evComplete:
		st := e.states[ev.job]
		if st == nil || st.done || ev.epoch != st.epoch {
			return false, nil // superseded by a reflow re-post or a kill
		}
		st.done = true
		st.end = e.now
		if !e.nodes[st.node].remove(st.job.ID) {
			return false, fmt.Errorf("cluster: engine accounting: completion of job %d found no resident on node %d", st.job.ID, st.node)
		}
		e.rerate[st.node] = true
		if st.end > st.start { // zero-remaining placements never occupied cores
			e.idx.remove(st.node, st.job.Workflow.Ranks)
			e.occ[st.node] -= st.job.Workflow.Ranks
		}
		e.finish(st)
	case evNodeDown:
		n := e.nodes[ev.job]
		n.Down = true
		n.UpSeconds = e.faults.repairAt(ev.job, e.now)
		e.events.add(event{at: n.UpSeconds, kind: evNodeUp, job: ev.job})
		for _, r := range n.Running {
			if st := e.states[r.JobID]; e.kill(st) {
				e.finish(st)
			}
		}
		n.Running = n.Running[:0]
		e.rerate[ev.job] = true
		e.idx.down(ev.job)
		e.occ[ev.job] = n.Cores // a down node meters as fully busy (FreeAt reports 0 free)
	case evNodeUp:
		n := e.nodes[ev.job]
		n.Down = false
		n.UpSeconds = 0
		if at, ok := e.faults.nextDown(ev.job, e.now); ok {
			e.events.add(event{at: at, kind: evNodeDown, job: ev.job})
		}
		e.idx.up(ev.job)
		e.occ[ev.job] = 0
	}
	return true, nil
}

// finish counts a completed or permanently failed job. A summary-only
// run folds it into the aggregates and releases its state.
func (e *engine) finish(st *jobState) {
	e.finished++
	if e.m != nil && e.m.summaryOnly {
		e.m.record(st)
		e.states[st.job.ID] = nil
	}
}

// simulate is the batch driver behind Simulate and SimulateStream: it
// stages arrivals from the source one at a time and runs the engine
// until every job has completed or permanently failed.
func simulate(src jobSource, opt Options, cores int) (*Metrics, error) {
	e := newEngine(opt.Nodes, cores, opt.DRAMBytesPerNode, opt.Policy, opt.Estimator, opt.Interference)
	e.retry = opt.retry()
	srcDone := false
	pull := func() error {
		j, ok, err := src.next()
		if err != nil {
			return err
		}
		if !ok {
			srcDone = true
			return nil
		}
		if j.ID != len(e.states) {
			return fmt.Errorf("cluster: trace job at position %d has ID %d (IDs must equal trace positions)", len(e.states), j.ID)
		}
		e.track(j)
		if opt.Faults.Enabled {
			e.avoid = append(e.avoid, -1)
		}
		e.events.add(event{at: j.ArrivalSeconds, kind: evArrive, job: j.ID})
		return nil
	}
	if err := pull(); err != nil {
		return nil, err
	}
	if srcDone && len(e.states) == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	if opt.Faults.Enabled {
		var err error
		if e.faults, err = newFaultDriver(opt.Faults, opt.Nodes); err != nil {
			return nil, err
		}
		e.faults.start(opt.Nodes, &e.events)
	}

	m := newMetrics(opt.Policy.Name(), opt.Nodes, cores, e.iv.Enabled, opt.Faults.Enabled, opt.Fleet)
	e.m = m
	for {
		head, ok := e.events.peek()
		if !ok {
			break
		}
		m.integrateOcc(e.occ, e.now, head.at)
		e.now = head.at
		live := false
		for {
			ev, ok := e.events.peek()
			if !ok || ev.at != e.now {
				break
			}
			ev = e.events.next()
			m.Events++
			changed, err := e.retire(ev)
			if err != nil {
				return nil, err
			}
			live = live || changed
			// A fresh arrival (not a fault retry) consumed the staged job;
			// stage the next one from the source.
			if ev.kind == evArrive && !srcDone && ev.job == len(e.states)-1 && e.states[ev.job].attempts == 0 {
				if err := pull(); err != nil {
					return nil, err
				}
			}
		}
		if !live {
			// Every event at this time was stale; occupancy did not
			// change, so there is nothing to schedule or sample.
			continue
		}
		if e.iv.Enabled {
			// Completions changed residency: advance progress to now and
			// re-rate the survivors before the policy reads EndSeconds.
			e.reflow()
		}
		m.Passes++
		placements, err := e.pass()
		if err != nil {
			return nil, err
		}
		if err := e.commit(placements); err != nil {
			return nil, err
		}
		m.sampleOcc(e.now, e.occ)
		if srcDone && e.finished == len(e.states) {
			// Every job has completed or permanently failed. Leaving now
			// (instead of draining the heap) is what terminates a random
			// failure schedule, whose node events would otherwise repost
			// forever; any remaining events are stale or node flaps over
			// an empty cluster, which produce no output either way.
			break
		}
	}

	if len(e.pending) > 0 {
		return nil, fmt.Errorf("cluster: policy %s stalled with %d jobs queued and the cluster idle", opt.Policy.Name(), len(e.pending))
	}
	if !m.summaryOnly {
		for _, st := range e.states {
			m.record(st)
		}
	}
	m.finish()
	return m, nil
}

// reflow is the fluid step: integrate every running job's progress up
// to now under its current rate, recompute rates on the nodes whose
// residency changed, and for every job whose rate changed re-estimate
// its completion, bump its epoch, and post a fresh completion event
// (the old one, now stale, is skipped when it pops). Rates are pure
// functions of the deterministic residency sets, so reflow preserves
// the engine's bit-for-bit reproducibility.
//
// Only nodes marked in rerate are rated: a node's rates depend on its
// residents and the model alone, so re-rating an unmarked node would
// reproduce every resident's current rate and change nothing. Progress
// stays eager, integrated over every resident at every reflow: deferring
// it would regroup (t1-t0)*r + (t2-t1)*r into (t2-t0)*r, which rounds
// differently.
func (e *engine) reflow() {
	for _, n := range e.nodes {
		for i := range n.Running {
			st := e.states[n.Running[i].JobID]
			if st.rate > 0 {
				st.progress += (e.now - st.lastAt) * st.rate
			}
			st.lastAt = e.now
		}
	}
	for id, n := range e.nodes {
		if !e.rerate[id] {
			continue
		}
		e.rerate[id] = false
		rates := n.socketRates(e.iv)
		for i := range n.Running {
			st := e.states[n.Running[i].JobID]
			rate := rates(st.profile)
			if rate == st.rate {
				continue
			}
			st.rate = rate
			remaining := st.duration - st.progress
			if remaining < 0 {
				remaining = 0
			}
			st.end = e.now + remaining/rate
			st.epoch++
			n.Running[i].EndSeconds = st.end
			e.events.add(event{at: st.end, kind: evComplete, job: st.job.ID, epoch: st.epoch})
		}
	}
}

// kill handles one resident job on a failing node: integrate its
// progress, bank whole checkpoint intervals as credit, charge the rest
// as waste, and either requeue it with exponential backoff or fail it
// permanently once its attempt budget is spent. Returns true when the
// job permanently failed (it counts as finished), false when it will
// retry. The caller clears the node's resident list.
//
// The requeue time is guarded against the no-fit sentinel: an
// exponential backoff large enough to overflow (or to land at or past
// noFitSeconds) used to produce a +Inf arrival time, which poisoned
// every derived metric and made the JSON export fail outright. A job
// whose requeue time is unrepresentable now fails permanently instead.
func (e *engine) kill(st *jobState) bool {
	now := e.now
	achieved := st.credit + (now - st.start)
	if e.iv.Enabled {
		// Fluid progress is exact: integrate to the failure instant under
		// the rate that held since the last residency change.
		if st.rate > 0 {
			st.progress += (now - st.lastAt) * st.rate
		}
		st.lastAt = now
		achieved = st.progress
	}
	if achieved > st.duration {
		achieved = st.duration
	}
	st.credit = e.retry.credit(achieved)
	st.wasted += achieved - st.credit
	st.started = false
	st.rate = 0
	st.epoch++ // any queued completion event for this attempt is now stale
	requeue := now + e.retry.backoff(st.attempts)
	if st.attempts >= e.retry.MaxAttempts || math.IsInf(requeue, 0) || isNoFit(requeue) {
		// Out of attempts — or the next attempt is beyond the
		// representable horizon: the job fails permanently and its banked
		// checkpoints never pay off.
		st.failed = true
		st.end = now
		st.wasted += st.credit
		st.credit = 0
		return true
	}
	e.avoid[st.job.ID] = st.node
	e.events.add(event{at: requeue, kind: evArrive, job: st.job.ID})
	return false
}

// removeJob drops the job from the pending queue preserving order.
func removeJob(pending []Job, id int) []Job {
	for i, j := range pending {
		if j.ID == id {
			return append(pending[:i], pending[i+1:]...)
		}
	}
	return pending
}
