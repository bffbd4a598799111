package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// The incremental cluster-state store behind the wfschedd daemon's
// placement API.
//
// Simulate consumes a whole trace and returns a report; a scheduling
// service instead accumulates state across many requests: nodes
// register one at a time, jobs are submitted whenever clients show up,
// and schedules are queried between submissions. State is that store,
// and it runs on the batch simulator's own event loop (engine): the
// same NodeView capacity model, the same pluggable policies, the same
// memoized Estimator, the same bucketed free-capacity index (grown in
// place as nodes register) and the same event heap. Only the driver
// differs: instead of pulling arrivals from a trace, State takes them
// from Submit — an arrival the clock has reached joins the pending
// queue at once, a future one becomes an arrival event — and the clock
// moves only through AdvanceTo, which steps the engine through every
// event instant up to the target. The store stays fully deterministic:
// an identical call sequence produces identical placements, byte for
// byte.
//
// The store runs the fixed-duration model (it enables neither the
// interference nor the fault model), and TestStateMatchesSimulate
// replays traces through both drivers and demands identical per-job
// placements. Three differences are deliberate: an arrival before the
// clock is clamped to it (a service cannot accept work in the past), a
// queue with no registered nodes waits instead of erroring (a service
// may see jobs before its fleet), and each placement records the
// filter candidates the index held before it was committed.

// stateCandidateCap bounds the per-placement candidate list recorded
// for the decision API's filter phase; a thousand-node fleet should
// not echo a thousand IDs per placement.
const stateCandidateCap = 16

// StateOptions configures an incremental store.
type StateOptions struct {
	// Policy decides placements at every Schedule/AdvanceTo pass.
	Policy Policy
	// Estimator is the cost model (typically NewEstimator over a shared
	// core.Runner — the daemon's decision cache).
	Estimator Estimator
	// CoresPerSocket overrides the per-socket capacity of registered
	// nodes; 0 derives it from the testbed machine.
	CoresPerSocket int
}

// JobPhase is a submitted job's lifecycle position.
type JobPhase string

const (
	// JobFuture jobs are submitted with an arrival the clock has not
	// reached yet.
	JobFuture JobPhase = "future"
	// JobQueued jobs have arrived and wait for capacity.
	JobQueued JobPhase = "queued"
	// JobRunning jobs occupy cores on their node.
	JobRunning JobPhase = "running"
	// JobDone jobs have completed.
	JobDone JobPhase = "done"
)

// JobStatus is the externally visible record of one submitted job.
type JobStatus struct {
	ID             int
	Name           string
	Ranks          int
	Phase          JobPhase
	ArrivalSeconds float64
	// Node, Config, StartSeconds, EndSeconds and DurationSeconds are
	// meaningful once the job has started (Node is -1 before).
	Node            int
	Config          string
	StartSeconds    float64
	EndSeconds      float64
	DurationSeconds float64
	// WaitSeconds is start minus arrival once started.
	WaitSeconds float64
}

// Placed is one committed placement decision, with the filter-phase
// evidence the decision API reports: the nodes that had capacity when
// the pass started (capped at stateCandidateCap, ascending ID), in the
// spirit of the k8s extender's filter/prioritize split — Candidates is
// the filter output, Node the prioritized binding.
type Placed struct {
	JobID           int
	Node            int
	Config          core.Config
	StartSeconds    float64
	EndSeconds      float64
	DurationSeconds float64
	Candidates      []int
}

// Step reports what one Schedule or AdvanceTo call changed: placements
// committed and jobs completed, each in decision order.
type Step struct {
	Placed    []Placed
	Completed []JobStatus
}

// State is the incremental store. It is not safe for concurrent use;
// the daemon serializes access (one store mutation at a time is also
// what keeps the decision log reproducible).
type State struct {
	e    *engine
	step *Step // the Schedule/AdvanceTo call in progress, for the commit hook
}

// NewState builds an empty store: no nodes, no jobs, clock at zero.
func NewState(opt StateOptions) (*State, error) {
	if opt.Policy == nil {
		return nil, fmt.Errorf("cluster: no scheduling policy")
	}
	if opt.Estimator == nil {
		return nil, fmt.Errorf("cluster: no estimator")
	}
	if opt.CoresPerSocket < 0 {
		return nil, fmt.Errorf("cluster: negative cores per socket")
	}
	cores := Options{CoresPerSocket: opt.CoresPerSocket}.coresPerSocket()
	s := &State{e: newEngine(0, cores, 0, opt.Policy, opt.Estimator, Interference{})}
	s.e.onCommit = s.placed
	return s, nil
}

// Now returns the store's virtual clock.
func (s *State) Now() float64 { return s.e.now }

// CoresPerSocket returns the per-socket capacity of every node.
func (s *State) CoresPerSocket() int { return s.e.cores }

// PolicyName returns the configured policy's name.
func (s *State) PolicyName() string { return s.e.policy.Name() }

// AddNode registers one fresh node and returns its ID. Nodes are
// homogeneous (the store's CoresPerSocket); they join empty and
// immediately schedulable.
func (s *State) AddNode() int {
	return s.e.addNode()
}

// Submit registers a job. An arrival before the current clock is
// clamped to it (an online service cannot accept work in the past) and
// joins the queue at once; an arrival beyond it becomes an arrival
// event that AdvanceTo reaches. The job is validated against the
// store's node shape.
func (s *State) Submit(wf workflow.Spec, arrival float64) (int, error) {
	e := s.e
	if err := wf.Validate(); err != nil {
		return 0, err
	}
	if wf.Ranks > e.cores {
		return 0, fmt.Errorf("cluster: job %q needs %d ranks but nodes have %d cores per socket",
			wf.Name, wf.Ranks, e.cores)
	}
	if arrival < e.now {
		arrival = e.now
	}
	id := len(e.states)
	st := e.track(Job{ID: id, Workflow: wf, ArrivalSeconds: arrival})
	if arrival > e.now {
		e.events.add(event{at: arrival, kind: evArrive, job: id})
	} else {
		e.admit(st)
	}
	return id, nil
}

// Job returns the status of a submitted job.
func (s *State) Job(id int) (JobStatus, bool) {
	if id < 0 || id >= len(s.e.states) {
		return JobStatus{}, false
	}
	return s.status(s.e.states[id]), true
}

func (s *State) status(st *jobState) JobStatus {
	js := JobStatus{
		ID:             st.job.ID,
		Name:           st.job.Workflow.Name,
		Ranks:          st.job.Workflow.Ranks,
		Phase:          JobFuture,
		ArrivalSeconds: st.job.ArrivalSeconds,
		Node:           st.node,
		Config:         st.cfg,
	}
	switch {
	case st.queued:
		js.Phase = JobQueued
		return js
	case st.done:
		js.Phase = JobDone
	case st.started:
		js.Phase = JobRunning
	default:
		return js
	}
	js.StartSeconds = st.start
	js.EndSeconds = st.end
	js.DurationSeconds = st.duration
	js.WaitSeconds = st.start - st.job.ArrivalSeconds
	return js
}

// Candidates returns the nodes that currently have capacity for ranks
// cores, ascending ID, capped at limit (limit <= 0 selects the default
// cap) — the decision API's standalone filter query.
func (s *State) Candidates(ranks, limit int) []int {
	if limit <= 0 {
		limit = stateCandidateCap
	}
	var out []int
	s.e.idx.eachFit(ranks, -1, func(id int) bool {
		out = append(out, id)
		return len(out) < limit
	})
	return out
}

// Schedule runs scheduling passes at the current instant until the
// store is quiescent (zero-duration placements complete and reschedule
// at the same instant, exactly as the batch engine's event loop does)
// and returns what changed. With no registered nodes the queue simply
// waits.
func (s *State) Schedule() (Step, error) {
	return s.run(s.e.now)
}

// ErrInvalidAdvance tags AdvanceTo targets the store must refuse:
// non-finite or backwards times. NaN in particular passes a plain
// backwards comparison (NaN < now is false) and would then be written
// into the clock, poisoning every later event comparison — so callers
// get an error they can map to a client fault (errors.Is).
var ErrInvalidAdvance = errors.New("invalid advance target")

// AdvanceTo moves the virtual clock to t, applying completions and
// parked arrivals in the engine's event order (completions before
// arrivals at equal times, ties by job ID) and consulting the policy
// after every instant's events.
func (s *State) AdvanceTo(t float64) (Step, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Step{}, fmt.Errorf("cluster: %w: non-finite time %g", ErrInvalidAdvance, t)
	}
	if t < s.e.now {
		return Step{}, fmt.Errorf("cluster: %w: cannot advance the clock backwards (now %g, asked %g)", ErrInvalidAdvance, s.e.now, t)
	}
	step, err := s.run(t)
	if err == nil {
		s.e.now = t
	}
	return step, err
}

// run drives the engine up to t: a pass at the current instant, then
// for each event instant up to t its events and another pass. A
// zero-duration placement posts its completion at the current instant,
// so the loop picks it up as that instant's next round, exactly as the
// batch driver does.
func (s *State) run(t float64) (Step, error) {
	var step Step
	s.step = &step
	defer func() { s.step = nil }()
	e := s.e
	for {
		if err := s.pass(); err != nil {
			return step, err
		}
		head, ok := e.events.peek()
		if !ok || head.at > t {
			return step, nil
		}
		e.now = head.at
		for {
			ev, ok := e.events.peek()
			if !ok || ev.at != e.now {
				break
			}
			ev = e.events.next()
			changed, err := e.retire(ev)
			if err != nil {
				return step, err
			}
			if changed && ev.kind == evComplete {
				step.Completed = append(step.Completed, s.status(e.states[ev.job]))
			}
		}
	}
}

// pass runs one policy pass and commits it, unless nothing waits or no
// node is registered yet (the queue then simply waits).
func (s *State) pass() error {
	if len(s.e.pending) == 0 || len(s.e.nodes) == 0 {
		return nil
	}
	placements, err := s.e.pass()
	if err != nil {
		return err
	}
	return s.e.commit(placements)
}

// placed is the engine's commit hook: it records the placement with
// its filter evidence, read from the index before the placement
// consumes capacity.
func (s *State) placed(st *jobState, pl Placement) {
	s.step.Placed = append(s.step.Placed, Placed{
		JobID:           pl.JobID,
		Node:            pl.Node,
		Config:          pl.Config,
		StartSeconds:    st.start,
		EndSeconds:      st.end,
		DurationSeconds: st.duration,
		Candidates:      s.Candidates(st.job.Workflow.Ranks, stateCandidateCap),
	})
}

// NodeSnapshot is one node's state in a Snapshot.
type NodeSnapshot struct {
	ID      int
	Cores   int
	Free    int
	Running []NodeJob
}

// NodeJob is one resident job in a NodeSnapshot.
type NodeJob struct {
	JobID      int
	Ranks      int
	EndSeconds float64
}

// Snapshot is a point-in-time view of the whole store: the clock,
// every node with its residents, and the job population by phase.
type Snapshot struct {
	NowSeconds     float64
	Policy         string
	CoresPerSocket int
	Nodes          []NodeSnapshot
	// Queue lists arrived-but-waiting job IDs in queue order; Future
	// lists parked jobs in (arrival, ID) order.
	Queue     []int
	Future    []int
	Submitted int
	Running   int
	Completed int
}

// Snapshot captures the store's current state. The result shares
// nothing with the store, so the daemon can serialize it after
// releasing its lock.
func (s *State) Snapshot() Snapshot {
	e := s.e
	snap := Snapshot{
		NowSeconds:     e.now,
		Policy:         e.policy.Name(),
		CoresPerSocket: e.cores,
		Submitted:      len(e.states),
		Completed:      e.finished,
		Queue:          make([]int, 0, len(e.pending)),
	}
	for _, j := range e.pending {
		snap.Queue = append(snap.Queue, j.ID)
	}
	// Every parked job is exactly one pending arrival event; the heap's
	// own order sorts them by (arrival, ID).
	var future eventHeap
	for _, ev := range e.events {
		if ev.kind == evArrive {
			future = append(future, ev)
		}
	}
	sort.Sort(future)
	for _, ev := range future {
		snap.Future = append(snap.Future, ev.job)
	}
	for _, n := range e.nodes {
		ns := NodeSnapshot{ID: n.ID, Cores: n.Cores, Free: n.FreeAt(e.now)}
		snap.Running += len(n.Running)
		for _, r := range n.Running {
			ns.Running = append(ns.Running, NodeJob{JobID: r.JobID, Ranks: r.Ranks, EndSeconds: r.EndSeconds})
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	return snap
}
