package cluster

import (
	"fmt"
	"math"
	"strings"

	"pmemsched/internal/core"
)

// Policy decides which pending jobs start at the current scheduling
// point. It is consulted after every state change (arrival or
// completion) and returns placements for jobs that start now; jobs it
// leaves in the queue wait for the next event.
//
// Policies must be deterministic functions of the context: no wall
// clock, no global randomness, no map iteration (pmemlint enforces all
// three in this package).
type Policy interface {
	Name() string
	Schedule(ctx *SchedContext) ([]Placement, error)
}

// FCFS is strict first-come-first-served under one fixed site-wide
// configuration: jobs start in arrival order on the lowest-ID node
// with enough free cores, and a blocked head-of-queue blocks everyone
// behind it. This is the baseline discipline of batch schedulers with
// backfilling disabled.
func FCFS(cfg core.Config) Policy {
	return &listPolicy{name: "fcfs/" + cfg.Label(), fixed: &cfg}
}

// EASY is FCFS with EASY backfilling (Lifka's argonne scheduler): when
// the head of the queue does not fit, it gets a reservation at the
// earliest time enough cores free up, and later jobs may jump ahead
// only if doing so cannot delay that reservation. All jobs run under
// one fixed site-wide configuration.
func EASY(cfg core.Config) Policy {
	return &listPolicy{name: "easy/" + cfg.Label(), fixed: &cfg, backfill: true}
}

// PMEMAware is EASY backfilling with per-job configuration decisions:
// each job runs under the configuration Table II recommends for it
// (profiling and classification memoized by the run engine) instead of
// a site-wide default. The queueing discipline is identical to EASY, so
// any metric difference against a fixed policy isolates the value of
// PMEM-aware per-workflow configuration — the scheduler the paper's
// conclusions call for.
func PMEMAware() Policy {
	return &listPolicy{name: "pmem-aware", backfill: true}
}

// EASYInterferenceAware is EASY whose node choice minimizes projected
// PMEM oversubscription: among the nodes with enough free cores, a job
// goes to the one where its device socket's combined bandwidth demand
// overshoots its budget the least — avoiding co-placing two
// bandwidth-bound jobs whenever an alternative node exists. With the
// interference model disabled it degrades to plain EASY (lowest-ID
// first fit).
func EASYInterferenceAware(cfg core.Config) Policy {
	return &listPolicy{name: "easy-i/" + cfg.Label(), fixed: &cfg, backfill: true, aware: true}
}

// PMEMAwareInterferenceAware combines per-job Table II configurations
// with interference-aware node choice: the full scheduler the
// interference experiment evaluates.
func PMEMAwareInterferenceAware() Policy {
	return &listPolicy{name: "pmem-aware-i", backfill: true, aware: true}
}

// Policies returns the selectable policy set for a fixed configuration:
// the three disciplines the CLI and the online experiment expose.
func Policies(fixed core.Config) []Policy {
	return []Policy{FCFS(fixed), EASY(fixed), PMEMAware()}
}

// ParsePolicy resolves a CLI policy name: "fcfs", "easy", "pmem-aware",
// or the interference-aware variants "easy-i" and "pmem-aware-i", where
// fixed supplies the site-wide configuration of the fixed-config
// disciplines.
func ParsePolicy(name string, fixed core.Config) (Policy, error) {
	switch strings.ToLower(name) {
	case "fcfs":
		return FCFS(fixed), nil
	case "easy":
		return EASY(fixed), nil
	case "pmem-aware", "pmem":
		return PMEMAware(), nil
	case "easy-i":
		return EASYInterferenceAware(fixed), nil
	case "pmem-aware-i", "pmem-i":
		return PMEMAwareInterferenceAware(), nil
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (want fcfs, easy, pmem-aware, easy-i or pmem-aware-i)", name)
}

// listPolicy is the shared list-scheduling core: arrival-order scan,
// optional EASY backfill, either a fixed configuration or per-job
// Table II recommendations, and either first-fit or interference-aware
// node choice.
type listPolicy struct {
	name     string
	fixed    *core.Config // nil: ask the estimator for a recommendation
	backfill bool
	aware    bool // minimize projected PMEM oversubscription when picking nodes
}

func (p *listPolicy) Name() string { return p.name }

// config picks the job's configuration under this policy.
func (p *listPolicy) config(ctx *SchedContext, j *Job) (core.Config, error) {
	if p.fixed != nil {
		return *p.fixed, nil
	}
	return ctx.recommend(j)
}

// profile fetches the job's PMEM-demand profile when the interference
// model is on (so the snapshot's demand accounting stays correct across
// a pass) and returns the zero profile otherwise.
func (p *listPolicy) profile(ctx *SchedContext, j *Job, cfg core.Config) (JobProfile, error) {
	if !ctx.Model.Enabled {
		return JobProfile{}, nil
	}
	prof, err := ctx.profile(j, cfg)
	if err != nil {
		return JobProfile{}, fmt.Errorf("cluster: %s: profiling job %d (%s): %w", p.name, j.ID, j.Workflow.Name, err)
	}
	return prof, nil
}

// pick chooses a node for the job: lowest-ID first fit normally, and
// for the aware variants the fitting node whose projected
// device-socket overload is smallest (ties to the lower ID), so two
// bandwidth-bound jobs are not co-placed while an uncontended node
// exists. The aware variants are also failure-aware: a retried job is
// steered away from the node whose failure killed it (a down node has
// no capacity at all; this soft constraint extends the avoidance
// through the repair, when the job may still be waiting out its
// backoff) unless no other node fits. Returns -1 when no node fits.
func (p *listPolicy) pick(ctx *SchedContext, j *Job, prof JobProfile) int {
	ranks, dram := j.Workflow.Ranks, jobDRAMBytes(j)
	if !p.aware {
		return ctx.fit(ranks, dram, -1)
	}
	if !ctx.Model.Enabled {
		// No interference model: still avoid the failed node, preferring
		// the lowest-ID alternative, with first fit as the fallback.
		if away := ctx.AvoidNode(j.ID); away >= 0 {
			if id := ctx.fit(ranks, dram, away); id >= 0 {
				return id
			}
		}
		return ctx.fit(ranks, dram, -1)
	}
	pickBy := func(skip int) int {
		best, bestScore := -1, inf()
		ctx.eachFit(ranks, dram, skip, func(n *NodeView) bool {
			if score := n.OverloadAfter(ctx.Model, prof); score < bestScore {
				best, bestScore = n.ID, score
			}
			return true
		})
		return best
	}
	if away := ctx.AvoidNode(j.ID); away >= 0 {
		if best := pickBy(away); best >= 0 {
			return best
		}
	}
	return pickBy(-1)
}

func (p *listPolicy) Schedule(ctx *SchedContext) ([]Placement, error) {
	var placed []Placement
	queue := ctx.Queue
	for len(queue) > 0 {
		head := &queue[0]
		cfg, err := p.config(ctx, head)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: configuring job %d (%s): %w", p.name, head.ID, head.Workflow.Name, err)
		}
		prof, err := p.profile(ctx, head, cfg)
		if err != nil {
			return nil, err
		}
		if node := p.pick(ctx, head, prof); node >= 0 {
			dur, err := ctx.estimate(head, cfg)
			if err != nil {
				return nil, fmt.Errorf("cluster: %s: estimating job %d (%s): %w", p.name, head.ID, head.Workflow.Name, err)
			}
			placed = append(placed, ctx.Place(*head, node, cfg, dur, prof))
			queue = queue[1:]
			continue
		}
		// Head blocked: without backfilling nothing behind it may start.
		if !p.backfill {
			break
		}
		more, err := p.backfillBehind(ctx, head, queue[1:])
		if err != nil {
			return nil, err
		}
		placed = append(placed, more...)
		break
	}
	return placed, nil
}

// backfillBehind gives the blocked head a reservation at the earliest
// time its cores free up and starts later jobs that provably cannot
// delay it: a job may backfill if it fits now and either finishes
// before the reservation, runs on a different node, or leaves the
// reserved node with enough cores at the reservation time.
func (p *listPolicy) backfillBehind(ctx *SchedContext, head *Job, rest []Job) ([]Placement, error) {
	shadow, reserved := ctx.EarliestFit(head)
	if reserved < 0 {
		return nil, fmt.Errorf("cluster: %s: job %d (%s) needs %d ranks but no node can ever fit it",
			p.name, head.ID, head.Workflow.Name, head.Workflow.Ranks)
	}
	var placed []Placement
	// blocked is the fewest ranks no node has free cores for in this
	// pass. Free cores at Now only shrink as the pass places jobs (a
	// zero-duration placement holds nothing at Now), so no later job at
	// least that wide can fit either, tiered or not, and its pick is
	// skipped. The skip sits after config and profile so their errors
	// surface exactly as before.
	blocked := math.MaxInt
	// A job that places nothing — width-blocked, no node picked, or the
	// head's reservation would break — settles its class until the next
	// placement; a width-blocked class stays settled for the whole pass,
	// since blocked only shrinks. Later jobs of a settled class are
	// skipped before their memo reads (see classTable.settle).
	if ctx.classes != nil {
		ctx.classes.beginBackfill()
	}
	for i := range rest {
		j := &rest[i] // by pointer: a Job copy would be most of a skipped job's cost
		h := ctx.settleClass(j)
		if ctx.settled(h, len(placed)) {
			continue
		}
		cfg, err := p.config(ctx, j)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: configuring job %d (%s): %w", p.name, j.ID, j.Workflow.Name, err)
		}
		prof, err := p.profile(ctx, j, cfg)
		if err != nil {
			return nil, err
		}
		if j.Workflow.Ranks >= blocked {
			ctx.settle(h, settledForPass)
			continue
		}
		node := p.pick(ctx, j, prof)
		if node < 0 {
			// A tiered job may be short of DRAM only, and the aware pick
			// can decline a fitting node (an overload score at the no-fit
			// sentinel), so confirm that no node has the cores.
			if ctx.fit(j.Workflow.Ranks, 0, -1) < 0 {
				blocked = j.Workflow.Ranks
			}
			ctx.settle(h, len(placed))
			continue
		}
		dur, err := ctx.estimate(j, cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: estimating job %d (%s): %w", p.name, j.ID, j.Workflow.Name, err)
		}
		end := ctx.Now + dur
		// Would this placement still leave the head's reservation intact?
		if end > shadow && node == reserved && !reservationIntact(ctx.Nodes[reserved], shadow, head, j) {
			ctx.settle(h, len(placed))
			continue
		}
		placed = append(placed, ctx.Place(*j, node, cfg, dur, prof))
	}
	return placed, nil
}

// reservationIntact reports whether the head's reservation at the
// shadow time survives the backfill job j still running then on the
// reserved node: enough cores, and — when the head holds DRAM resident
// on a DRAM-modeled cluster — enough DRAM too.
func reservationIntact(n *NodeView, shadow float64, head, j *Job) bool {
	if n.FreeAt(shadow)-j.Workflow.Ranks < head.Workflow.Ranks {
		return false
	}
	hd := jobDRAMBytes(head)
	if hd <= 0 || n.DRAMBytes <= 0 {
		return true
	}
	return n.DRAMFreeAt(shadow)-jobDRAMBytes(j) >= hd
}
