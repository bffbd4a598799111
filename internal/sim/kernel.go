package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Proc is one simulated process (an MPI rank, in this repository).
type Proc struct {
	id   int
	name string
	prog Program

	// current stage state
	stage    Stage
	stageEnd float64 // for Compute: absolute completion time
	flow     *Flow   // for Transfer
	waitV    int64
	done     bool
	endTime  float64

	acct    []tagTime // per-tag accumulated seconds, in first-charge order
	tag     string    // tag of the stage in progress
	tick    float64   // time the stage in progress started/resumed
	charges []Charge  // analytic attributions for the transfer in progress
}

// tagTime is one accounting bucket of a process.
type tagTime struct {
	tag     string
	seconds float64
}

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process has terminated.
func (p *Proc) Done() bool { return p.done }

// EndTime returns the simulated time at which the process terminated.
// Valid only after Done.
func (p *Proc) EndTime() float64 { return p.endTime }

// TimeIn returns the accumulated simulated seconds the process spent
// in stages carrying the given tag.
func (p *Proc) TimeIn(tag string) float64 {
	for _, a := range p.acct {
		if a.tag == tag {
			return a.seconds
		}
	}
	return 0
}

// Tags returns the accounting tags seen by this process, sorted.
func (p *Proc) Tags() []string {
	tags := make([]string, 0, len(p.acct))
	for _, a := range p.acct {
		tags = append(tags, a.tag)
	}
	sort.Strings(tags)
	return tags
}

// Kernel is the simulation engine. Create with New, add processes with
// Spawn, then call Run.
type Kernel struct {
	now     float64
	procs   []*Proc
	flows   []*Flow // active transfers, ordered by arrival
	dirty   bool    // flow set changed since last rate computation
	condSeq int

	// Finished transfers' flows, recycled for later transfers. A removed
	// flow is retired until the next round's SetFlows calls, because the
	// resources may still hold it in the lists they read then (see
	// Resource); after them it is free for reuse.
	retired []*Flow
	free    []*Flow

	// Rate-round state. Every resource a flow routes through gets a
	// dense slot the first time it is seen; flows carry their path as
	// slots, so a round reads per-slot state by index.
	slotOf    map[Resource]int32
	res       []Resource   // slot -> resource
	lists     [2][][]*Flow // per-slot flow lists, double-buffered by round
	buf       int          // index into lists of the latest round's buffer
	stamp     []uint64     // per slot: the last round that installed it
	round     uint64       // rounds that installed flows so far
	prevSlots []int32      // slots the latest round installed, in order
	spare     []int32      // reused backing for the next round's slots

	// MaxSteps bounds the number of kernel events as a runaway guard;
	// zero means the default (1e9).
	MaxSteps int64

	tracer *Tracer
}

// New returns an empty kernel at time zero.
func New() *Kernel { return &Kernel{slotOf: make(map[Resource]int32)} }

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// NewCond returns a condition with published value zero.
func (k *Kernel) NewCond(name string) *Cond {
	k.condSeq++
	if name == "" {
		name = fmt.Sprintf("cond-%d", k.condSeq)
	}
	return &Cond{name: name}
}

// Spawn adds a process running prog. Processes spawned before Run
// start at time zero; spawning after Run has returned is not
// supported.
func (k *Kernel) Spawn(name string, prog Program) *Proc {
	p := &Proc{
		id:   len(k.procs),
		name: name,
		prog: prog,
		// Room for the handful of tags a workflow rank charges.
		acct: make([]tagTime, 0, 6),
	}
	k.procs = append(k.procs, p)
	return p
}

// ErrDeadlock is returned by Run when live processes remain but no
// event can ever fire (every live process waits on a condition or
// barrier that nothing will publish).
var ErrDeadlock = errors.New("sim: deadlock: all live processes blocked")

// Run executes the simulation until every process terminates. It
// returns the final simulated time.
func (k *Kernel) Run() (float64, error) { return k.run(k.assignRates) }

// run is Run with the rate round passed in, so tests can drive the
// same event loop with a reference round.
func (k *Kernel) run(assignRates func()) (float64, error) {
	maxSteps := k.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1_000_000_000
	}
	// Prime every process with its first stage.
	for _, p := range k.procs {
		if p.stage == nil && !p.done {
			k.advanceProc(p)
		}
	}
	for step := int64(0); ; step++ {
		if step > maxSteps {
			return k.now, fmt.Errorf("sim: exceeded %d kernel steps at t=%g", maxSteps, k.now)
		}
		if k.allDone() {
			return k.now, nil
		}
		if k.dirty {
			assignRates()
			k.dirty = false
		}
		t, ok := k.nextEventTime()
		if !ok {
			return k.now, fmt.Errorf("%w at t=%g: %s", ErrDeadlock, k.now, k.blockedSummary())
		}
		k.advanceTo(t)
		k.completeStages()
	}
}

func (k *Kernel) allDone() bool {
	for _, p := range k.procs {
		if !p.done {
			return false
		}
	}
	return true
}

// advanceProc pulls stages from the program until the process blocks
// on one (or terminates). Wait stages whose condition is already
// satisfied and barrier arrivals that complete the barrier are
// consumed immediately, so a program can express fine-grained
// synchronization without spurious zero-length events.
func (k *Kernel) advanceProc(p *Proc) {
	for {
		s := p.prog.Next(k)
		if s == nil {
			p.done = true
			p.endTime = k.now
			return
		}
		switch st := s.(type) {
		case *Compute:
			if st.Seconds < 0 {
				panic(fmt.Sprintf("sim: proc %q: negative compute duration %g", p.name, st.Seconds))
			}
			if st.Seconds == 0 {
				p.charge(st.Tag, 0)
				continue // zero-length stage: account and move on
			}
			p.stage = s
			p.stageEnd = k.now + st.Seconds
			p.beginAt(st.Tag, k.now)
			return
		case *Transfer:
			if st.Bytes < 0 {
				panic(fmt.Sprintf("sim: proc %q: negative transfer size %g", p.name, st.Bytes))
			}
			if st.OpBytes < 0 || st.PerOpSeconds < 0 {
				panic(fmt.Sprintf("sim: proc %q: negative per-op transfer parameters", p.name))
			}
			if len(st.Path) == 0 {
				panic(fmt.Sprintf("sim: proc %q: transfer with empty resource path", p.name))
			}
			if st.Bytes == 0 {
				p.charge(st.Tag, 0)
				continue
			}
			opBytes := st.OpBytes
			if opBytes == 0 || opBytes > st.Bytes {
				opBytes = st.Bytes
			}
			f := k.newFlow()
			*f = Flow{
				Class:     st.Class,
				Weight:    1,
				opBytes:   opBytes,
				perOp:     st.PerOpSeconds,
				slots:     k.slotsFor(f.slots[:0], st.Path),
				remaining: st.Bytes,
				proc:      p,
			}
			p.stage = s
			p.flow = f
			p.charges = st.Charges
			p.beginAt(st.Tag, k.now)
			k.flows = append(k.flows, f)
			k.dirty = true
			return
		case *Wait:
			if st.C == nil {
				panic(fmt.Sprintf("sim: proc %q: wait on nil cond", p.name))
			}
			if st.C.value >= st.Target {
				p.charge(st.Tag, 0)
				continue
			}
			p.stage = s
			p.waitV = st.Target
			p.beginAt(st.Tag, k.now)
			return
		case *Arrive:
			if st.B == nil {
				panic(fmt.Sprintf("sim: proc %q: arrive at nil barrier", p.name))
			}
			waitFor, released := st.B.arrive()
			if released {
				p.charge(st.Tag, 0)
				// The completing arrival wakes everyone blocked on the
				// barrier's generation; they resume at the current time.
				k.wakeBarrier(st.B)
				continue
			}
			p.stage = s
			p.waitV = waitFor
			p.beginAt(st.Tag, k.now)
			return
		default:
			panic(fmt.Sprintf("sim: proc %q: unknown stage type %T", p.name, s))
		}
	}
}

// wakeWaiters resumes processes whose Wait condition is now satisfied.
// Called by Cond.Publish.
func (k *Kernel) wakeWaiters() {
	for _, p := range k.procs {
		if p.done {
			continue
		}
		if w, ok := p.stage.(*Wait); ok && w.C.value >= p.waitV {
			k.traceFinish(p, k.now)
			p.finishStage(k.now)
			k.advanceProc(p)
		}
	}
}

// wakeBarrier resumes processes blocked at b whose awaited generation
// has completed.
func (k *Kernel) wakeBarrier(b *Barrier) {
	for _, p := range k.procs {
		if p.done {
			continue
		}
		if a, ok := p.stage.(*Arrive); ok && a.B == b && b.gen >= p.waitV {
			k.traceFinish(p, k.now)
			p.finishStage(k.now)
			k.advanceProc(p)
		}
	}
}

// rateIterations is the number of fixed-point iterations used to
// converge flow duty-cycle weights with capacity models that depend on
// them. Weights move monotonically toward their fixed point and four
// iterations change rates by well under a percent in practice (the
// weight-convergence tests assert this).
const rateIterations = 4

// newFlow returns a flow for a new transfer: a recycled one when one
// is free, with its slots backing still attached, or a new one.
func (k *Kernel) newFlow() *Flow {
	if n := len(k.free); n > 0 {
		f := k.free[n-1]
		k.free = k.free[:n-1]
		return f
	}
	return &Flow{}
}

// slotsFor appends the slot of every resource on path to slots, giving
// each resource the kernel has not seen before the next free slot.
func (k *Kernel) slotsFor(slots []int32, path []Resource) []int32 {
	for _, r := range path {
		s, ok := k.slotOf[r]
		if !ok {
			s = int32(len(k.res))
			k.slotOf[r] = s
			k.res = append(k.res, r)
			// Each process has at most one transfer in flight, so a
			// list sized to the processes rarely has to grow in a round.
			k.lists[0] = append(k.lists[0], make([]*Flow, 0, len(k.procs)))
			k.lists[1] = append(k.lists[1], make([]*Flow, 0, len(k.procs)))
			k.stamp = append(k.stamp, 0)
		}
		slots = append(slots, s)
	}
	return slots
}

// assignRates recomputes flow rates. Each flow's device share is its
// equal share of every path resource's capacity under the current
// weighted census (capped by the resource's per-flow stream limit);
// its payload rate is then throttled by the per-operation software
// cost, which in turn determines the duty-cycle weight the next
// iteration's census sees.
func (k *Kernel) assignRates() {
	if len(k.flows) == 0 {
		// Clear every previously installed flow list so stateful
		// resources (e.g. the PMEM device's pressure integrator) observe
		// the idle period instead of integrating a stale census across
		// it.
		for _, s := range k.prevSlots {
			k.res[s].SetFlows(k.now, nil)
		}
		k.prevSlots = k.prevSlots[:0]
		k.recycle()
		return
	}
	// Build this round's flow lists in the buffer the previous round did
	// not hand out: a resource may read the lists it and a coupled
	// resource still hold while SetFlows installs the new ones (the PMEM
	// device integrates write pressure from both ports' old lists), so
	// those must stay intact through this round's SetFlows calls.
	k.buf ^= 1
	lists := k.lists[k.buf]
	k.round++
	slots := k.spare[:0]
	for _, f := range k.flows {
		for _, s := range f.slots {
			if k.stamp[s] != k.round {
				k.stamp[s] = k.round
				slots = append(slots, s)
				lists[s] = lists[s][:0]
			}
			lists[s] = append(lists[s], f)
		}
	}
	// Install flow lists on the resources in this round's path union;
	// clear resources that dropped out since the previous round.
	for _, s := range k.prevSlots {
		if k.stamp[s] != k.round {
			k.res[s].SetFlows(k.now, nil)
		}
	}
	for _, s := range slots {
		k.res[s].SetFlows(k.now, lists[s])
	}
	k.spare, k.prevSlots = k.prevSlots, slots
	k.recycle()

	for iter := 0; iter < rateIterations; iter++ {
		for _, f := range k.flows {
			share := math.Inf(1)
			for _, slot := range f.slots {
				cap, perFlow := k.res[slot].Evaluate()
				w := 0.0
				for _, g := range lists[slot] {
					w += g.Weight
				}
				if w < 1 {
					w = 1
				}
				s := min(cap/w, perFlow)
				if s < share {
					share = s
				}
			}
			if share < minRate {
				share = minRate
			}
			f.device = share
			if f.perOp > 0 {
				cycle := f.perOp + f.opBytes/share
				f.rate = f.opBytes / cycle
				f.Weight = (f.opBytes / share) / cycle
			} else {
				f.rate = share
				f.Weight = 1
			}
			if f.rate < minRate {
				f.rate = minRate
			}
		}
	}
}

// nextEventTime returns the earliest pending completion time.
func (k *Kernel) nextEventTime() (float64, bool) {
	t := math.Inf(1)
	for _, p := range k.procs {
		if p.done {
			continue
		}
		switch p.stage.(type) {
		case *Compute:
			if p.stageEnd < t {
				t = p.stageEnd
			}
		case *Transfer:
			end := k.now + p.flow.remaining/p.flow.rate
			if end < t {
				t = end
			}
		}
	}
	if math.IsInf(t, 1) {
		return 0, false
	}
	return t, true
}

// advanceTo integrates transfer progress up to time t and moves the
// clock.
func (k *Kernel) advanceTo(t float64) {
	dt := t - k.now
	if dt < 0 {
		dt = 0
		t = k.now
	}
	for _, f := range k.flows {
		f.remaining -= f.rate * dt
	}
	k.now = t
}

// completeStages finishes every stage that has reached completion at
// the current time, then lets those processes advance (which may
// publish conditions and wake others).
func (k *Kernel) completeStages() {
	const eps = 1e-9 // seconds; transfers within a ns of done complete
	for _, p := range k.procs {
		if p.done {
			continue
		}
		switch p.stage.(type) {
		case *Compute:
			if p.stageEnd <= k.now+1e-15*max(1, k.now) {
				k.traceFinish(p, k.now)
				p.finishStage(k.now)
				k.advanceProc(p)
			}
		case *Transfer:
			if p.flow.remaining <= p.flow.rate*eps {
				p.flow.remaining = 0
				k.removeFlow(p.flow)
				p.flow = nil
				k.traceFinish(p, k.now)
				p.finishStage(k.now)
				k.advanceProc(p)
			}
		}
	}
}

func (k *Kernel) removeFlow(f *Flow) {
	for i, g := range k.flows {
		if g == f {
			k.flows = append(k.flows[:i], k.flows[i+1:]...)
			k.retired = append(k.retired, f)
			k.dirty = true
			return
		}
	}
}

// recycle frees the flows retired before this round. Called once the
// round's SetFlows calls are done: no resource holds them any more.
func (k *Kernel) recycle() {
	k.free = append(k.free, k.retired...)
	k.retired = k.retired[:0]
}

func (k *Kernel) blockedSummary() string {
	s := ""
	for _, p := range k.procs {
		if p.done {
			continue
		}
		switch st := p.stage.(type) {
		case *Wait:
			s += fmt.Sprintf(" %s waits %s>=%d (at %d);", p.name, st.C.name, p.waitV, st.C.value)
		case *Arrive:
			s += fmt.Sprintf(" %s at barrier %s gen %d;", p.name, st.B.name, p.waitV)
		}
	}
	return s
}

// beginAt starts accounting the current stage under tag at time now.
func (p *Proc) beginAt(tag string, now float64) {
	p.tag = tag
	p.tick = now
}

// finishStage charges the elapsed stage time and clears stage state.
// For transfer phases, the analytically known charges (software cost,
// interleaved compute) are attributed first and the remainder — the
// device time — goes to the stage tag.
func (p *Proc) finishStage(now float64) {
	elapsed := now - p.tick
	for _, c := range p.charges {
		attributed := min(c.Seconds, elapsed)
		p.charge(c.Tag, attributed)
		elapsed -= attributed
	}
	p.charge(p.tag, elapsed)
	p.stage = nil
	p.tag = ""
	p.charges = nil
}

func (p *Proc) charge(tag string, seconds float64) {
	if tag == "" {
		tag = "untagged"
	}
	i := 0
	for i < len(p.acct) && p.acct[i].tag != tag {
		i++
	}
	if i == len(p.acct) {
		p.acct = append(p.acct, tagTime{tag: tag})
	}
	p.acct[i].seconds += seconds
}
