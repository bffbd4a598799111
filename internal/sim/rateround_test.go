package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mapRound is the rate round as the kernel computed it before
// resources had slots: every round builds a fresh map from resource to
// flow list and reads it inside the fixed point. It is kept as the
// reference the slot-based assignRates must match bit for bit. It reads
// each flow's path from its process's Transfer stage, not from the
// kernel's slots.
type mapRound struct {
	k    *Kernel
	prev []Resource
}

func (o *mapRound) assign() {
	k := o.k
	if len(k.flows) == 0 {
		for _, r := range o.prev {
			r.SetFlows(k.now, nil)
		}
		o.prev = nil
		return
	}
	flowsOn := make(map[Resource][]*Flow, 8)
	resources := make([]Resource, 0, 8)
	for _, f := range k.flows {
		for _, r := range path(f) {
			if _, ok := flowsOn[r]; !ok {
				resources = append(resources, r)
				flowsOn[r] = nil
			}
			flowsOn[r] = append(flowsOn[r], f)
		}
	}
	for _, r := range o.prev {
		if _, ok := flowsOn[r]; !ok {
			r.SetFlows(k.now, nil)
		}
	}
	for _, r := range resources {
		r.SetFlows(k.now, flowsOn[r])
	}
	o.prev = resources

	for iter := 0; iter < rateIterations; iter++ {
		for _, f := range k.flows {
			share := math.Inf(1)
			for _, r := range path(f) {
				cap, perFlow := r.Evaluate()
				w := 0.0
				for _, g := range flowsOn[r] {
					w += g.Weight
				}
				if w < 1 {
					w = 1
				}
				s := math.Min(cap/w, perFlow)
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

func path(f *Flow) []Resource { return f.proc.stage.(*Transfer).Path }

// coupledPair is a device exposed as two resource ports whose state
// couples them the way pmem.Device couples its read and write ports:
// SetFlows on either port first integrates an occupancy EMA over the
// lists *both* ports still hold from the previous round, and Evaluate
// reads that state together with both ports' current weights.
type coupledPair struct {
	name  string
	ports [2]coupledPort
	held  [2][]*Flow
	state float64
	lastT float64
}

type coupledPort struct {
	c *coupledPair
	i int
}

func newCoupledPair(name string) *coupledPair {
	c := &coupledPair{name: name}
	for i := range c.ports {
		c.ports[i] = coupledPort{c: c, i: i}
	}
	return c
}

func (c *coupledPair) port(i int) Resource { return &c.ports[i] }

// occupancy weighs every held flow by its weight and access size, so a
// list whose contents changed under the device reads differently.
func (c *coupledPair) occupancy() float64 {
	occ := 0.0
	for i, l := range c.held {
		for _, f := range l {
			occ += f.Weight * float64(1+i) * float64(1+f.Class.AccessSize%7)
		}
	}
	return occ
}

func (c *coupledPair) advance(now float64) {
	if now <= c.lastT {
		return
	}
	dt := now - c.lastT
	c.lastT = now
	occ := c.occupancy()
	c.state += (occ/(4+occ) - c.state) * (1 - math.Exp(-dt/0.05))
}

func (p *coupledPort) Name() string { return fmt.Sprintf("%s.%d", p.c.name, p.i) }

func (p *coupledPort) SetFlows(now float64, flows []*Flow) {
	p.c.advance(now)
	p.c.held[p.i] = flows
}

func (p *coupledPort) Evaluate() (float64, float64) {
	capacity := 2000 * (1 - 0.6*p.c.state) / (1 + 0.05*p.c.occupancy())
	return capacity, 300 + 100*float64(p.i)
}

// roundRecord is everything one rate round leaves behind, as bits.
type roundRecord struct {
	flows []flowBits
	state []uint64 // each coupled pair's integrated state
}

type flowBits struct {
	proc                 int
	rate, weight, device uint64
}

// rateScenario is a seeded random workload for the rate round: each
// process alternates idle gaps with transfers over random paths drawn
// with replacement from fixed resources and two coupled pairs, so
// paths repeat resources and resources drop out of rounds and rejoin.
type rateScenario struct {
	procs [][]Stage
	pairs []*coupledPair
}

func newRateScenario(seed int64) rateScenario {
	rng := rand.New(rand.NewSource(seed))
	pairs := []*coupledPair{newCoupledPair("a"), newCoupledPair("b")}
	pool := []Resource{
		NewFixedResource("link0", 500+rng.Float64()*2000),
		NewFixedResource("link1", 500+rng.Float64()*2000),
		pairs[0].port(0), pairs[0].port(1), pairs[1].port(0), pairs[1].port(1),
	}
	sc := rateScenario{pairs: pairs}
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		var stages []Stage
		for s := 1 + rng.Intn(10); s > 0; s-- {
			if rng.Float64() < 0.35 {
				stages = append(stages, &Compute{Seconds: rng.Float64() * 0.5, Tag: "idle"})
				continue
			}
			path := make([]Resource, 1+rng.Intn(3))
			for j := range path {
				path[j] = pool[rng.Intn(len(pool))]
			}
			b := 10 + rng.Float64()*500
			tr := &Transfer{
				Bytes: b,
				Path:  path,
				Class: FlowClass{Kind: OpKind(rng.Intn(2)), Remote: rng.Intn(2) == 0, AccessSize: rng.Int63n(1 << 16)},
				Tag:   []string{"io", "rd", "wr"}[rng.Intn(3)],
			}
			if rng.Float64() < 0.6 {
				tr.OpBytes = b / float64(1+rng.Intn(16))
				tr.PerOpSeconds = rng.Float64() * 0.02
				tr.Charges = []Charge{{Seconds: rng.Float64() * 0.01, Tag: "sw"}}
			}
			stages = append(stages, tr)
		}
		sc.procs = append(sc.procs, stages)
	}
	return sc
}

// scenarioCoverage counts what a run exercised that the slots have to
// get right.
type scenarioCoverage struct {
	idle   int // rounds with no flow at all
	rejoin int // slots back in a round after missing the previous one
	dup    int // flows whose path repeats a resource
}

// runRateScenario runs the scenario for seed on a fresh kernel whose
// rounds are computed by the slot-based assignRates (oracle false) or
// by mapRound (oracle true), recording every round.
func runRateScenario(t *testing.T, seed int64, oracle bool) (*Kernel, []roundRecord, scenarioCoverage) {
	t.Helper()
	sc := newRateScenario(seed)
	k := New()
	for i, stages := range sc.procs {
		k.Spawn(fmt.Sprintf("p%d", i), Sequence(stages...))
	}
	assign := k.assignRates
	if oracle {
		assign = (&mapRound{k: k}).assign
	}
	var (
		rounds     []roundRecord
		cov        scenarioCoverage
		seen, prev []bool // per slot: in some earlier round, in the last one
	)
	_, err := k.run(func() {
		assign()
		var rec roundRecord
		cur := make([]bool, len(k.res))
		for _, f := range k.flows {
			rec.flows = append(rec.flows, flowBits{
				proc:   f.proc.id,
				rate:   math.Float64bits(f.rate),
				weight: math.Float64bits(f.Weight),
				device: math.Float64bits(f.device),
			})
			inFlow := make([]bool, len(k.res))
			dup := false
			for _, s := range f.slots {
				dup = dup || inFlow[s]
				inFlow[s], cur[s] = true, true
			}
			if dup {
				cov.dup++
			}
		}
		for _, c := range sc.pairs {
			rec.state = append(rec.state, math.Float64bits(c.state))
		}
		rounds = append(rounds, rec)
		if len(k.flows) == 0 {
			cov.idle++
		}
		seen = append(seen, make([]bool, len(cur)-len(seen))...)
		prev = append(prev, make([]bool, len(cur)-len(prev))...)
		for s, in := range cur {
			if in && seen[s] && !prev[s] {
				cov.rejoin++
			}
			seen[s] = seen[s] || in
		}
		prev = cur
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return k, rounds, cov
}

// TestRateRoundMatchesMapOracle is the differential test for the rate
// round: over random flow sets, the slot-based round must leave every
// flow's rate, weight and device share, and every coupled pair's
// integrated state, bitwise equal to the map-based reference after
// every round, and the runs must end with equal times and accounting.
func TestRateRoundMatchesMapOracle(t *testing.T) {
	var total scenarioCoverage
	for seed := int64(1); seed <= 300; seed++ {
		k, got, cov := runRateScenario(t, seed, false)
		ko, want, _ := runRateScenario(t, seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rounds, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if len(g.flows) != len(w.flows) {
				t.Fatalf("seed %d round %d: %d flows, oracle %d", seed, i, len(g.flows), len(w.flows))
			}
			for j := range g.flows {
				if g.flows[j] != w.flows[j] {
					t.Fatalf("seed %d round %d flow %d: %+v, oracle %+v", seed, i, j, g.flows[j], w.flows[j])
				}
			}
			for j := range g.state {
				if g.state[j] != w.state[j] {
					t.Fatalf("seed %d round %d pair %d: state %x, oracle %x", seed, i, j, g.state[j], w.state[j])
				}
			}
		}
		if k.now != ko.now {
			t.Fatalf("seed %d: end %g, oracle %g", seed, k.now, ko.now)
		}
		for i, p := range k.procs {
			po := ko.procs[i]
			if p.EndTime() != po.EndTime() {
				t.Fatalf("seed %d proc %d: end %g, oracle %g", seed, i, p.EndTime(), po.EndTime())
			}
			if fmt.Sprint(p.acct) != fmt.Sprint(po.acct) {
				t.Fatalf("seed %d proc %d: accounting %v, oracle %v", seed, i, p.acct, po.acct)
			}
		}
		total.idle += cov.idle
		total.rejoin += cov.rejoin
		total.dup += cov.dup
	}
	if total.idle == 0 || total.rejoin == 0 || total.dup == 0 {
		t.Fatalf("scenarios too tame: %+v", total)
	}
	t.Logf("coverage over all seeds: %+v", total)
}

// rateRoundKernel returns a kernel holding 24 writers and 24 readers on
// a coupled port pair, every flow also crossing a shared link, with
// half the flows paying a per-operation software cost.
func rateRoundKernel() *Kernel {
	k := New()
	pair := newCoupledPair("dev")
	link := NewFixedResource("link", 4000)
	for i := 0; i < 48; i++ {
		kind := OpKind(i % 2)
		f := &Flow{
			Class:     FlowClass{Kind: kind, Remote: i%3 == 0, AccessSize: int64(256 << (i % 6))},
			Weight:    1,
			opBytes:   1 << 20,
			remaining: 1 << 30,
			slots:     k.slotsFor(nil, []Resource{pair.port(int(kind)), link}),
		}
		if i%4 < 2 {
			f.opBytes = 4096
			f.perOp = 2e-6
		}
		k.flows = append(k.flows, f)
	}
	return k
}

// TestRateRoundAllocatesNothing pins that a round over an unchanged
// flow set reuses its lists: once both buffers have been built, a
// repeated round allocates nothing.
func TestRateRoundAllocatesNothing(t *testing.T) {
	k := rateRoundKernel()
	for i := 0; i < 2; i++ {
		k.now += 1e-3
		k.assignRates()
	}
	if n := testing.AllocsPerRun(100, func() {
		k.now += 1e-3
		k.assignRates()
	}); n != 0 {
		t.Fatalf("repeated rate round allocates %g times", n)
	}
}

func BenchmarkRateRound(b *testing.B) {
	k := rateRoundKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.now += 1e-3
		k.assignRates()
	}
}
