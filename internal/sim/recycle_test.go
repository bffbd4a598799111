package sim

import (
	"fmt"
	"testing"
)

// heldPair is a read port and a write port that check the held-flow
// rule of Resource: when SetFlows replaces a port's list, every flow in
// the list it held must still carry the Class and Weight it had when
// the previous round ended. The test records those after each round.
type heldPair struct {
	ports  [2]heldPort
	held   [2][]*Flow
	snap   [2][]heldState
	broken []string
}

type heldPort struct {
	h *heldPair
	i int
}

type heldState struct {
	class  FlowClass
	weight float64
}

func newHeldPair() *heldPair {
	h := &heldPair{}
	for i := range h.ports {
		h.ports[i] = heldPort{h: h, i: i}
	}
	return h
}

// endRound records what each port holds as the round ends.
func (h *heldPair) endRound() {
	for i, l := range h.held {
		h.snap[i] = h.snap[i][:0]
		for _, f := range l {
			h.snap[i] = append(h.snap[i], heldState{f.Class, f.Weight})
		}
	}
}

func (p *heldPort) Name() string { return fmt.Sprintf("held.%d", p.i) }

func (p *heldPort) SetFlows(now float64, flows []*Flow) {
	h := p.h
	for j, f := range h.held[p.i] {
		if got := (heldState{f.Class, f.Weight}); got != h.snap[p.i][j] {
			h.broken = append(h.broken, fmt.Sprintf("t=%g port %d flow %d: %+v, held as %+v", now, p.i, j, got, h.snap[p.i][j]))
		}
	}
	h.held[p.i] = flows
}

func (p *heldPort) Evaluate() (float64, float64) {
	w := 0.0
	for _, l := range p.h.held {
		for _, f := range l {
			w += f.Weight
		}
	}
	return 1000 / (1 + 0.1*w), 300
}

// TestHeldFlowsKeepClassAndWeight runs ranks whose transfers alternate
// reads and writes back to back, so a rank ends one flow and starts the
// next at the same instant. Recycling the ended flow there would
// rewrite a flow the ports still hold; the kernel must wait until the
// next round's SetFlows calls.
func TestHeldFlowsKeepClassAndWeight(t *testing.T) {
	h := newHeldPair()
	k := New()
	const ranks, transfers = 6, 40
	for r := 0; r < ranks; r++ {
		var stages []Stage
		for i := 0; i < transfers; i++ {
			kind := OpKind(i % 2)
			stages = append(stages, &Transfer{
				// Pairs of ranks move equal volumes, so some flows end
				// together.
				Bytes:        float64(100 + 40*(r/2) + 7*(i%3)),
				OpBytes:      10,
				PerOpSeconds: 0.002 * float64(1+r%3),
				Path:         []Resource{&h.ports[kind]},
				Class:        FlowClass{Kind: kind, Remote: r%2 == 0, AccessSize: 512 << (4 * kind)},
				Tag:          kind.String(),
			})
		}
		k.Spawn(fmt.Sprintf("r%d", r), Sequence(stages...))
	}
	seen := map[*Flow]bool{}
	_, err := k.run(func() {
		k.assignRates()
		h.endRound()
		for _, f := range k.flows {
			seen[f] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.broken) > 0 {
		t.Fatalf("%d held flows rewritten before SetFlows, first: %s", len(h.broken), h.broken[0])
	}
	// The run must actually recycle: far fewer flows than transfers.
	if len(seen) >= ranks*transfers/2 {
		t.Fatalf("%d distinct flows for %d transfers: flows are not recycled", len(seen), ranks*transfers)
	}
}

// ownedProg cycles all four stage kinds from stage structs it owns:
// compute, wait for the previous rank's transfer of this cycle, a
// transfer, and the cycle's barrier.
type ownedProg struct {
	rank, cycles int
	cycle, step  int
	own          *Cond

	compute  Compute
	wait     Wait
	transfer Transfer
	arrive   Arrive
}

func (p *ownedProg) Next(k *Kernel) Stage {
	if p.cycle == p.cycles {
		return nil
	}
	step := p.step
	p.step = (p.step + 1) % 4
	switch step {
	case 0:
		// Later ranks compute less, so they block on their wait.
		p.compute.Seconds = 0.01 / float64(1+p.rank)
		return &p.compute
	case 1:
		p.wait.Target = int64(p.cycle + 1)
		if p.rank == 0 {
			p.wait.Target-- // the last rank published it last cycle
		}
		return &p.wait
	case 2:
		p.own.Publish(k, int64(p.cycle+1))
		return &p.transfer
	default:
		p.cycle++
		return &p.arrive
	}
}

// runOwned runs ranks ownedProgs for the given cycles on a fresh kernel
// whose transfers share a link and a coupled port pair.
func runOwned(ranks, cycles int) error {
	k := New()
	pair := newCoupledPair("dev")
	link := NewFixedResource("link", 1e4)
	b := NewBarrier("cycle", ranks)
	conds := make([]*Cond, ranks)
	for r := range conds {
		conds[r] = k.NewCond("c")
	}
	for r := 0; r < ranks; r++ {
		kind := OpKind(r % 2)
		k.Spawn("r", &ownedProg{
			rank:    r,
			cycles:  cycles,
			own:     conds[r],
			compute: Compute{Tag: "compute"},
			wait:    Wait{C: conds[(r+ranks-1)%ranks], Tag: "wait"},
			transfer: Transfer{
				Bytes: 50, OpBytes: 5, PerOpSeconds: 1e-3,
				Charges: []Charge{{Seconds: 1e-3, Tag: "sw"}},
				Path:    []Resource{pair.port(int(kind)), link},
				Class:   FlowClass{Kind: kind},
				Tag:     "io",
			},
			arrive: Arrive{B: b, Tag: "barrier"},
		})
	}
	_, err := k.Run()
	return err
}

// TestRunAllocatesPerProcess pins that a run allocates for its
// processes, not for their stages: four times the stages per process
// must allocate exactly as often.
func TestRunAllocatesPerProcess(t *testing.T) {
	const ranks, cycles = 8, 25
	var runErr error
	allocs := func(cycles int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := runOwned(ranks, cycles); err != nil {
				runErr = err
			}
		})
	}
	short, long := allocs(cycles), allocs(4*cycles)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if short != long {
		t.Fatalf("a run allocates %g times with %d stages per process and %g times with %d", short, 4*cycles, long, 16*cycles)
	}
}
