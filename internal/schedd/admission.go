package schedd

// gate is the admission controller: a fixed pool of decision slots.
// A request that cannot take a slot immediately is shed with 429 —
// queueing admitted work is the runner pool's job; queueing unadmitted
// work would just grow latency until clients time out anyway (the
// daemon prefers fast rejection, and the Retry-After header tells
// clients when to come back).
type gate struct {
	slots chan struct{}
}

func newGate(n int) *gate {
	return &gate{slots: make(chan struct{}, n)}
}

// tryAcquire takes a slot if one is free, without blocking.
func (g *gate) tryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *gate) release() { <-g.slots }

func (g *gate) capacity() int { return cap(g.slots) }

// inflight reports the currently held slots (tests assert saturation).
func (g *gate) inflight() int { return len(g.slots) }
