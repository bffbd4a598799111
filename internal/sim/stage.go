// Package sim implements a deterministic fluid discrete-event
// simulation kernel.
//
// Processes (simulated MPI ranks, in this repository) are expressed as
// stage iterators: each call to Program.Next returns the next Stage the
// process executes — a fixed-duration CPU phase, a byte transfer
// through one or more shared resources, or a wait on a synchronization
// object. The kernel advances simulated time from event to event;
// whenever the set of active transfers changes it recomputes per-flow
// rates by progressive filling (max-min fairness) across every resource
// on each flow's path.
//
// The kernel is single-threaded and fully deterministic: identical
// inputs produce bit-identical schedules, which the experiment harness
// relies on.
package sim

// Stage is one step in a process's execution. Program.Next returns a
// pointer to one of the concrete types below: *Compute, *Transfer,
// *Wait or *Arrive. The kernel only reads a stage, never writes it.
type Stage interface{ stage() }

// Compute occupies the process's (dedicated) core for a fixed duration.
// It models compute kernels, per-operation software overheads, and
// device setup latencies — anything that consumes wall time without
// moving bytes through a shared resource.
type Compute struct {
	Seconds float64
	Tag     string // accounting bucket, e.g. "compute", "sw", "lat"
}

// Transfer models one streaming I/O phase: a sequence of operations,
// each paying PerOpSeconds of software/setup cost on the issuing core
// and then moving OpBytes through every resource in Path. The fluid
// kernel treats the phase as a single flow whose payload rate is
// throttled by both the device share and the per-operation software
// cost:
//
//	rate = OpBytes / (PerOpSeconds + OpBytes/deviceShare)
//
// and whose duty cycle on the device (Flow.Weight) is the transfer
// fraction of that cycle. A Transfer with PerOpSeconds == 0 is a pure
// stream at the device share.
//
// On completion the kernel attributes the phase's elapsed time: each
// Charge's seconds go to its tag (software cost, interleaved compute)
// and the remainder — the actual device time — to Tag.
type Transfer struct {
	Bytes        float64 // total payload of the phase
	OpBytes      float64 // payload per operation; 0 means Bytes (one op)
	PerOpSeconds float64 // software/setup seconds per operation
	Charges      []Charge
	Path         []Resource
	Class        FlowClass
	Tag          string
}

// Charge attributes a fixed, analytically known portion of a transfer
// phase's elapsed time to an accounting tag.
type Charge struct {
	Seconds float64
	Tag     string
}

// Wait blocks the process until the condition's published value
// reaches Target (see Cond).
type Wait struct {
	C      *Cond
	Target int64
	Tag    string
}

// Arrive blocks the process at a barrier until all participants have
// arrived, then releases everyone.
type Arrive struct {
	B   *Barrier
	Tag string
}

func (*Compute) stage()  {}
func (*Transfer) stage() {}
func (*Wait) stage()     {}
func (*Arrive) stage()   {}

// OpKind classifies a transfer as a device read or write.
type OpKind uint8

const (
	Read OpKind = iota
	Write
)

func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// FlowClass carries the attributes that resource capacity models
// inspect when computing aggregate bandwidth for the current flow mix.
type FlowClass struct {
	Kind       OpKind
	Remote     bool  // true when the issuing core is on the other socket
	AccessSize int64 // bytes per device access (object or stripe chunk)
}

// Program produces the stage sequence for one process. Next is called
// when the previous stage completes (and once at start); returning nil
// terminates the process. Next runs at the current simulated time and
// may perform side effects such as publishing to a Cond.
//
// Next returns a pointer to a stage the program owns. The kernel keeps
// that pointer and reads the stage until it completes, so the program
// may rewrite a stage it returned only on its next Next call. A program
// can therefore keep one struct per stage kind and refill it on every
// call, and a run allocates nothing per stage. Several processes may
// share a stage that none of them rewrites.
type Program interface {
	Next(k *Kernel) Stage
}

// ProgramFunc adapts a closure to the Program interface; the closure
// typically captures a small state machine (iteration counter, object
// index).
type ProgramFunc func(k *Kernel) Stage

// Next implements Program.
func (f ProgramFunc) Next(k *Kernel) Stage { return f(k) }

// Sequence returns a Program that yields the given stages in order and
// then terminates. Nil entries are skipped.
func Sequence(stages ...Stage) Program {
	i := 0
	return ProgramFunc(func(*Kernel) Stage {
		for i < len(stages) {
			s := stages[i]
			i++
			if s != nil {
				return s
			}
		}
		return nil
	})
}

// Chain concatenates programs: when one returns nil the next takes
// over. It terminates after the last program does.
func Chain(programs ...Program) Program {
	i := 0
	return ProgramFunc(func(k *Kernel) Stage {
		for i < len(programs) {
			if s := programs[i].Next(k); s != nil {
				return s
			}
			i++
		}
		return nil
	})
}
