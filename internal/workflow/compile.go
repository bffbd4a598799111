package workflow

import (
	"fmt"

	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/sim"
	"pmemsched/internal/stack"
)

// Accounting tags used by compiled programs. The I/O index and the
// experiment reports aggregate process time by these.
const (
	TagCompute = "compute" // application compute phases
	TagSW      = "sw"      // stack software cost + device setup latency
	TagIO      = "io"      // device transfer time
	TagWait    = "wait"    // blocked on data availability (version cond)
	TagGate    = "gate"    // blocked on serial-mode gate
	TagBarrier = "barrier" // blocked on the component's iteration barrier
)

// Placement locates one component's ranks and the PMEM device holding
// the I/O channel.
type Placement struct {
	RankSocket   numa.SocketID
	DeviceSocket numa.SocketID
}

// Remote reports whether the component's device accesses cross sockets.
func (p Placement) Remote() bool { return p.RankSocket != p.DeviceSocket }

// CompileConfig carries everything needed to compile one component's
// rank programs.
type CompileConfig struct {
	Component  ComponentSpec
	Ranks      int
	Iterations int
	Placement  Placement
	Machine    *platform.Machine
	Stack      stack.Model
	// Channel receives metadata operations (Append/Commit for writers,
	// Fetch for readers), one per object population per iteration. Nil
	// disables metadata bookkeeping (used by standalone profiling runs).
	Channel stack.Channel
	// StartConds and CommitConds form the per-rank version channel of
	// the 1:1 exchange. The writer publishes v on StartConds[rank] when
	// it begins streaming version v (so a parallel-mode reader can
	// consume the stream while it is being produced — the overlapping
	// I/O the paper's Parallel mode is defined by, §II-A) and v on
	// CommitConds[rank] when the version is fully persisted (the
	// reader's completion gate: it cannot finish consuming v earlier).
	// Nil for standalone runs (readers then proceed ungated).
	StartConds  []*sim.Cond
	CommitConds []*sim.Cond
	// Gate, when non-nil, is published to 1 after the writers' final
	// barrier; readers wait on it before their first iteration. This is
	// how the executor realizes Serial mode.
	Gate *sim.Cond
	// Barrier is the component's per-iteration barrier (one per
	// component, shared by its ranks).
	Barrier *sim.Barrier
	// Errs collects metadata errors discovered during execution; a
	// program that hits one terminates early after recording it.
	Errs *ErrorSink
	// Tier selects the workflow's memory tiering policy. The zero value
	// (pmem-only) compiles exactly the pre-tier programs.
	Tier TierSpec
	// StagedConds is write-stage-drain's per-rank staging channel: the
	// writer publishes v on StagedConds[rank] when version v is fully
	// staged in local DRAM; the rank's drain process waits on it before
	// copying the version to PMEM. Nil outside write-stage-drain.
	StagedConds []*sim.Cond
	// DrainBarrier synchronizes the drain processes after their final
	// version, so the serial-mode gate opens only once every rank's data
	// is persisted. Nil outside write-stage-drain.
	DrainBarrier *sim.Barrier
}

// ErrorSink accumulates the first few errors raised by compiled
// programs during a run.
type ErrorSink struct {
	errs []error
}

// Record stores err (bounded to avoid unbounded growth on cascading
// failures).
func (s *ErrorSink) Record(err error) {
	if s == nil || err == nil {
		return
	}
	if len(s.errs) < 16 {
		s.errs = append(s.errs, err)
	}
}

// Err returns the first recorded error, or nil.
func (s *ErrorSink) Err() error {
	if s == nil || len(s.errs) == 0 {
		return nil
	}
	return s.errs[0]
}

// All returns every recorded error.
func (s *ErrorSink) All() []error {
	if s == nil {
		return nil
	}
	return append([]error(nil), s.errs...)
}

// ioPhase is one object population's per-iteration streaming phase,
// modeled as a single fluid flow: the population's operations, every
// one paying the stack software cost plus device setup latency (and
// any interleaved per-object compute) before its device access. The
// phase's kernel stage is built once and returned on every iteration.
type ioPhase struct {
	group int
	sub   int // sub-phase index when a population splits across tiers
	tr    *sim.Transfer
}

// buildPhase prepares one population's streaming phase against the
// given memory tier on the component's device socket.
func buildPhase(cfg CompileConfig, kind sim.OpKind, pop ObjectSpec, group, sub int, tier platform.MemTier) ioPhase {
	path, class, latency := cfg.Machine.Path(platform.Access{
		From:   cfg.Placement.RankSocket,
		Device: cfg.Placement.DeviceSocket,
		Kind:   kind,
		Bytes:  cfg.Stack.AccessSize(pop.Bytes),
		Tier:   tier,
	})
	var sw float64
	if kind == sim.Write {
		sw = cfg.Stack.WriteCost(pop.Bytes) + latency
	} else {
		sw = cfg.Stack.ReadCost(pop.Bytes) + latency
		if class.Remote && tier == platform.TierPMEM {
			// Remote read latency grows with the component's own
			// effective read concurrency (UPI/iMC queueing). The
			// estimate uses the component's intrinsic duty cycle:
			// the fraction of each operation cycle actually spent
			// on the device at the uncontended per-flow rate. DRAM
			// reads skip this: the queueing term models the Optane
			// controller, not the interconnect.
			m := cfg.Machine.Device(cfg.Placement.DeviceSocket).Model()
			t := float64(pop.Bytes) / m.ReadPerFlowMax
			cycle := t + cfg.Stack.ReadCost(pop.Bytes) + cfg.Component.ComputePerObject
			if cycle > 0 {
				wEff := float64(cfg.Ranks) * t / cycle
				sw += m.RemoteReadLatQueue * wEff
			}
		}
	}
	// sw is the stack software cost plus setup latency per object, cp
	// the interleaved compute per object.
	cp := cfg.Component.ComputePerObject
	n := float64(pop.CountPerRank)
	charges := make([]sim.Charge, 0, 2)
	if sw > 0 {
		charges = append(charges, sim.Charge{Seconds: n * sw, Tag: TagSW})
	}
	if cp > 0 {
		charges = append(charges, sim.Charge{Seconds: n * cp, Tag: TagCompute})
	}
	return ioPhase{
		group: group,
		sub:   sub,
		tr: &sim.Transfer{
			Bytes:        float64(pop.Bytes) * n,
			OpBytes:      float64(pop.Bytes),
			PerOpSeconds: sw + cp,
			Charges:      charges,
			Path:         path,
			Class:        class,
			Tag:          TagIO,
		},
	}
}

// planPhases prepares the per-iteration I/O phases for the component
// under the given role and placement, with populations split between
// the DRAM tier and PMEM under a per-rank DRAM budget, in declaration
// order (the same walk as TierSplit). A zero budget compiles the
// paper's all-PMEM baseline. A population that splits yields a DRAM
// sub-phase (sub 0) and a PMEM spill sub-phase (sub 1); unsplit
// populations keep sub 0, so their channel object IDs match the
// baseline's.
func planPhases(cfg CompileConfig, kind sim.OpKind, budget int64) []ioPhase {
	var out []ioPhase
	for g, pop := range cfg.Component.Objects {
		if budget <= 0 || pop.Bytes <= 0 {
			out = append(out, buildPhase(cfg, kind, pop, g, 0, platform.TierPMEM))
			continue
		}
		fit := budget / pop.Bytes
		switch {
		case fit >= int64(pop.CountPerRank):
			out = append(out, buildPhase(cfg, kind, pop, g, 0, platform.TierDRAM))
			budget -= pop.Bytes * int64(pop.CountPerRank)
		case fit > 0:
			dram := ObjectSpec{Bytes: pop.Bytes, CountPerRank: int(fit)}
			spill := ObjectSpec{Bytes: pop.Bytes, CountPerRank: pop.CountPerRank - int(fit)}
			out = append(out, buildPhase(cfg, kind, dram, g, 0, platform.TierDRAM))
			out = append(out, buildPhase(cfg, kind, spill, g, 1, platform.TierPMEM))
			budget = 0
		default:
			out = append(out, buildPhase(cfg, kind, pop, g, 0, platform.TierPMEM))
		}
	}
	return out
}

// planStagePhases prepares write-stage-drain's writer phases: every
// population lands in the writer socket's own DRAM (always local —
// staging never crosses the interconnect), to be drained to PMEM by the
// rank's background drain process.
func planStagePhases(cfg CompileConfig) []ioPhase {
	staged := cfg
	staged.Placement = Placement{RankSocket: cfg.Placement.RankSocket, DeviceSocket: cfg.Placement.RankSocket}
	var out []ioPhase
	for g, pop := range cfg.Component.Objects {
		out = append(out, buildPhase(staged, sim.Write, pop, g, 0, platform.TierDRAM))
	}
	return out
}

// phasePlan is a component's per-iteration phase schedule across the
// run: cold phases before switchIter, hot phases from it on. Pre-tier
// programs compile to a cold-only plan identical to the old phase list.
type phasePlan struct {
	cold []ioPhase
	hot  []ioPhase
	// switchIter is the first iteration executing hot phases
	// (Iterations+1 when the plan never switches).
	switchIter int
	// migrateBytes is hot-promote's one-time per-rank bulk copy out of
	// PMEM, paid by the writer when iteration switchIter begins. Zero
	// for every other policy and for readers.
	migrateBytes float64
}

// phases returns the phase list governing the given iteration.
func (pl phasePlan) phases(iter int) []ioPhase {
	if iter >= pl.switchIter {
		return pl.hot
	}
	return pl.cold
}

// planTiered builds the component's phase plan under its tier policy.
func planTiered(cfg CompileConfig, kind sim.OpKind) phasePlan {
	pl := phasePlan{switchIter: cfg.Iterations + 1}
	e := cfg.Tier.withDefaults()
	switch {
	case e.Policy == TierDRAMFirstSpill:
		pl.cold = planPhases(cfg, kind, e.DRAMBytesPerRank)
	case e.Policy == TierWriteStageDrain && kind == sim.Write:
		pl.cold = planStagePhases(cfg)
	case e.Policy == TierHotPromote && e.PromoteAfterIterations < cfg.Iterations:
		pl.cold = planPhases(cfg, kind, 0)
		pl.hot = planPhases(cfg, kind, e.DRAMBytesPerRank)
		pl.switchIter = e.PromoteAfterIterations
		if kind == sim.Write {
			var perRank int64
			for _, pop := range cfg.Component.Objects {
				perRank += pop.Bytes * int64(pop.CountPerRank)
			}
			pl.migrateBytes = float64(e.tierResidentPerRank(perRank))
		}
	default:
		// The baseline: pmem-only, write-stage-drain's readers (they
		// consume the drained copy from PMEM, gated by the drain's version
		// conds), and hot-promote when promotion would never fire.
		pl.cold = planPhases(cfg, kind, 0)
	}
	return pl
}

// jitteredCompute returns the component's per-iteration compute time
// scaled by the deterministic load-imbalance factor for (rank, iter).
func jitteredCompute(c ComponentSpec, rank, iter int) float64 {
	if c.ComputeJitter == 0 {
		return c.ComputePerIteration
	}
	u := hash01(uint64(rank)<<32 | uint64(uint32(iter)))
	return c.ComputePerIteration * (1 + c.ComputeJitter*(2*u-1))
}

// hash01 maps a 64-bit key to [0,1) via the splitmix64 finalizer.
func hash01(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// program phases (shared by writer and reader state machines).
const (
	phIterCompute = iota
	phIO
	phPostIO
	phBarrier
	phPublish
	phGateWait
	phVersionWait
	phCommitWait
	phStageWait // write-stage-drain: double-buffer backpressure
	phMigrate   // hot-promote: one-time bulk promotion copy
)

// WriterProgram compiles the program for one writer (simulation) rank:
// each iteration computes, streams its snapshot to the channel, commits
// the version, synchronizes with the other writer ranks, and publishes
// the version to its paired reader. Under write-stage-drain the rank
// stages into local DRAM instead and hands commit/publish duties to its
// drain process (DrainProgram).
func WriterProgram(cfg CompileConfig, rank int) sim.Program {
	return &writerProg{
		cfg:    cfg,
		rank:   rank,
		plan:   planTiered(cfg, sim.Write),
		staged: cfg.Tier.Enabled() && cfg.Tier.Policy == TierWriteStageDrain,
		phase:  phIterCompute,
	}
}

type writerProg struct {
	cfg    CompileConfig
	rank   int
	plan   phasePlan
	staged bool // write-stage-drain: drain process owns commit/publish

	// The stages this program hands the kernel, filled on each use.
	compute sim.Compute
	wait    sim.Wait
	arrive  sim.Arrive

	iter     int // completed iterations
	pi       int // phase index within iteration
	phase    int
	migrated bool // hot-promote: one-time copy already paid
	fail     bool
}

func (p *writerProg) Next(k *sim.Kernel) sim.Stage {
	if p.fail {
		return nil
	}
	cfg := &p.cfg
	for {
		switch p.phase {
		case phIterCompute:
			if p.iter >= cfg.Iterations {
				return nil
			}
			switch {
			case p.staged:
				p.phase = phStageWait
			case p.plan.migrateBytes > 0 && p.iter == p.plan.switchIter && !p.migrated:
				p.phase = phMigrate
			default:
				p.phase = phIO
			}
			p.pi = 0
			if cfg.Component.ComputePerIteration > 0 {
				p.compute = sim.Compute{Seconds: jitteredCompute(cfg.Component, p.rank, p.iter), Tag: TagCompute}
				return &p.compute
			}
		case phStageWait:
			// Double-buffer backpressure: staging version iter+1 reuses
			// the DRAM buffer of version iter-1, so that version's drain
			// must have committed first. The first two versions have free
			// buffers and pass instantly.
			p.phase = phIO
			if cfg.CommitConds != nil && p.iter >= 2 {
				p.wait = sim.Wait{C: cfg.CommitConds[p.rank], Target: int64(p.iter - 1), Tag: TagWait}
				return &p.wait
			}
		case phMigrate:
			// Hot-promote's one-time migration: bulk-read this rank's
			// promoted objects out of PMEM (the DRAM fill rides along at
			// an order of magnitude more bandwidth). One large stream,
			// charged as I/O.
			p.migrated = true
			p.phase = phIO
			mig := p.plan.migrateBytes
			path, class, _ := cfg.Machine.Path(platform.Access{
				From:   cfg.Placement.RankSocket,
				Device: cfg.Placement.DeviceSocket,
				Kind:   sim.Read,
				Bytes:  int64(mig),
			})
			return &sim.Transfer{Bytes: mig, OpBytes: mig, Path: path, Class: class, Tag: TagIO}
		case phIO:
			phases := p.plan.phases(p.iter)
			if p.pi == 0 && cfg.StartConds != nil && !p.staged {
				// Streaming of this version begins: a parallel-mode
				// reader may start consuming it now. (Staged writers
				// leave this to the drain process — the reader's copy
				// comes from PMEM, which has nothing yet.)
				cfg.StartConds[p.rank].Publish(k, int64(p.iter+1))
			}
			if p.pi >= len(phases) {
				if p.staged {
					// Version fully staged in DRAM: wake the drain
					// process; it commits once the copy is persisted.
					if cfg.StagedConds != nil {
						cfg.StagedConds[p.rank].Publish(k, int64(p.iter+1))
					}
					p.phase = phBarrier
					continue
				}
				// Snapshot persisted: commit this rank's version and
				// release the paired reader's completion gate.
				if cfg.Channel != nil {
					if err := cfg.Channel.Commit(p.rank, int64(p.iter+1)); err != nil {
						cfg.Errs.Record(err)
						p.fail = true
						return nil
					}
				}
				if cfg.CommitConds != nil {
					cfg.CommitConds[p.rank].Publish(k, int64(p.iter+1))
				}
				p.phase = phBarrier
				continue
			}
			p.phase = phPostIO
			return phases[p.pi].tr
		case phPostIO:
			ph := &p.plan.phases(p.iter)[p.pi]
			// The phase's transfer completed: record it in the channel
			// metadata (one entry per population sub-phase per version).
			if cfg.Channel != nil {
				if err := cfg.Channel.Append(p.rank, int64(p.iter+1),
					stack.ObjectID{Group: ph.group, Index: ph.sub}, int64(ph.tr.Bytes)); err != nil {
					cfg.Errs.Record(err)
					p.fail = true
					return nil
				}
			}
			p.pi++
			p.phase = phIO
		case phBarrier:
			p.phase = phPublish
			if cfg.Barrier != nil {
				p.arrive = sim.Arrive{B: cfg.Barrier, Tag: TagBarrier}
				return &p.arrive
			}
		case phPublish:
			// Barrier passed: every writer finished iteration iter+1.
			p.iter++
			if p.iter >= cfg.Iterations && cfg.Gate != nil && !p.staged {
				// Staged writers leave the gate to their drain processes:
				// "writers done" means the data is actually in PMEM.
				cfg.Gate.Publish(k, 1)
			}
			p.phase = phIterCompute
		default:
			panic(fmt.Sprintf("workflow: writer rank %d in impossible phase %d", p.rank, p.phase))
		}
	}
}

// ReaderProgram compiles the program for one reader (analytics) rank:
// each iteration waits for its paired writer's version (and, in serial
// mode, for the whole simulation to finish), streams the snapshot back
// in, runs its compute, and synchronizes with the other reader ranks.
func ReaderProgram(cfg CompileConfig, rank int) sim.Program {
	return &readerProg{cfg: cfg, rank: rank, plan: planTiered(cfg, sim.Read), phase: phGateWait}
}

type readerProg struct {
	cfg  CompileConfig
	rank int
	plan phasePlan

	// The stages this program hands the kernel, filled on each use.
	compute sim.Compute
	wait    sim.Wait
	arrive  sim.Arrive

	iter  int
	pi    int
	phase int
	fail  bool
}

func (p *readerProg) Next(k *sim.Kernel) sim.Stage {
	if p.fail {
		return nil
	}
	cfg := &p.cfg
	for {
		switch p.phase {
		case phGateWait:
			p.phase = phVersionWait
			if cfg.Gate != nil {
				p.wait = sim.Wait{C: cfg.Gate, Target: 1, Tag: TagGate}
				return &p.wait
			}
		case phVersionWait:
			if p.iter >= cfg.Iterations {
				return nil
			}
			p.phase = phIO
			p.pi = 0
			if cfg.StartConds != nil {
				p.wait = sim.Wait{C: cfg.StartConds[p.rank], Target: int64(p.iter + 1), Tag: TagWait}
				return &p.wait
			}
		case phIO:
			if p.pi >= len(p.plan.phases(p.iter)) {
				// Completion gate: the version cannot be fully consumed
				// before the writer has fully produced it (the fluid
				// overlap above may otherwise run marginally ahead).
				p.phase = phCommitWait
				if cfg.CommitConds != nil {
					p.wait = sim.Wait{C: cfg.CommitConds[p.rank], Target: int64(p.iter + 1), Tag: TagWait}
					return &p.wait
				}
				continue
			}
			p.phase = phPostIO
			return p.plan.phases(p.iter)[p.pi].tr
		case phPostIO:
			// The fetch is validated against the channel metadata in
			// phCommitWait, once the writer has committed; here we only
			// advance.
			p.pi++
			p.phase = phIO
		case phCommitWait:
			// Writer committed: validate every population of this
			// version against the channel metadata (the index lookups'
			// cost is part of the software cost already charged; this is
			// the functional integrity check).
			if cfg.Channel != nil {
				for _, ph := range p.plan.phases(p.iter) {
					got, err := cfg.Channel.Fetch(p.rank, int64(p.iter+1),
						stack.ObjectID{Group: ph.group, Index: ph.sub})
					if err == nil && got != int64(ph.tr.Bytes) {
						err = fmt.Errorf("workflow: reader rank %d: population %d@%d has %d bytes, want %d",
							p.rank, ph.group, p.iter+1, got, int64(ph.tr.Bytes))
					}
					if err != nil {
						cfg.Errs.Record(err)
						p.fail = true
						return nil
					}
				}
			}
			p.phase = phIterCompute
		case phIterCompute:
			p.phase = phBarrier
			if cfg.Component.ComputePerIteration > 0 {
				p.compute = sim.Compute{Seconds: jitteredCompute(cfg.Component, p.rank, p.iter), Tag: TagCompute}
				return &p.compute
			}
		case phBarrier:
			p.iter++
			p.phase = phVersionWait
			if cfg.Barrier != nil {
				p.arrive = sim.Arrive{B: cfg.Barrier, Tag: TagBarrier}
				return &p.arrive
			}
		default:
			panic(fmt.Sprintf("workflow: reader rank %d in impossible phase %d", p.rank, p.phase))
		}
	}
}

// DrainProgram compiles the background drain process paired with one
// write-stage-drain writer rank: for each staged version it publishes
// the version's start (a parallel-mode reader may consume the drain
// stream as it lands in PMEM), copies the version out of DRAM into the
// channel's PMEM as one bulk stream paced by the spec's drain
// bandwidth, then commits. After its final version it synchronizes with
// the other drains and opens the serial-mode gate — "writers done"
// means the data is actually persistent.
func DrainProgram(cfg CompileConfig, rank int) sim.Program {
	var vol float64
	for _, pop := range cfg.Component.Objects {
		vol += float64(pop.Bytes) * float64(pop.CountPerRank)
	}
	e := cfg.Tier.withDefaults()
	// One large stream per version: the path is the channel's ordinary
	// PMEM write path (crossing the interconnect when the channel is
	// remote to the writer), plus a private pacing resource capping this
	// rank's drain at the modeled background-copy bandwidth. Setup
	// latency is a single op per version and is dropped, which keeps the
	// drain time an exact vol/bandwidth when the pacer is the
	// bottleneck.
	path, class, _ := cfg.Machine.Path(platform.Access{
		From:   cfg.Placement.RankSocket,
		Device: cfg.Placement.DeviceSocket,
		Kind:   sim.Write,
		Bytes:  int64(vol),
	})
	path = append(path, sim.NewFixedResource(fmt.Sprintf("drain.%d", rank), e.DrainBytesPerSecond))
	return &drainProg{
		cfg:      cfg,
		rank:     rank,
		transfer: sim.Transfer{Bytes: vol, OpBytes: vol, Path: path, Class: class, Tag: TagIO},
	}
}

// drain program phases.
const (
	dphStagedWait = iota
	dphDrain
	dphCommit
	dphBarrier
	dphGate
)

type drainProg struct {
	cfg  CompileConfig
	rank int

	// The stages this program hands the kernel; wait and arrive are
	// filled on each use.
	transfer sim.Transfer
	wait     sim.Wait
	arrive   sim.Arrive

	v     int64 // version currently being drained (1-based)
	phase int
	fail  bool
}

func (p *drainProg) Next(k *sim.Kernel) sim.Stage {
	if p.fail {
		return nil
	}
	cfg := &p.cfg
	for {
		switch p.phase {
		case dphStagedWait:
			if p.v >= int64(cfg.Iterations) {
				p.phase = dphBarrier
				continue
			}
			p.v++
			p.phase = dphDrain
			if cfg.StagedConds != nil {
				p.wait = sim.Wait{C: cfg.StagedConds[p.rank], Target: p.v, Tag: TagWait}
				return &p.wait
			}
		case dphDrain:
			// The version is staged: its PMEM copy starts streaming now,
			// so a parallel-mode reader may begin consuming it.
			if cfg.StartConds != nil {
				cfg.StartConds[p.rank].Publish(k, p.v)
			}
			p.phase = dphCommit
			return &p.transfer
		case dphCommit:
			if cfg.Channel != nil {
				if err := cfg.Channel.Commit(p.rank, p.v); err != nil {
					cfg.Errs.Record(err)
					p.fail = true
					return nil
				}
			}
			if cfg.CommitConds != nil {
				cfg.CommitConds[p.rank].Publish(k, p.v)
			}
			p.phase = dphStagedWait
		case dphBarrier:
			p.phase = dphGate
			if cfg.DrainBarrier != nil {
				p.arrive = sim.Arrive{B: cfg.DrainBarrier, Tag: TagBarrier}
				return &p.arrive
			}
		case dphGate:
			// Publish is monotonic, so every drain publishing 1 is safe.
			if cfg.Gate != nil {
				cfg.Gate.Publish(k, 1)
			}
			return nil
		default:
			panic(fmt.Sprintf("workflow: drain rank %d in impossible phase %d", p.rank, p.phase))
		}
	}
}
