// Package platform assembles the simulated server: NUMA topology plus
// socket-attached PMEM devices and their DRAM tier, and answers
// path/latency queries for the storage stacks ("rank on socket A
// accessing PMEM on socket B traverses these resources with this setup
// latency").
package platform

import (
	"fmt"

	"pmemsched/internal/numa"
	"pmemsched/internal/pmem"
	"pmemsched/internal/sim"
)

// MemTier names the memory tier an access targets.
type MemTier uint8

const (
	// TierPMEM targets the socket's Optane device — the zero value, so
	// every pre-tier access is untouched.
	TierPMEM MemTier = iota
	// TierDRAM targets the socket's DRAM as an explicit data tier
	// (staging buffers, promoted objects) through its modeled
	// bandwidth/latency curves.
	TierDRAM
)

// Machine is one simulated server node.
type Machine struct {
	Topology *numa.Topology
	// PMEM holds one device per socket, indexed by socket ID.
	PMEM []*pmem.Device
	// DRAM holds each socket's DRAM tier device, indexed by socket ID.
	// Tier-disabled workloads never route flows through it.
	DRAM []*pmem.DRAMDevice
}

// New builds a machine from a NUMA config and a PMEM model, attaching
// one interleaved PMEM device set and one testbed-DDR4 DRAM tier to
// every socket.
func New(cfg numa.Config, model pmem.Model) *Machine {
	return NewTiered(cfg, model, pmem.TestbedDDR4())
}

// NewTiered is New with an explicit DRAM tier model (device-model
// ablations and generation studies vary the tiers independently).
func NewTiered(cfg numa.Config, model pmem.Model, dram pmem.DRAMModel) *Machine {
	t := numa.NewTopology(cfg)
	m := &Machine{Topology: t}
	for i := range t.Sockets {
		m.PMEM = append(m.PMEM, pmem.NewDevice(fmt.Sprintf("pmem%d", i), model))
		m.DRAM = append(m.DRAM, pmem.NewDRAMDevice(fmt.Sprintf("dram%d", i), dram))
	}
	return m
}

// Testbed returns the paper's platform: dual-socket, 28 cores/socket,
// first-generation Optane on both sockets.
func Testbed() *Machine {
	return New(numa.TestbedConfig(), pmem.Gen1Optane())
}

// Device returns the PMEM device attached to the given socket.
func (m *Machine) Device(s numa.SocketID) *pmem.Device {
	if int(s) < 0 || int(s) >= len(m.PMEM) {
		panic(fmt.Sprintf("platform: no PMEM on socket %d", s))
	}
	return m.PMEM[s]
}

// DRAMTier returns the DRAM tier device attached to the given socket.
func (m *Machine) DRAMTier(s numa.SocketID) *pmem.DRAMDevice {
	if int(s) < 0 || int(s) >= len(m.DRAM) {
		panic(fmt.Sprintf("platform: no DRAM tier on socket %d", s))
	}
	return m.DRAM[s]
}

// Access describes one device access issued by a rank.
type Access struct {
	From   numa.SocketID // socket the issuing core is on
	Device numa.SocketID // socket the target device is attached to
	Kind   sim.OpKind
	Bytes  int64 // access size (object or fragment)
	// Tier selects the target memory tier; the zero value is PMEM.
	Tier MemTier
}

// Path returns the resources an access traverses, its flow class, and
// its setup latency in seconds. Reads stream device→DRAM of the issuing
// socket; writes stream DRAM→device. Remote accesses additionally cross
// the UPI interconnect. A TierDRAM access targets the device socket's
// DRAM tier ports and latencies instead of its PMEM; the rest of the
// path (UPI when remote, the issuing socket's memory bus) is identical.
func (m *Machine) Path(a Access) (path []sim.Resource, class sim.FlowClass, latency float64) {
	remote := m.Topology.Remote(a.From, a.Device)
	class = sim.FlowClass{Kind: a.Kind, Remote: remote, AccessSize: a.Bytes}
	switch a.Tier {
	case TierDRAM:
		dev := m.DRAMTier(a.Device)
		switch a.Kind {
		case sim.Read:
			path = append(path, dev.ReadPort())
			latency = dev.Model().ReadLatency(remote)
		case sim.Write:
			path = append(path, dev.WritePort())
			latency = dev.Model().WriteLatency(remote)
		}
	default:
		dev := m.Device(a.Device)
		model := dev.Model()
		switch a.Kind {
		case sim.Read:
			path = append(path, dev.ReadPort())
			latency = model.ReadLatency(remote)
		case sim.Write:
			path = append(path, dev.WritePort())
			latency = model.WriteLatency(remote)
		}
	}
	if remote {
		path = append(path, m.Topology.UPI)
	}
	path = append(path, m.Topology.Socket(a.From).DRAM)
	return path, class, latency
}
