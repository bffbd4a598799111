// Package core implements the paper's contribution: PMEM-aware
// scheduling of in-situ workflows. It provides
//
//   - the scheduling configuration space (Table I): Serial/Parallel
//     execution × local-write/local-read placement;
//   - an executor that deploys a workflow onto the simulated platform
//     under a configuration and measures end-to-end runtime with
//     writer/reader splits;
//   - a workflow classifier computing the paper's characterization
//     features (I/O indexes, object-size class, concurrency level,
//     bandwidth-boundedness);
//   - the Table II rule-based recommender mapping features to a
//     configuration;
//   - an oracle (exhaustive search) and an auto-scheduler
//     (profile → classify → recommend → execute), realizing the paper's
//     stated future work.
package core

import "fmt"

// Mode is the execution-mode scheduling dimension (§II-A): whether the
// two components' PMEM accesses may overlap in time.
type Mode uint8

const (
	// Serial schedules analytics to begin only after the simulation has
	// completed all iterations; PMEM accesses never overlap.
	Serial Mode = iota
	// Parallel co-schedules both components; analytics consumes version
	// v as soon as the simulation commits it.
	Parallel
)

func (m Mode) String() string {
	if m == Serial {
		return "serial"
	}
	return "parallel"
}

// Placement is the locality scheduling dimension (§II-A): which
// component the streaming-I/O channel's PMEM is local to.
type Placement uint8

const (
	// LocW places the channel local to the simulation: local writes,
	// remote reads.
	LocW Placement = iota
	// LocR places the channel local to the analytics: remote writes,
	// local reads.
	LocR
)

func (p Placement) String() string {
	if p == LocW {
		return "local-write-remote-read"
	}
	return "remote-write-local-read"
}

// Config is one cell of the paper's scheduling decision space.
type Config struct {
	Mode      Mode
	Placement Placement
}

// The four configurations of Table I.
var (
	SLocW = Config{Serial, LocW}
	SLocR = Config{Serial, LocR}
	PLocW = Config{Parallel, LocW}
	PLocR = Config{Parallel, LocR}
)

// Configs lists all four configurations in the paper's Table I order.
var Configs = []Config{SLocW, SLocR, PLocW, PLocR}

// Label returns the paper's configuration label, e.g. "S-LocW".
func (c Config) Label() string {
	mode, place := 0, 0
	if c.Mode == Parallel {
		mode = 1
	}
	if c.Placement == LocR {
		place = 1
	}
	return configLabels[mode][place]
}

// configLabels holds the labels by [parallel][local-read]. Returning a
// constant keeps Label allocation-free; the cluster engine stores one
// per placed job for the life of the daemon.
var configLabels = [2][2]string{{"S-LocW", "S-LocR"}, {"P-LocW", "P-LocR"}}

func (c Config) String() string { return c.Label() }

// ParseConfig converts a label like "S-LocW" or "p-locr" back into a
// Config.
func ParseConfig(label string) (Config, error) {
	for _, c := range Configs {
		if equalFold(label, c.Label()) {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("core: unknown configuration %q (want one of S-LocW, S-LocR, P-LocW, P-LocR)", label)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
