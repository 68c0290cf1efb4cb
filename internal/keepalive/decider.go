package keepalive

import (
	"time"

	"slscost/internal/stats"
)

// This file is the per-function keep-alive decision layer: the Decider
// interface the fleet consults once per idle transition in the
// adaptive modes, and the seed derivation that gives every (host,
// function) pair its own decorrelated random stream. The two
// implementations live next to it: Adaptive (adaptive.go) learns a
// windowed idle-time histogram, and Bandit (bandit.go) runs
// epsilon-greedy over the static catalog. Static mode has no decider:
// the fleet draws the platform policy's windows from the host's shared
// stream directly.
//
// The determinism contract every implementation must honor: a
// decider's decisions are a pure function of its observation stream
// and its own construction-time seed. Window takes no host stream, so
// no decider can reach shared state through it; the differential
// oracle (internal/scenario/diffsim) replays the same decider state
// machines against the fleet's, so any other hidden dependence shows
// up as a report disagreement.

// Mode names a decider family. The fleet, the optimizer grid, and the
// job API all select deciders by Mode.
type Mode string

const (
	// ModeStatic is the Table 2 policy unchanged: every window drawn
	// from the platform's own distribution on the host's shared stream.
	ModeStatic Mode = "static"
	// ModeAdaptive is the windowed-histogram TTL decider (Adaptive).
	ModeAdaptive Mode = "adaptive"
	// ModeBandit is the epsilon-greedy catalog bandit (Bandit).
	ModeBandit Mode = "bandit"
)

// Valid reports whether the mode names a known decider family.
func (m Mode) Valid() bool {
	switch m {
	case ModeStatic, ModeAdaptive, ModeBandit:
		return true
	}
	return false
}

// Decider decides keep-alive windows for one function on one host. The
// fleet consults it at every idle transition and feeds it the idle gaps
// it later observes; both call sequences are in host event order, so a
// decider's state is worker-count independent by construction.
type Decider interface {
	// Name identifies the decider family and its base policy.
	Name() string
	// ObserveIdle records one realized idle gap: the time between a
	// sandbox of this function going idle and the next request for the
	// same pod arriving (whether it hit warm or found the sandbox
	// reclaimed).
	ObserveIdle(gap time.Duration)
	// Window returns the keep-alive window for a sandbox going idle
	// now, given the function's current live-instance count.
	Window(instances int) time.Duration
	// Stats returns the decider's cumulative decision telemetry.
	Stats() Stats
}

// Stats is a decider's decision telemetry, merged per host and then
// cluster-wide into the fleet report. Static mode has no deciders and
// reports all zeros, so static-mode reports stay byte-identical to the
// pre-decider layout.
type Stats struct {
	// Decisions counts Window calls; Observations counts ObserveIdle
	// calls.
	Decisions    int
	Observations int
	// Learned counts adaptive decisions made from a trustworthy
	// histogram (the remainder fell back to the static window).
	Learned int
	// Explored and Exploited split the bandit's pulls; RealizedCost is
	// the cumulative realized cost of its chosen arms and Regret the
	// cumulative excess over the best arm in hindsight.
	Explored     int
	Exploited    int
	RealizedCost float64
	Regret       float64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Decisions += other.Decisions
	s.Observations += other.Observations
	s.Learned += other.Learned
	s.Explored += other.Explored
	s.Exploited += other.Exploited
	s.RealizedCost += other.RealizedCost
	s.Regret += other.Regret
}

// deciderSalt decorrelates decider streams from every other consumer
// of the simulation seed (host shards, the placer, fault schedules).
const deciderSalt = 0x6b612d6465636964 // "ka-decid"

// FunctionSeed derives the RNG seed of the (host, function) decider
// from the spec seed. Deciders are per host per function, so this is
// the whole worker-count-independence argument: the stream depends
// only on (seed, host, fnID), never on which worker simulates the
// host. The differential oracle derives its replay deciders with the
// same function.
func FunctionSeed(seed uint64, host, fnID int) uint64 {
	return stats.MixSeed(stats.MixSeed(stats.MixSeed(seed, deciderSalt), uint64(host)+1), uint64(fnID)+1)
}
