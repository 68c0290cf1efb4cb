package keepalive

import (
	"fmt"
	"time"
)

// Spec selects a Decider over the wire and in fleet configuration. A
// nil *Spec (or ModeStatic) means the platform's static policy,
// unchanged. A spec only selects: each mode runs with the calibration
// below, so two runs of one mode differ only by seed.
type Spec struct {
	// Mode selects the decider family.
	Mode Mode `json:"mode"`
	// Seed drives every per-function decider stream (FunctionSeed mixes
	// it with host and function IDs). Mandatory for adaptive and bandit:
	// implicit seeding is how irreproducible runs happen.
	Seed *uint64 `json:"seed,omitempty"`
}

// The modes' calibration. The adaptive histogram spans 2 h at 15 s
// resolution, which covers every catalog scenario's inter-arrival tail
// at ~480 bins; before it is trustworthy the decider holds the base
// policy's midpoint window. The bandit explores with probability 0.1
// and charges a cold start 60 idle-vCPU-seconds.
const (
	defaultMaxIdle  = 2 * time.Hour
	defaultBinWidth = 15 * time.Second

	defaultEpsilon  = 0.1
	defaultColdCost = 60.0
)

// Validate checks the spec: a known mode, and the mandatory seed for
// the adaptive modes.
func (s *Spec) Validate() error {
	if !s.Mode.Valid() {
		return fmt.Errorf("keepalive: unknown mode %q (want static, adaptive, or bandit)", s.Mode)
	}
	if s.Mode != ModeStatic && s.Seed == nil {
		return fmt.Errorf("keepalive: mode %q requires an explicit seed", s.Mode)
	}
	return nil
}

// NewDecider builds the spec's decider for one (host, function) pair:
// base is the platform's static policy (the adaptive fallback source)
// and fnSeed is the FunctionSeed-derived stream seed. Call only on a
// validated adaptive or bandit spec: static mode has no decider, so a
// nil or static spec is an error.
func (s *Spec) NewDecider(base Policy, fnSeed uint64) (Decider, error) {
	if s == nil || s.Mode == ModeStatic {
		return nil, fmt.Errorf("keepalive: static mode has no decider")
	}
	switch s.Mode {
	case ModeAdaptive:
		return NewAdaptive(defaultMaxIdle, defaultBinWidth, expectedWindow(base))
	case ModeBandit:
		return NewBandit(nil, defaultEpsilon, defaultColdCost, fnSeed)
	default:
		return nil, fmt.Errorf("keepalive: unknown mode %q", s.Mode)
	}
}
