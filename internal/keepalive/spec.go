package keepalive

import (
	"fmt"
	"time"
)

// Spec selects and parameterizes a Decider over the wire and in fleet
// configuration. A nil *Spec (or ModeStatic) means the platform's
// static policy, unchanged. The zero knobs are per-mode: adaptive
// takes the histogram shape, bandit the exploration parameters, and
// static takes nothing — Validate rejects knobs that don't belong to
// the selected mode so a typo'd spec fails loudly instead of silently
// running a different policy.
type Spec struct {
	// Mode selects the decider family.
	Mode Mode `json:"mode"`
	// Seed drives every per-function decider stream (FunctionSeed mixes
	// it with host and function IDs). Mandatory for adaptive and bandit:
	// implicit seeding is how irreproducible runs happen.
	Seed *uint64 `json:"seed,omitempty"`

	// Adaptive knobs (Go duration strings, e.g. "90m", "15s").
	// MaxIdle/BinWidth shape the idle-time histogram; Fallback is the
	// window used before the histogram is trustworthy and defaults to
	// the base policy's midpoint window.
	MaxIdle  string `json:"max_idle,omitempty"`
	BinWidth string `json:"bin_width,omitempty"`
	Fallback string `json:"fallback,omitempty"`

	// Bandit knobs: exploration probability (default 0.1) and the
	// cold-start penalty in idle-vCPU-second units (default 60).
	Epsilon  *float64 `json:"epsilon,omitempty"`
	ColdCost *float64 `json:"cold_cost,omitempty"`
}

// Default adaptive histogram shape: 2 h of range at 15 s resolution
// covers every catalog scenario's inter-arrival tail at ~480 bins.
const (
	defaultMaxIdle  = 2 * time.Hour
	defaultBinWidth = 15 * time.Second

	defaultEpsilon  = 0.1
	defaultColdCost = 60.0
)

// histogram returns the parsed adaptive histogram shape with defaults
// applied. Call only after Validate.
func (s *Spec) histogram() (maxIdle, binWidth time.Duration) {
	maxIdle, binWidth = defaultMaxIdle, defaultBinWidth
	if s.MaxIdle != "" {
		maxIdle, _ = time.ParseDuration(s.MaxIdle)
	}
	if s.BinWidth != "" {
		binWidth, _ = time.ParseDuration(s.BinWidth)
	}
	return maxIdle, binWidth
}

// Validate checks the spec for internal consistency: a known mode,
// mandatory seed for the adaptive modes, parseable and sane durations,
// and no knobs from a different mode.
func (s *Spec) Validate() error {
	if !s.Mode.Valid() {
		return fmt.Errorf("keepalive: unknown mode %q (want static, adaptive, or bandit)", s.Mode)
	}
	if s.Mode != ModeStatic && s.Seed == nil {
		return fmt.Errorf("keepalive: mode %q requires an explicit seed", s.Mode)
	}
	if s.Mode != ModeAdaptive && (s.MaxIdle != "" || s.BinWidth != "" || s.Fallback != "") {
		return fmt.Errorf("keepalive: histogram knobs are adaptive-only (mode %q)", s.Mode)
	}
	if s.Mode != ModeBandit && (s.Epsilon != nil || s.ColdCost != nil) {
		return fmt.Errorf("keepalive: epsilon/cold_cost are bandit-only (mode %q)", s.Mode)
	}
	for _, f := range []struct {
		name, val string
	}{{"max_idle", s.MaxIdle}, {"bin_width", s.BinWidth}, {"fallback", s.Fallback}} {
		if f.val == "" {
			continue
		}
		d, err := time.ParseDuration(f.val)
		if err != nil {
			return fmt.Errorf("keepalive: bad %s: %w", f.name, err)
		}
		if d < 0 {
			return fmt.Errorf("keepalive: negative %s %q", f.name, f.val)
		}
	}
	if s.Mode == ModeAdaptive {
		maxIdle, binWidth := s.histogram()
		if binWidth <= 0 || maxIdle < binWidth {
			return fmt.Errorf("keepalive: bad histogram shape (max_idle %v, bin_width %v)", maxIdle, binWidth)
		}
	}
	if s.Epsilon != nil && (*s.Epsilon < 0 || *s.Epsilon > 1) {
		return fmt.Errorf("keepalive: epsilon %v outside [0,1]", *s.Epsilon)
	}
	if s.ColdCost != nil && *s.ColdCost < 0 {
		return fmt.Errorf("keepalive: negative cold_cost %v", *s.ColdCost)
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
		maxIdle, binWidth := s.histogram()
		fallback := expectedWindow(base)
		if s.Fallback != "" {
			fallback, _ = time.ParseDuration(s.Fallback)
		}
		return NewAdaptive(maxIdle, binWidth, fallback)
	case ModeBandit:
		epsilon, coldCost := defaultEpsilon, defaultColdCost
		if s.Epsilon != nil {
			epsilon = *s.Epsilon
		}
		if s.ColdCost != nil {
			coldCost = *s.ColdCost
		}
		return NewBandit(nil, epsilon, coldCost, fnSeed)
	default:
		return nil, fmt.Errorf("keepalive: unknown mode %q", s.Mode)
	}
}
