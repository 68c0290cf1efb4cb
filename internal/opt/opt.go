// Package opt is the policy-optimization layer on top of the fleet
// simulator: it sweeps a grid of cluster configurations — placement
// policy × keep-alive TTL × CPU overcommit ratio × host pool size —
// against any set of workload scenarios, evaluates every combination
// concurrently over the streaming replay path (fleet.SimulateGroup,
// which replays candidates that share a scenario from one synthesis),
// and reduces the results to the decisions an operator actually needs:
// a Pareto frontier over cost, cold-start rate, and tail contention
// slowdown, plus a coordinate-descent refinement of the continuous
// knobs around any grid point.
//
// Everything is deterministic. Each (candidate, scenario) evaluation
// is an independent pure function of the sweep configuration — the
// worker pool only decides *when* an evaluation runs, never what it
// computes — and results land in a slice indexed by (candidate,
// scenario), so sweep output is byte-identical for any worker count.
// The paper's layers supply the physics (billing Equation 1, Table 2
// keep-alive retention, §4 contention); this package turns them into a
// search space.
package opt

import (
	"fmt"
	"math"
	"time"

	"slscost/internal/fleet"
	"slscost/internal/keepalive"
)

// PlatformTTL is the KeepAliveTTL sentinel selecting the platform
// profile's own keep-alive window distribution (Table 2) instead of a
// fixed TTL override. A TTL of exactly zero is meaningful — it
// disables keep-alive — so the sentinel is negative.
const PlatformTTL = time.Duration(-1)

// Candidate is one cluster configuration under evaluation: the
// discrete and continuous knobs a sweep or refinement moves, with
// everything else (platform profile, host shape, workload) supplied by
// the sweep Config.
type Candidate struct {
	// Policy is the placement policy name (fleet.NewPolicy).
	Policy string
	// KeepAliveTTL overrides the platform's keep-alive window with a
	// fixed TTL (keepalive.Policy.WithTTL). Zero disables keep-alive;
	// negative (PlatformTTL) keeps the profile's own window
	// distribution. Idle resource retention always stays the
	// platform's.
	KeepAliveTTL time.Duration
	// Overcommit is the CPU oversubscription ratio the placer packs
	// against (≥ 1).
	Overcommit float64
	// Hosts is the host pool size; zero inherits the sweep Config's
	// default pool.
	Hosts int
	// Elastic puts the host pool behind the cluster autoscaler.
	Elastic bool
	// KeepAliveMode selects the per-function keep-alive decision layer
	// (keepalive.Mode). Empty or "static" is the legacy static window —
	// the keep-alive policy the TTL knob shapes. Adaptive modes run
	// with the sweep seed and the spec defaults; their TTL override
	// still applies to the base policy the deciders fall back to (or,
	// for the bandit, ignore in favor of the catalog arms).
	KeepAliveMode string
}

// Key renders the candidate as a stable, human-readable identifier,
// used as the configuration column of every serialized result row.
// The TTL renders through the same ttlLabel the CSV/JSON encoders
// use, so the "ttl" column and the key can never disagree.
func (c Candidate) Key() string {
	key := fmt.Sprintf("%s ttl=%s oc=%g", c.Policy, ttlLabel(c), c.Overcommit)
	if c.Hosts > 0 {
		key += fmt.Sprintf(" hosts=%d", c.Hosts)
	}
	if c.Elastic {
		key += " elastic"
	}
	if m := c.keepAliveMode(); m != keepalive.ModeStatic {
		key += fmt.Sprintf(" ka=%s", m)
	}
	return key
}

// keepAliveMode resolves the candidate's keep-alive mode, defaulting
// empty to static so legacy candidates keep their exact keys.
func (c Candidate) keepAliveMode() keepalive.Mode {
	if c.KeepAliveMode == "" {
		return keepalive.ModeStatic
	}
	return keepalive.Mode(c.KeepAliveMode)
}

// Validate reports whether the candidate's knobs are in range.
func (c Candidate) Validate() error {
	if _, err := fleet.NewPolicy(c.Policy); err != nil {
		return err
	}
	if c.Overcommit < 1 {
		return fmt.Errorf("opt: candidate %s: overcommit %g below 1", c.Key(), c.Overcommit)
	}
	if c.Hosts < 0 {
		return fmt.Errorf("opt: candidate %s: negative host count %d", c.Key(), c.Hosts)
	}
	if !c.keepAliveMode().Valid() {
		return fmt.Errorf("opt: candidate %s: unknown keep-alive mode %q", c.Key(), c.KeepAliveMode)
	}
	return nil
}

// Space is an exhaustive grid of candidates: the cross product of the
// per-knob value lists. Empty Hosts and Elastic lists default to
// {0 (inherit)} and {false}, so the minimal space is policies × TTLs ×
// overcommits.
type Space struct {
	// Policies lists placement policy names (fleet.PolicyNames).
	Policies []string
	// TTLs lists keep-alive TTL overrides; include PlatformTTL to keep
	// the profile's own window in the grid.
	TTLs []time.Duration
	// Overcommits lists CPU oversubscription ratios (each ≥ 1).
	Overcommits []float64
	// Hosts lists host pool sizes; empty means the sweep default pool.
	Hosts []int
	// Elastic lists autoscaling settings; empty means fixed pools only.
	Elastic []bool
	// KeepAliveModes lists keep-alive decision modes (keepalive.Mode
	// names); empty means static only, so pre-existing spaces enumerate
	// exactly the candidates they always did.
	KeepAliveModes []string
}

// DefaultSpace is the grid cmd/fleetsim -sweep starts from: every
// placement policy × {platform window, 60 s, 600 s} × overcommit
// {1, 2} — 24 candidates over the knobs the paper prices (Table 2
// keep-alive economics, Figure 3's oversubscription bet).
func DefaultSpace() Space {
	return Space{
		Policies:    fleet.PolicyNames(),
		TTLs:        []time.Duration{PlatformTTL, 60 * time.Second, 600 * time.Second},
		Overcommits: []float64{1, 2},
	}
}

// MaxCandidates bounds the grid one Space may enumerate, at hundreds
// of times the default grid of 24. Validate checks Size against it
// before enumerating anything: a 1 MiB job spec of repeated TTLs and
// overcommits can otherwise ask for about 10^11 candidates.
const MaxCandidates = 1 << 14

// Size returns the number of candidates the space enumerates, or
// math.MaxInt when that number does not fit in an int.
func (s Space) Size() int {
	n := 1
	for _, k := range [...]int{
		len(s.Policies), len(s.TTLs), len(s.Overcommits),
		max(len(s.Hosts), 1), max(len(s.Elastic), 1), max(len(s.KeepAliveModes), 1),
	} {
		if k > 0 && n > math.MaxInt/k {
			return math.MaxInt
		}
		n *= k
	}
	return n
}

// Validate reports whether the space enumerates at least one valid
// candidate and at most MaxCandidates. Duplicate values within a knob
// list are rejected — they would silently evaluate (and pay for) the
// same candidates twice and print duplicate rows, the same class of
// typo scenario.Subset hard-errors on.
func (s Space) Validate() error {
	if len(s.Policies) == 0 || len(s.TTLs) == 0 || len(s.Overcommits) == 0 {
		return fmt.Errorf("opt: space needs at least one policy, TTL, and overcommit (have %d/%d/%d)",
			len(s.Policies), len(s.TTLs), len(s.Overcommits))
	}
	if n := s.Size(); n > MaxCandidates {
		return fmt.Errorf("opt: space enumerates %d candidates, above the limit of %d", n, MaxCandidates)
	}
	cands := s.Candidates()
	seen := make(map[string]bool, len(cands))
	for _, c := range cands {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Key()] {
			return fmt.Errorf("opt: space enumerates %s twice (duplicate knob value)", c.Key())
		}
		seen[c.Key()] = true
	}
	return nil
}

// Candidates enumerates the grid in deterministic order:
// policy-major, then TTL, overcommit, hosts, elastic, keep-alive mode
// — the row order of every serialized sweep.
func (s Space) Candidates() []Candidate {
	hosts := s.Hosts
	if len(hosts) == 0 {
		hosts = []int{0}
	}
	elastic := s.Elastic
	if len(elastic) == 0 {
		elastic = []bool{false}
	}
	modes := s.KeepAliveModes
	if len(modes) == 0 {
		modes = []string{string(keepalive.ModeStatic)}
	}
	out := make([]Candidate, 0, s.Size())
	for _, pol := range s.Policies {
		for _, ttl := range s.TTLs {
			for _, oc := range s.Overcommits {
				for _, h := range hosts {
					for _, el := range elastic {
						for _, mode := range modes {
							out = append(out, Candidate{
								Policy: pol, KeepAliveTTL: ttl, Overcommit: oc,
								Hosts: h, Elastic: el, KeepAliveMode: mode,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// ParseTTLs parses a comma-free list of TTL strings (time.Duration
// syntax, or "platform" for the profile's own window) in the order
// given, for CLI flag plumbing.
func ParseTTLs(fields []string) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(fields))
	for _, f := range fields {
		if f == "platform" {
			out = append(out, PlatformTTL)
			continue
		}
		d, err := time.ParseDuration(f)
		if err != nil {
			return nil, fmt.Errorf("opt: bad TTL %q (want a duration like 300s, or \"platform\"): %v", f, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("opt: negative TTL %q", f)
		}
		out = append(out, d)
	}
	return out, nil
}
