// Package faults makes failure a first-class scenario axis: composable,
// deterministic fault events — host crash/restart, spot preemption with
// notice, AZ-correlated outages, rolling-deploy drains, and correlated
// cold-start storms — compiled into per-host schedules the cluster
// simulator (internal/fleet) and the differential oracle
// (internal/scenario/diffsim) replay identically.
//
// A Spec is the declarative form: each axis is optional, rates are
// expressed per horizon period, and scheduled instants (an outage's At,
// a drain's From/To, a storm's At) are fractions of the horizon. Compile
// resolves a Spec against a concrete (hosts, horizon, seed) triple into
// a Plan: per-host event lists plus the merged unavailability windows
// the placement pass masks hosts with. Compilation is a pure function of
// its arguments — independent of worker counts, replay order, and which
// side (fleet or diffsim) consumes it — which is what lets the oracle
// cross-check recovery bookkeeping to the same standard as cost.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "1h30m") — the JSON form of every duration-valued fault
// parameter, mirroring the job API's convention.
type Duration time.Duration

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("faults: duration must be a string like \"90s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec is the declarative fault description: every axis optional and
// composable. Rates are events per host per horizon period; scheduled
// instants are fractions of the horizon, wrapped modulo one period at
// compile time (so shifting a schedule by whole periods is identity —
// the metamorphic property the test suite pins).
type Spec struct {
	// Crash injects a Poisson process of host crash/restart cycles: a
	// crash kills every in-flight request, evicts every resident
	// sandbox, and keeps the host down for Restart.
	Crash *CrashSpec `json:"crash,omitempty"`
	// Preempt injects spot preemptions: a notice window during which
	// the host drains (no new work, finishing sandboxes evict), then
	// the kill, then Restart of replacement-capacity delay.
	Preempt *PreemptSpec `json:"preempt,omitempty"`
	// AZOutage takes one availability zone (hosts striped modulo
	// Zones) down for a correlated window.
	AZOutage *AZOutageSpec `json:"az_outage,omitempty"`
	// Drains are rolling-deploy windows: hosts drain one after another
	// across the window, each down briefly for its restart.
	Drains []DrainSpec `json:"drains,omitempty"`
	// Storm is a correlated cold-start storm: at one instant every
	// host flushes its idle sandboxes and marks the active ones to
	// evict as soon as they finish, so the whole fleet re-cold-starts.
	Storm *StormSpec `json:"storm,omitempty"`
}

// CrashSpec parameterizes the crash/restart axis.
type CrashSpec struct {
	// Rate is the expected crashes per host per horizon period.
	Rate float64 `json:"rate"`
	// Restart is how long a crashed host stays down.
	Restart Duration `json:"restart"`
}

// PreemptSpec parameterizes the spot-preemption axis.
type PreemptSpec struct {
	// Rate is the expected preemptions per host per horizon period.
	Rate float64 `json:"rate"`
	// Notice is the drain window between the preemption notice and the
	// kill (spot instances get ~2 minutes in production).
	Notice Duration `json:"notice"`
	// Restart is the replacement-capacity delay after the kill.
	Restart Duration `json:"restart"`
}

// AZOutageSpec parameterizes the correlated-outage axis.
type AZOutageSpec struct {
	// Zones is how many availability zones the hosts stripe across
	// (host h belongs to zone h mod Zones).
	Zones int `json:"zones"`
	// Zone is the zone that goes dark.
	Zone int `json:"zone"`
	// At is the outage start as a fraction of the horizon.
	At float64 `json:"at"`
	// Duration is how long the zone stays down.
	Duration Duration `json:"duration"`
}

// DrainSpec is one rolling-deploy window.
type DrainSpec struct {
	// From and To bound the rolling window as fractions of the
	// horizon; hosts drain one after another across it.
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// Grace is each host's drain length before its restart kill.
	Grace Duration `json:"grace"`
	// Restart is each host's downtime after the drain.
	Restart Duration `json:"restart"`
}

// StormSpec parameterizes the correlated cold-start storm.
type StormSpec struct {
	// At is the storm instant as a fraction of the horizon.
	At float64 `json:"at"`
}

// SpecError is the typed validation error every malformed Spec is
// rejected with: the offending field and why.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string { return "faults: " + e.Field + ": " + e.Msg }

// specErrf builds a SpecError with a formatted message.
func specErrf(field, format string, args ...any) error {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// maxRate bounds per-horizon event rates: beyond it a compiled plan
// would carry millions of events per host, which is a spec bug, not a
// chaos experiment.
const maxRate = 1e4

// checkRate validates one per-horizon rate value.
func checkRate(field string, rate float64) error {
	if math.IsNaN(rate) {
		return specErrf(field, "rate is NaN")
	}
	if math.IsInf(rate, 0) {
		return specErrf(field, "rate is infinite")
	}
	if rate < 0 {
		return specErrf(field, "negative rate %v", rate)
	}
	if rate > maxRate {
		return specErrf(field, "rate %v above %v per horizon", rate, maxRate)
	}
	return nil
}

// checkFrac validates a fraction-of-horizon instant.
func checkFrac(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return specErrf(field, "instant %v is not finite", v)
	}
	return nil
}

// checkDur validates a non-negative duration parameter.
func checkDur(field string, d Duration) error {
	if d < 0 {
		return specErrf(field, "negative duration %v", time.Duration(d))
	}
	return nil
}

// Validate reports whether the spec is usable; every rejection is a
// *SpecError naming the offending field. A nil spec is valid (no
// faults).
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if c := s.Crash; c != nil {
		if err := checkRate("crash.rate", c.Rate); err != nil {
			return err
		}
		if err := checkDur("crash.restart", c.Restart); err != nil {
			return err
		}
	}
	if p := s.Preempt; p != nil {
		if err := checkRate("preempt.rate", p.Rate); err != nil {
			return err
		}
		if err := checkDur("preempt.notice", p.Notice); err != nil {
			return err
		}
		if err := checkDur("preempt.restart", p.Restart); err != nil {
			return err
		}
	}
	if a := s.AZOutage; a != nil {
		if a.Zones < 1 {
			return specErrf("az_outage.zones", "need at least 1 zone, have %d", a.Zones)
		}
		if a.Zone < 0 || a.Zone >= a.Zones {
			return specErrf("az_outage.zone", "zone %d outside [0,%d)", a.Zone, a.Zones)
		}
		if err := checkFrac("az_outage.at", a.At); err != nil {
			return err
		}
		if err := checkDur("az_outage.duration", a.Duration); err != nil {
			return err
		}
	}
	norm := make([]DrainSpec, 0, len(s.Drains))
	for i, d := range s.Drains {
		field := fmt.Sprintf("drains[%d]", i)
		if err := checkFrac(field+".from", d.From); err != nil {
			return err
		}
		if err := checkFrac(field+".to", d.To); err != nil {
			return err
		}
		if d.From >= d.To {
			return specErrf(field, "window [%v,%v) is empty or inverted", d.From, d.To)
		}
		if d.To-d.From > 1 {
			return specErrf(field, "window [%v,%v) spans more than one period (overlaps itself)", d.From, d.To)
		}
		if err := checkDur(field+".grace", d.Grace); err != nil {
			return err
		}
		if err := checkDur(field+".restart", d.Restart); err != nil {
			return err
		}
		norm = append(norm, d.normalize())
	}
	// Overlap is checked after the modulo-one-period normalization, so
	// two drains one whole period apart — the same window after
	// wrapping — are rejected like any other overlap.
	for i := range norm {
		for j := i + 1; j < len(norm); j++ {
			if norm[i].From < norm[j].To && norm[j].From < norm[i].To {
				return specErrf(fmt.Sprintf("drains[%d]", j),
					"window [%v,%v) overlaps drains[%d] [%v,%v) after period wrapping",
					norm[j].From, norm[j].To, i, norm[i].From, norm[i].To)
			}
		}
	}
	if st := s.Storm; st != nil {
		if err := checkFrac("storm.at", st.At); err != nil {
			return err
		}
	}
	return nil
}

// normalize wraps the drain window into the first period: both bounds
// shift by -floor(From), preserving the window's length and phase.
func (d DrainSpec) normalize() DrainSpec {
	shift := math.Floor(d.From)
	d.From -= shift
	d.To -= shift
	return d
}

// wrapFrac wraps a fraction-of-horizon instant into [0,1).
func wrapFrac(v float64) float64 {
	v -= math.Floor(v)
	if v >= 1 { // -0.0 or float edge
		v = 0
	}
	return v
}

// Enabled reports whether the spec injects anything at all: a nil spec,
// and a spec whose every axis is absent or zero-rate, compile to a plan
// with no events.
func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return (s.Crash != nil && s.Crash.Rate > 0) ||
		(s.Preempt != nil && s.Preempt.Rate > 0) ||
		s.AZOutage != nil || len(s.Drains) > 0 || s.Storm != nil
}
