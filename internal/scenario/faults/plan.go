package faults

import (
	"fmt"
	"math"
	"sort"
	"time"

	"slscost/internal/stats"
)

// Kind is one fault event's effect on its host.
type Kind uint8

const (
	// DrainStart stops the host accepting new requests: idle sandboxes
	// evict immediately, active ones evict as they finish (no
	// keep-alive window), and arrivals queue for replay.
	DrainStart Kind = iota + 1
	// DrainEnd ends a drain window (paired with DrainStart).
	DrainEnd
	// Down takes the host hard-down: every in-flight request is
	// killed, every resident sandbox evicts, and downtime accrues
	// until the matching Up.
	Down
	// Up restores a downed host; requests deferred while it was
	// unavailable replay in arrival order at this instant.
	Up
	// Flush is the cold-start storm: idle sandboxes evict at once and
	// active ones are marked to evict when they finish, so every
	// function on the host pays a fresh cold start.
	Flush
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case DrainStart:
		return "drain-start"
	case DrainEnd:
		return "drain-end"
	case Down:
		return "down"
	case Up:
		return "up"
	case Flush:
		return "flush"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault effect on one host. Within a host,
// events replay in slice order; same-instant events keep their
// compilation order on every replay mechanism (the fleet's timing
// wheel, the stream feed, and the oracle's heap all break ties by
// scheduling sequence).
type Event struct {
	At   time.Duration
	Kind Kind
}

// Window is one closed interval of host unavailability (drain or
// down), as the placement pass consumes it.
type Window struct {
	From, To time.Duration
}

// Plan is a Spec resolved against a concrete cluster: per-host event
// schedules plus the merged unavailability windows placement masks
// hosts with. A Plan is immutable and safe to share across concurrent
// host shards; replaying the same Plan is what keeps the fleet and the
// differential oracle in exact agreement.
type Plan struct {
	hosts   int
	horizon time.Duration
	events  [][]Event
	closed  [][]Window
	total   int
}

// Stream-decorrelation salts for the per-host random fault processes.
const (
	saltCrash   = 0x6661636b // "fack"
	saltPreempt = 0x66707265 // "fpre"
)

// Compile resolves the spec into per-host fault schedules for a
// cluster of the given size over one horizon period. Rate-driven axes
// (crash, preempt) draw Poisson processes from per-(axis, host)
// streams derived from seed, so the plan is a pure function of (spec,
// hosts, horizon, seed) — independent of worker counts and replay
// order. A nil spec compiles to a nil plan (no faults).
func Compile(spec *Spec, hosts int, horizon time.Duration, seed uint64) (*Plan, error) {
	if spec == nil {
		return nil, nil
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if hosts <= 0 {
		return nil, fmt.Errorf("faults: non-positive host count %d", hosts)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("faults: non-positive horizon %v", horizon)
	}
	if n := expectedEvents(spec, hosts); n > maxEvents {
		return nil, fmt.Errorf("faults: plan would hold about %.3g events over %d hosts, above the limit of %d",
			n, hosts, maxEvents)
	}
	p := &Plan{
		hosts:   hosts,
		horizon: horizon,
		events:  make([][]Event, hosts),
		closed:  make([][]Window, hosts),
	}
	h := horizon.Seconds()

	// Normalized copies of the scheduled axes: instants wrap modulo
	// one period, so a spec shifted by whole periods compiles to the
	// identical plan.
	var drains []DrainSpec
	for _, d := range spec.Drains {
		drains = append(drains, d.normalize())
	}
	sort.Slice(drains, func(i, j int) bool { return drains[i].From < drains[j].From })

	for hi := 0; hi < hosts; hi++ {
		var evs []Event
		// Axis emission order is fixed (crash, preempt, AZ outage,
		// drains, storm) and each axis emits in time order, so the
		// stable sort below gives same-instant events a deterministic
		// cross-axis order.
		if c := spec.Crash; c != nil && c.Rate > 0 {
			rng := stats.NewRand(stats.MixSeed(stats.MixSeed(seed, saltCrash), uint64(hi)+1))
			mean := h / c.Rate
			t := rng.Exp(mean)
			for t < h {
				at := time.Duration(t * float64(time.Second))
				evs = append(evs,
					Event{At: at, Kind: Down},
					Event{At: at + time.Duration(c.Restart), Kind: Up})
				// The next crash is drawn from the end of the restart:
				// a host cannot crash while it is already down.
				t = (at + time.Duration(c.Restart)).Seconds() + rng.Exp(mean)
			}
		}
		if pr := spec.Preempt; pr != nil && pr.Rate > 0 {
			rng := stats.NewRand(stats.MixSeed(stats.MixSeed(seed, saltPreempt), uint64(hi)+1))
			mean := h / pr.Rate
			t := rng.Exp(mean)
			for t < h {
				notice := time.Duration(t * float64(time.Second))
				kill := notice + time.Duration(pr.Notice)
				back := kill + time.Duration(pr.Restart)
				evs = append(evs,
					Event{At: notice, Kind: DrainStart},
					Event{At: kill, Kind: Down},
					Event{At: back, Kind: Up},
					Event{At: back, Kind: DrainEnd})
				t = back.Seconds() + rng.Exp(mean)
			}
		}
		if a := spec.AZOutage; a != nil && hi%a.Zones == a.Zone {
			at := time.Duration(wrapFrac(a.At) * float64(horizon))
			evs = append(evs,
				Event{At: at, Kind: Down},
				Event{At: at + time.Duration(a.Duration), Kind: Up})
		}
		for _, d := range drains {
			span := (d.To - d.From) * float64(horizon)
			start := time.Duration(d.From*float64(horizon) + float64(hi)/float64(hosts)*span)
			kill := start + time.Duration(d.Grace)
			back := kill + time.Duration(d.Restart)
			evs = append(evs,
				Event{At: start, Kind: DrainStart},
				Event{At: kill, Kind: Down},
				Event{At: back, Kind: Up},
				Event{At: back, Kind: DrainEnd})
		}
		if st := spec.Storm; st != nil {
			evs = append(evs, Event{At: time.Duration(wrapFrac(st.At) * float64(horizon)), Kind: Flush})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		p.events[hi] = evs
		p.closed[hi] = closedWindows(evs)
		p.total += len(evs)
	}
	return p, nil
}

// maxEvents bounds the events one compiled plan is expected to hold,
// checked before Compile generates any. 2^20 events (16 MB) is over a
// thousand times the chaos profile's plan at 64 hosts, the largest
// host count in use, and 19 times it at 4096; a spec at maxRate over
// 4096 hosts would otherwise ask for about 10^8.
const maxEvents = 1 << 20

// expectedEvents is how many events Compile is expected to schedule
// for spec over hosts hosts: two per crash and four per preemption at
// the axes' rates, four per host per drain, two per host of the
// outage's zone, and one per host for a storm.
func expectedEvents(spec *Spec, hosts int) float64 {
	h := float64(hosts)
	n := 4 * float64(len(spec.Drains)) * h
	if c := spec.Crash; c != nil {
		n += 2 * c.Rate * h
	}
	if pr := spec.Preempt; pr != nil {
		n += 4 * pr.Rate * h
	}
	if a := spec.AZOutage; a != nil {
		n += 2 * math.Ceil(h/float64(a.Zones))
	}
	if spec.Storm != nil {
		n += h
	}
	return n
}

// closedWindows sweeps a host's sorted events with a depth counter
// (drain and down nest across axes) and returns the merged intervals
// during which the host accepts no new work.
func closedWindows(evs []Event) []Window {
	var out []Window
	depth := 0
	var open time.Duration
	for _, ev := range evs {
		switch ev.Kind {
		case DrainStart, Down:
			if depth == 0 {
				open = ev.At
			}
			depth++
		case DrainEnd, Up:
			depth--
			if depth == 0 {
				out = append(out, Window{From: open, To: ev.At})
			}
		}
	}
	if depth > 0 { // unbalanced only if a closing event compiled past callers' interest; close at +inf
		out = append(out, Window{From: open, To: 1<<62 - 1})
	}
	return out
}

// Hosts returns the cluster size the plan was compiled for.
func (p *Plan) Hosts() int { return p.hosts }

// Horizon returns the period length the plan was compiled against.
func (p *Plan) Horizon() time.Duration { return p.horizon }

// Events returns the total scheduled event count across hosts.
func (p *Plan) Events() int { return p.total }

// Empty reports whether the plan schedules nothing: a zero-rate or
// all-axes-absent spec compiles to an empty plan, which every consumer
// treats exactly like no plan at all.
func (p *Plan) Empty() bool { return p == nil || p.total == 0 }

// HostEvents returns host h's schedule in replay order. The slice is
// shared and must not be mutated.
func (p *Plan) HostEvents(h int) []Event {
	if p == nil || h < 0 || h >= p.hosts {
		return nil
	}
	return p.events[h]
}

// ClosedWindows returns host h's merged unavailability intervals in
// time order. The slice is shared and must not be mutated.
func (p *Plan) ClosedWindows(h int) []Window {
	if p == nil || h < 0 || h >= p.hosts {
		return nil
	}
	return p.closed[h]
}

// UnavailableAt reports whether host h accepts no new placements at
// instant t (t inside a closed window; the restore instant itself
// accepts again, matching the replay's deferred-arrival semantics).
func (p *Plan) UnavailableAt(h int, t time.Duration) bool {
	if p == nil || h < 0 || h >= p.hosts {
		return false
	}
	ws := p.closed[h]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].To > t })
	return i < len(ws) && ws[i].From <= t
}
