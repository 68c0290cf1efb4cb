// Package fleet scales the repository's per-host models to a cluster: N
// simulated hosts serving a request trace under a pluggable sandbox
// placement policy, with per-host sandbox lifecycle (cold start,
// keep-alive expiry, reclaim), CPU contention, and a cluster-wide cost
// and latency report.
//
// The paper analyzes billing (§2), serving architecture (§3), and CFS
// scheduling (§4) one sandbox or host at a time, but its trace is 558M
// requests from a production fleet. This package lets those layers
// interact under multi-tenant load: a keep-alive policy (Table 2) holds
// capacity that the placer can no longer use, contention stretches
// wall-clock durations that wall-clock billing (Table 1) then charges
// for, and the placement policy decides how much of either happens.
//
// The simulation is sharded for speed and determinism. A cheap
// sequential placement pass assigns every sandbox to a host; then each
// host replays its own sub-stream on a private simtime.Clock with a
// private stats.Rand stream, hosts running in parallel across a worker
// pool. Because per-host state is keyed by (seed, host index) and
// results merge in host order, the report is bit-identical for any
// worker count.
package fleet

import (
	"context"
	"fmt"
	"time"

	"slscost/internal/autoscale"
	"slscost/internal/core"
	"slscost/internal/keepalive"
	"slscost/internal/scenario/faults"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// HostSpec is one host's capacity.
type HostSpec struct {
	// VCPU is the host's schedulable vCPU capacity.
	VCPU float64
	// MemMB is the host's memory capacity in MB.
	MemMB float64
}

// DefaultHostSpec returns a 16-vCPU / 32 GB worker node, the shape the
// paper's co-tenancy densities (§4) assume.
func DefaultHostSpec() HostSpec { return HostSpec{VCPU: 16, MemMB: 32768} }

// Config parameterizes one cluster simulation.
type Config struct {
	// Hosts is the number of hosts in the cluster.
	Hosts int
	// Host is the per-host capacity.
	Host HostSpec
	// Policy places sandboxes onto hosts; NewPolicy names the
	// built-in ones.
	Policy Policy
	// Profile supplies the platform's billing model, serving overhead,
	// and keep-alive policy.
	Profile core.Profile
	// Workers is the number of host shards simulated concurrently.
	// Zero means GOMAXPROCS. The report is identical for any value.
	Workers int
	// Overcommit is the CPU oversubscription ratio the placer packs
	// against: a host advertises VCPU × Overcommit schedulable vCPUs,
	// the bet providers make on the trace's low utilization rates
	// (Figure 3). Memory is never oversubscribed. Zero means 1 (no
	// oversubscription); values below 1 are invalid.
	Overcommit float64
	// Elastic, when true, puts the host pool behind a cluster
	// autoscaler (internal/autoscale): placement starts with one active
	// host and the windowed concurrency signal grows or shrinks the
	// pool between 1 and Hosts. Inactive hosts keep serving sandboxes
	// already placed on them but receive no new ones. The §3.1 metric-
	// aggregation lag applies, so a burst can reject sandboxes a fixed
	// fleet would have absorbed.
	Elastic bool
	// Faults is the compiled fault plan the hosts replay (nil or empty
	// for a healthy cluster). The plan must have been compiled for
	// exactly Hosts hosts; every host schedules its events on its
	// private clock, and the placement pass masks hosts that are
	// draining or down at a pod's first arrival, so fault replay is as
	// worker-count-independent as the rest of the simulation.
	Faults *faults.Plan
	// KeepAlive selects the per-function keep-alive decision layer
	// (internal/keepalive). Nil — or an explicit static spec — keeps
	// the platform's policy on the legacy draw path, byte-identical to
	// a pre-decider run. The adaptive modes build one decider per
	// (host, function) pair, seeded by the spec's mandatory seed, and
	// never touch the host's shared stream, so their runs are as
	// worker-count-independent as static ones.
	KeepAlive *keepalive.Spec
	// Seed drives every random stream in the simulation.
	Seed uint64
}

// overcommit returns the effective CPU oversubscription ratio.
func (c Config) overcommit() float64 {
	if c.Overcommit == 0 {
		return 1
	}
	return c.Overcommit
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Hosts <= 0 {
		return fmt.Errorf("fleet: non-positive host count %d", c.Hosts)
	}
	if c.Host.VCPU <= 0 || c.Host.MemMB <= 0 {
		return fmt.Errorf("fleet: non-positive host capacity %+v", c.Host)
	}
	if c.Policy == nil {
		return fmt.Errorf("fleet: nil placement policy")
	}
	if c.Workers < 0 {
		return fmt.Errorf("fleet: negative worker count %d", c.Workers)
	}
	if c.Overcommit != 0 && c.Overcommit < 1 {
		return fmt.Errorf("fleet: overcommit ratio %v below 1", c.Overcommit)
	}
	if c.Faults != nil && c.Faults.Hosts() != c.Hosts {
		return fmt.Errorf("fleet: fault plan compiled for %d hosts, cluster has %d", c.Faults.Hosts(), c.Hosts)
	}
	if c.KeepAlive != nil {
		if err := c.KeepAlive.Validate(); err != nil {
			return err
		}
	}
	return c.Profile.Validate()
}

// podMeta is the part of a pod's scanned metadata the host replay
// reads. It is recorded once per source (podMetas) and shared
// read-only by every configuration replaying that source
// (SimulateGroup); placement reads the full trace.PodMeta before the
// replay starts, and the replay does not keep it. The pod's function
// and flavor are dense slots into the source's podTable, so a host
// reaches its per-function counters and its configuration's billed
// flavor amounts by index.
type podMeta struct {
	vcpu   float64
	initMs time.Duration // cold-start init of the pod's first request
	fnSlot int32         // index into podTable.fnIDs
	flavor int32         // index into podTable.flavors
}

// pod is one configuration's view of a sandbox, the placement unit:
// the shared metadata plus this configuration's placement decision and
// live replay state. It is kept to 32 bytes because a group holds one
// per pod per configuration; the live-instance counter of the pod's
// function lives on the host, reached through the sandbox.
type pod struct {
	*podMeta
	sb   *sandbox // live sandbox during simulation (owned by the host's shard)
	host int      // assigned host, -1 = rejected
	ka   *podKA   // adaptive keep-alive state; nil in static mode
}

// podKA is a pod's adaptive keep-alive state, built when the pod's
// sandbox first goes idle. decider caches the owning host's decider
// for the pod's function; idleFrom is the instant the pod's sandbox
// last went idle, or -1 when there is no pending idle gap to observe —
// the decider observes the gap at the pod's next arrival, whether the
// sandbox survived or not.
type podKA struct {
	decider  keepalive.Decider
	idleFrom time.Duration
}

// release is a scheduled reduction of a pod's placement commitment: the
// downgrade to the keep-alive idle holdings when the pod goes idle, and
// the final release when the window elapses.
type release struct {
	at         time.Duration
	host       int
	vcpu, mem  float64
	endSandbox bool
}

// releaseHeap is a min-heap of pending releases by time. The sift
// routines are hand-rolled (container/heap's interface methods box a
// release per Push/Pop — two heap allocations per pod) but replicate
// container/heap's exact algorithm, so elements with equal times pop in
// the same order and the placement pass's float accumulation order is
// unchanged.
type releaseHeap []release

func (h *releaseHeap) push(r release) {
	*h = append(*h, r)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[i].at <= s[j].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *releaseHeap) popMin() release {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].at < s[l].at {
			m = r
		}
		if s[i].at <= s[m].at {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// placeStats is the placement pass's contribution to the report.
type placeStats struct {
	rejected   int
	meanActive float64
	peakActive int
	// maskedPods counts pods whose first arrival fell inside at least
	// one host's fault window — offers the policy made with part of the
	// fleet masked out. Counted over the whole cluster (not just the
	// elastic prefix) so the differential oracle can recompute it from
	// the plan and the pod arrivals alone.
	maskedPods int
}

// placeAll runs the sequential placement pass: pods are offered to the
// policy in order of first arrival. A placed pod commits its full flavor
// while it serves requests; once its last request finishes, the
// commitment downgrades to what the platform's keep-alive policy
// actually retains while idle (Table 2: AWS freeze-resume holds nothing,
// GCP holds memory plus a CPU sliver, Azure holds everything), and the
// rest releases when the *expected* keep-alive window elapses — the
// placer works on the policy mean, while each host later samples actual
// windows from its own stream, as a real scheduler estimates what it
// cannot observe. Commitments never exceed host capacity: a pod no host
// fits is rejected. The pass reads the scanned metas and records each
// decision in the slot-aligned pods[i].host, leaving rejected pods'
// host as it found it.
//
// Under Elastic, policies only see the autoscaled prefix of the host
// pool, sized by a windowed autoscaler fed the committed-vCPU signal
// (one "instance" = one host's schedulable vCPUs).
func placeAll(cfg Config, metas []trace.PodMeta, pods []pod) (view View, ps placeStats) {
	view = View{Hosts: make([]HostLoad, cfg.Hosts)}
	schedulable := cfg.Host
	schedulable.VCPU *= cfg.overcommit()
	for i := range view.Hosts {
		view.Hosts[i].Spec = schedulable
	}
	rng := stats.NewRand(mix(cfg.Seed, 0x706c616365)) // "place"
	ka := cfg.Profile.KeepAlive
	window := expectedWindow(cfg.Profile)

	active := cfg.Hosts
	var scaler *autoscale.Autoscaler
	var nextDecision time.Duration
	var committedVCPU, committedMemMB float64
	if cfg.Elastic {
		active = 1
		// One autoscaler "instance" is one host; the concurrency signal
		// is demand in host units — committed share of whichever
		// resource binds first (memory is not oversubscribed, so it
		// usually does). Scaled by 100 because the autoscaler's
		// concurrency is integral per instance.
		scaler = autoscale.New(autoscale.Config{
			ContainerConcurrency: 100,
			TargetUtilization:    0.7,
			StableWindow:         60 * time.Second,
			PanicWindow:          6 * time.Second,
			PanicThreshold:       2,
			MinInstances:         1,
			MaxInstances:         cfg.Hosts,
		})
	}
	ps.peakActive = active
	var activeIntegral float64 // host-seconds
	var lastAt, firstAt time.Duration
	if len(metas) > 0 {
		firstAt, lastAt = metas[0].First, metas[0].First
	}

	var pending releaseHeap
	// The policy sees the active prefix through one view, which also
	// carries Next from one placement to the next. Passed through the
	// Policy interface, it escapes, so it is allocated once per pass,
	// not once per pod.
	var sub View

	for i := range metas {
		p := &metas[i]
		for len(pending) > 0 && pending[0].at <= p.First {
			rel := pending.popMin()
			h := &view.Hosts[rel.host]
			h.CommittedVCPU -= rel.vcpu
			h.CommittedMemMB -= rel.mem
			committedVCPU -= rel.vcpu
			committedMemMB -= rel.mem
			if rel.endSandbox {
				h.Sandboxes--
			}
		}
		if scaler != nil {
			demandHosts := committedVCPU / schedulable.VCPU
			if m := committedMemMB / schedulable.MemMB; m > demandHosts {
				demandHosts = m
			}
			scaler.Record(p.First, demandHosts*100, 0)
			if p.First >= nextDecision {
				// Knative's 2 s decision tick.
				active = scaler.Desired(p.First, active)
				nextDecision = p.First + 2*time.Second
				if active > ps.peakActive {
					ps.peakActive = active
				}
			}
		}
		activeIntegral += float64(active) * (p.First - lastAt).Seconds()
		lastAt = p.First

		// Fault masking: hosts draining or down at this pod's first
		// arrival fit nothing, so the policy routes around them exactly
		// as a production scheduler drops unhealthy nodes from its scan.
		if plan := cfg.Faults; !plan.Empty() {
			masked := false
			for i := range view.Hosts {
				u := plan.UnavailableAt(i, p.First)
				view.Hosts[i].Unavailable = u
				if u {
					masked = true
				}
			}
			if masked {
				ps.maskedPods++
			}
		}

		sub.Hosts = view.Hosts[:active]
		idx := cfg.Policy.Place(&sub, p.VCPU, p.MemMB, rng)
		if idx < 0 {
			ps.rejected++
			continue
		}
		sub.Next = (idx + 1) % active
		pods[i].host = idx
		h := &view.Hosts[idx]
		h.CommittedVCPU += p.VCPU
		h.CommittedMemMB += p.MemMB
		committedVCPU += p.VCPU
		committedMemMB += p.MemMB
		h.Sandboxes++
		idleCPU := ka.IdleCPU(p.VCPU)
		idleMem := ka.IdleMemGB(p.MemMB/1024) * 1024
		pending.push(release{at: p.Last, host: idx, vcpu: p.VCPU - idleCPU, mem: p.MemMB - idleMem})
		pending.push(release{at: p.Last + window, host: idx, vcpu: idleCPU, mem: idleMem, endSandbox: true})
	}
	if span := (lastAt - firstAt).Seconds(); span > 0 {
		ps.meanActive = activeIntegral / span
	} else {
		ps.meanActive = float64(active)
	}
	// The integral sums independently rounded interval .Seconds(), so it
	// can drift a few ULPs above span × peak; the true mean can't exceed
	// the peak, so clamp rather than report an impossible value.
	if ps.meanActive > float64(ps.peakActive) {
		ps.meanActive = float64(ps.peakActive)
	}
	return view, ps
}

// expectedWindow is the placement-time keep-alive estimate: the midpoint
// of the policy's window bounds.
func expectedWindow(p core.Profile) time.Duration {
	return (p.KeepAlive.MinWindow + p.KeepAlive.MaxWindow) / 2
}

// mix derives an independent splitmix-style seed from (seed, salt) so
// each host shard and the placer get decorrelated streams.
func mix(seed, salt uint64) uint64 { return stats.MixSeed(seed, salt) }

// Simulate replays the trace through the cluster and returns the
// cluster-wide report: SimulateStream over the trace. The trace must be
// sorted by arrival time with per-pod flavors constant (trace.Generate
// output satisfies both; malformed replay input is rejected with an
// error).
func Simulate(cfg Config, tr *trace.Trace) (Report, error) {
	return SimulateStream(context.Background(), cfg, trace.SourceOf(tr))
}
