package fleet

import (
	"time"

	"slscost/internal/billing"
	"slscost/internal/cfs"
	"slscost/internal/keepalive"
	"slscost/internal/scenario/faults"
	"slscost/internal/simtime"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// This file is the phase-2 shard: one host replaying its assigned pods
// on a private simtime.Clock with a private stats.Rand stream. Nothing
// here touches shared state, so hosts simulate concurrently and, because
// every draw is keyed by (seed, host index) and event ties break in
// scheduling order, a host's result depends only on its inputs — never
// on which worker ran it or when.

// hostResult is one host's contribution to the cluster report.
type hostResult struct {
	served    int
	cold      int
	reCold    int // warm-marked requests that found their sandbox expired
	sandboxes int
	expired   int

	cost             float64
	fees             float64
	billedCPUSeconds float64
	billedMemGBs     float64

	latHist         *stats.LogHist
	contentionSecs  float64
	slowHist        *stats.LogHist
	busyVCPUSecs    float64
	idleHeldCPUSecs float64
	makespan        time.Duration

	// Fault bookkeeping: sandboxes evicted by fault events (drain,
	// crash, storm — keep-alive expiries stay in expired), requests
	// killed mid-flight by a hard-down, requests that arrived while the
	// host was unavailable and replayed at recovery (their queueing
	// delay lands in recovHist, in ms), and seconds the host spent
	// hard-down.
	evicted      int
	killed       int
	deferredReqs int
	downSecs     float64
	recovHist    *stats.LogHist

	// CFS cross-check probe (see probe below): the event-driven
	// multi-tenant host's measured slowdown at this host's peak
	// co-tenancy instant, against the linear fair-share prediction.
	probeLinear   float64
	probeMeasured float64

	// Keep-alive decider telemetry (all zero in static mode): the
	// host's per-function decision counters, summed in function-ID
	// order so the float fields accumulate identically for any worker
	// count, and the number of functions that built a decider.
	ka          keepalive.Stats
	kaFunctions int
}

// Per-request measurements are accumulated in fixed logarithmic
// histograms (stats.LogHist) rather than per-request slices: the
// optimizer layer (internal/opt) wants tail quantiles as objectives,
// and a histogram keeps the replay's memory independent of the
// trace size. Merging per-host histograms is integer bucket addition
// plus moment addition, so cluster-wide quantiles, means, and extrema
// are exact functions of the per-host tallies and independent of merge
// order and worker count.
//
// SlowdownHistConfig and LatencyHistConfig are exported so the
// differential harness (internal/scenario/diffsim) can accumulate the
// same histograms from its independently rebuilt admission bookkeeping
// and cross-check ContentionSlowdownP99 and the latency percentiles —
// the bucket layout is the shared wire format, like CFSProbe's
// arithmetic; the observations stay independent.

// SlowdownHistConfig is the bucket layout of the contention-slowdown
// histogram: bucket 0 is exactly "uncontended" (factor ≤ 1); above it,
// each doubling of the stretch factor splits into 32 buckets, so
// quantiles read back with ~2.2% resolution up to a 256× slowdown.
func SlowdownHistConfig() stats.LogHistConfig {
	return stats.LogHistConfig{Origin: 1, BucketsPerDoubling: 32, Buckets: 256}
}

// LatencyHistConfig is the bucket layout of the per-request latency
// histogram, in milliseconds: bucket 0 collects everything at or
// below one microsecond, and 32 buckets per doubling carry ~2.2%
// quantile resolution up to ~12 virtual days per request — far beyond
// any latency the simulation produces.
func LatencyHistConfig() stats.LogHistConfig {
	return stats.LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280}
}

// RecoveryHistConfig is the bucket layout of the fault-recovery
// histogram, in milliseconds: how long each deferred request waited
// between arriving at an unavailable host and being admitted at the
// host's recovery. Same layout as the latency histogram, and exported
// for the same reason — the differential harness accumulates its own
// copy from independent bookkeeping.
func RecoveryHistConfig() stats.LogHistConfig {
	return stats.LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280}
}

// inflightRec is one executing request. Records are pooled per host
// and travel inside the completion event (simtime's arg slot), so the
// steady-state request loop performs no allocation; pos tracks the
// record's index in the in-flight set for O(1) swap-removal without a
// position map.
type inflightRec struct {
	sb    *sandbox
	alloc float64
	cpu   time.Duration
	pos   int32
	// timer is the pending completion event, retained so a hard-down
	// fault can cancel the completion when it kills the request.
	timer simtime.Handle
}

// hostCfg is what one configuration's hosts read during the replay,
// built once before its first host and shared read-only by all of
// them: the configuration, its billing tariff with every flavor slot
// of the source resolved, and the source's function slots. Nothing in
// it depends on the host, so the per-request path reaches billing by
// index instead of re-deriving it.
type hostCfg struct {
	Config
	tariff  billing.Tariff
	flavors []billing.Flavor // by podMeta.flavor
	fnIDs   []int            // by podMeta.fnSlot
}

// newHostCfg compiles cfg's per-request accounting over tab's flavors
// and function slots.
func newHostCfg(cfg Config, tab *podTable) *hostCfg {
	hc := &hostCfg{
		Config:  cfg,
		tariff:  billing.Compile(cfg.Profile.Billing),
		flavors: make([]billing.Flavor, len(tab.flavors)),
		fnIDs:   tab.fnIDs,
	}
	for i, f := range tab.flavors {
		hc.flavors[i] = hc.tariff.Flavor(f.vcpu, f.memMB)
	}
	return hc
}

// sandbox is one live pod runtime on the host. Sandboxes are pooled:
// expire returns them to the host's free list and cold starts reuse
// them, so sandbox churn (the dominant lifecycle in keep-alive-heavy
// traces) does not allocate after warm-up.
type sandbox struct {
	pod *pod
	// fnCount is the host's live-instance counter for the pod's
	// function, resolved at the cold start. Idle transitions draw their
	// keep-alive window from it every request, so it is reached through
	// the sandbox.
	fnCount   *int32
	idleTimer simtime.Handle
	// lpos is the sandbox's index in the host's live list (O(1)
	// swap-removal, mirroring inflightRec.pos). It and activeReqs are
	// 32-bit so the sandbox stays a 48-byte allocation.
	lpos       int32
	activeReqs int32
	idle       bool
	// evictOnIdle marks a sandbox a cold-start storm flushed while it
	// was serving: it evicts the moment its last request finishes,
	// without drawing a keep-alive window.
	evictOnIdle bool
}

// hostSim is the mutable state of one host shard.
type hostSim struct {
	cfg     *hostCfg
	hostIdx int
	clock   *simtime.Clock
	rng     *stats.Rand
	res     hostResult

	// deciders holds the per-function keep-alive deciders by function
	// slot, each built at its function's first idle on this host. The
	// slice exists only when cfg.KeepAlive selects an adaptive mode;
	// nil means the legacy static draw path, untouched. Each decider is
	// seeded by keepalive.FunctionSeed(spec seed, hostIdx, fnID), so its
	// stream depends on what it decides for, never on which worker runs
	// the host.
	deciders []keepalive.Decider

	// fnInstances holds one live-sandbox counter per function slot;
	// sandboxes cache the pointer (sandbox.fnCount) at their cold
	// start. The slice never grows, so the pointers stay valid.
	fnInstances []int32
	inFlight    float64 // vCPUs of executing requests
	idleHeldCPU float64 // vCPUs held by idle sandboxes (Table 2)
	idleCount   int     // idle sandboxes backing idleHeldCPU
	lastAccount time.Duration

	// In-flight request set with deterministic (event-order) layout,
	// plus the snapshot taken at the host's peak-demand instant
	// (capped at MaxProbeTasks — all the probe consumes).
	inflight   []*inflightRec
	peakDemand float64
	peakTasks  []ProbeTask

	// Fault state. live tracks every resident sandbox (idle or active)
	// so bulk fault evictions are O(residents); drainDepth and
	// downDepth count overlapping drain/down windows (the host accepts
	// work only when both are zero); downSince anchors the current
	// hard-down stretch; deferred queues arrivals that hit the host
	// while it was unavailable, replayed FIFO at the accepting
	// transition.
	live       []*sandbox
	drainDepth int
	downDepth  int
	downSince  time.Duration
	deferred   []deferredReq

	// Free lists and the pre-bound event callbacks (method values are
	// allocated once here, not per scheduled event).
	recFree    []*inflightRec
	sbFree     []*sandbox
	completeFn simtime.ArgEvent
	expireFn   simtime.ArgEvent
	faultFn    simtime.ArgEvent
}

// deferredReq is one arrival queued while its host was draining or
// down. The request is copied by value: arrivals are fed out of
// recycled batch buffers that are reused long before the host
// recovers.
type deferredReq struct {
	p *pod
	r trace.Request
}

// account integrates the busy/idle-held vCPU curves up to now. The host
// delivers at most its physical capacity even when the placer
// oversubscribed it, so busy time is capped there.
func (s *hostSim) account(now time.Duration) {
	dt := float64(now-s.lastAccount) * 1e-9 // Duration.Seconds without the div/mod
	if dt > 0 {
		delivered := s.inFlight
		if delivered > s.cfg.Host.VCPU {
			delivered = s.cfg.Host.VCPU
		}
		s.res.busyVCPUSecs += delivered * dt
		s.res.idleHeldCPUSecs += s.idleHeldCPU * dt
	}
	s.lastAccount = now
}

// newHostSim returns a host shard ready to serve requests. The
// latency and slowdown accumulators are histograms bounded by their
// layouts, so the shard's footprint does not depend on its request
// count; the recovery histogram is built at the first deferred
// arrival, so a host no fault touches never holds one.
func newHostSim(hc *hostCfg, hostIdx int) *hostSim {
	s := &hostSim{
		cfg:         hc,
		hostIdx:     hostIdx,
		clock:       simtime.NewClock(),
		rng:         stats.NewRand(mix(hc.Seed, uint64(hostIdx)+1)),
		fnInstances: make([]int32, len(hc.fnIDs)),
	}
	if hc.KeepAlive != nil && hc.KeepAlive.Mode != keepalive.ModeStatic {
		s.deciders = make([]keepalive.Decider, len(hc.fnIDs))
	}
	s.res.latHist = stats.NewLogHist(LatencyHistConfig())
	s.res.slowHist = stats.NewLogHist(SlowdownHistConfig())
	s.completeFn = func(now time.Duration, arg any) { s.complete(now, arg.(*inflightRec)) }
	s.expireFn = func(now time.Duration, arg any) { s.expire(now, arg.(*sandbox)) }
	s.faultFn = func(now time.Duration, arg any) { s.fault(now, arg.(faults.Kind)) }
	return s
}

// seedFaults schedules the host's fault plan on its private clock. The
// replay calls it at the sim's lazy creation, before the clock first
// runs, so fault events carry lower sequence numbers than any
// runtime-scheduled completion or expiry: at an equal instant a fault
// fires first, while a same-instant arrival, fed directly, still beats
// it. The differential oracle applies the same tie order. A host that
// is never fed creates no sim and seeds nothing: faults on a host that
// never serves are unobservable.
func (s *hostSim) seedFaults(hostIdx int) {
	for _, ev := range s.cfg.Faults.HostEvents(hostIdx) {
		s.clock.Schedule(ev.At, s.faultFn, ev.Kind)
	}
}

// getRec takes an in-flight record from the free list or the heap.
func (s *hostSim) getRec() *inflightRec {
	if n := len(s.recFree); n > 0 {
		rec := s.recFree[n-1]
		s.recFree = s.recFree[:n-1]
		return rec
	}
	return &inflightRec{}
}

// getSandbox takes a sandbox from the free list or the heap.
func (s *hostSim) getSandbox(p *pod) *sandbox {
	if n := len(s.sbFree); n > 0 {
		sb := s.sbFree[n-1]
		s.sbFree = s.sbFree[:n-1]
		*sb = sandbox{pod: p}
		return sb
	}
	return &sandbox{pod: p}
}

// feed serves one arrival: queued completions, expiries, and faults
// strictly before the arrival run first, then the request is admitted
// at its arrival instant, so an arrival at t goes before any event
// scheduled at t. Arrivals must be fed in non-decreasing Start order.
func (s *hostSim) feed(p *pod, r *trace.Request) {
	s.clock.RunBefore(r.Start)
	s.arrive(r.Start, p, r)
}

// finish drains the remaining completions and expiries and returns the
// host's tally.
func (s *hostSim) finish() hostResult {
	s.clock.Run()
	s.account(s.clock.Now())
	s.res.makespan = s.clock.Now()
	s.probe()
	// Sum decider telemetry in function-ID order, which is slot order:
	// the float fields must accumulate in a worker-count-independent
	// order.
	for _, d := range s.deciders {
		if d != nil {
			s.res.ka.Add(d.Stats())
			s.res.kaFunctions++
		}
	}
	return s.res
}

// podKA returns the pod's adaptive keep-alive state, building it — and
// the function's decider, at the function's first use on this host —
// when the pod's sandbox first goes idle. Call only in adaptive modes
// (s.deciders non-nil).
func (s *hostSim) podKA(p *pod) *podKA {
	if p.ka == nil {
		d := s.deciders[p.fnSlot]
		if d == nil {
			spec := s.cfg.KeepAlive
			var err error
			d, err = spec.NewDecider(s.cfg.Profile.KeepAlive, keepalive.FunctionSeed(*spec.Seed, s.hostIdx, s.cfg.fnIDs[p.fnSlot]))
			if err != nil {
				// Unreachable: Config.Validate accepted the spec.
				panic(err)
			}
			s.deciders[p.fnSlot] = d
		}
		p.ka = &podKA{decider: d, idleFrom: -1}
	}
	return p.ka
}

// probe runs the CFS cross-check on this host's peak-demand snapshot.
func (s *hostSim) probe() {
	s.res.probeLinear, s.res.probeMeasured = CFSProbe(
		s.cfg.Profile.SchedPeriod, s.cfg.Profile.SchedTickHz,
		s.cfg.Host.VCPU, s.peakDemand, s.peakTasks)
}

// ProbeTask is one in-flight request at a host's peak-demand instant,
// as CFSProbe consumes it.
type ProbeTask struct {
	Alloc float64       // the request's vCPU allocation
	CPU   time.Duration // its remaining CPU demand
}

// MaxProbeTasks is the most in-flight requests CFSProbe replays from a
// peak snapshot. Hosts cap their snapshot copies at this length too —
// copying the whole in-flight set on every new peak is O(n²) on a
// monotone ramp-up, and everything past this bound is discarded by the
// probe anyway. Exported so the differential harness mirrors the exact
// snapshot the fleet takes.
const MaxProbeTasks = 64

// CFSProbe cross-checks the linear contention model against the event-
// driven multi-tenant CFS host (internal/cfs.SimulateHost): the tasks
// in flight at a host's peak-demand instant are replayed, squeezed onto
// one shared CPU with quotas scaled to their share of the host, and the
// measured mean slowdown over each task's solo wall time is returned
// next to the linear model's demand/capacity prediction. Both are zero
// when the host was never oversubscribed (or too few tasks qualify).
//
// Exported because the differential harness (internal/scenario/
// diffsim) runs the same probe on its independently rebuilt snapshot —
// the snapshot is the verified artifact, the probe arithmetic is
// shared.
func CFSProbe(period time.Duration, tickHz int, hostVCPU, peakDemand float64, tasks []ProbeTask) (linear, measured float64) {
	if peakDemand <= hostVCPU || len(tasks) < 2 {
		return 0, 0
	}
	if len(tasks) > MaxProbeTasks {
		tasks = tasks[:MaxProbeTasks]
	}
	host := cfs.HostConfig{TickHz: tickHz, Sched: cfs.CFS}
	specs := make([]cfs.HostTask, 0, len(tasks))
	var slowSum, n float64
	for _, q := range tasks {
		quota := time.Duration(q.Alloc / hostVCPU * float64(period))
		if quota <= 0 || q.CPU <= 0 {
			continue
		}
		demand := q.CPU
		if demand > 250*time.Millisecond {
			demand = 250 * time.Millisecond // bound the probe's cost
		}
		specs = append(specs, cfs.HostTask{Period: period, Quota: quota, Demand: demand})
	}
	if len(specs) < 2 {
		return 0, 0
	}
	res, err := cfs.SimulateHost(host, specs)
	if err != nil {
		return 0, 0
	}
	for i, spec := range specs {
		solo := cfs.IdealDuration(spec.Demand, spec.Period, spec.Quota)
		if solo <= 0 {
			continue
		}
		slowSum += float64(res.Tasks[i].WallTime) / float64(solo)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return peakDemand / hostVCPU, slowSum / n
}

// arrive serves one request: sandbox lookup or cold start, contention-
// stretched execution, billing, and completion scheduling. The steady
// state allocates nothing: the sandbox comes off the pod's direct
// pointer or the free list, the in-flight record off its pool, and the
// completion event carries the record through the clock's arg slot.
func (s *hostSim) arrive(now time.Duration, p *pod, r *trace.Request) {
	s.account(now)
	if s.drainDepth != 0 || s.downDepth != 0 {
		// The host is draining or down: queue the arrival (copying the
		// request — batch buffers are recycled) for FIFO replay at the
		// accepting transition.
		s.deferred = append(s.deferred, deferredReq{p: p, r: *r})
		s.res.deferredReqs++
		if s.res.recovHist == nil {
			s.res.recovHist = stats.NewLogHist(RecoveryHistConfig())
		}
		return
	}
	if ka := p.ka; ka != nil && ka.idleFrom >= 0 {
		// Adaptive modes observe the realized idle gap at the next
		// arrival — go-idle to now, whether the sandbox survived the
		// window or was reclaimed in between (the decider learns the
		// traffic, not the policy's own verdicts). Deferred arrivals
		// observe at their replay instant: the recovery delay is part of
		// the gap the host actually saw.
		ka.decider.ObserveIdle(now - ka.idleFrom)
		ka.idleFrom = -1
	}
	ka := &s.cfg.Profile.KeepAlive

	sb := p.sb
	cold := false
	var init time.Duration
	switch {
	case sb == nil:
		// Cold start: either the pod's trace-recorded first request or a
		// later request whose sandbox this platform's keep-alive window
		// already reclaimed (a "re-cold" start the recording platform
		// never saw). Both pay the pod's initialization time.
		cold = true
		init = p.initMs
		if init <= 0 {
			init = ka.ResidualColdStart
		}
		if !r.ColdStart {
			s.res.reCold++
		}
		sb = s.getSandbox(p)
		p.sb = sb
		sb.lpos = int32(len(s.live))
		s.live = append(s.live, sb)
		c := &s.fnInstances[p.fnSlot]
		sb.fnCount = c
		*c++
		s.res.sandboxes++
	case sb.idle:
		// Warm hit during keep-alive: cancel the pending expiry (the
		// clock removes it eagerly, so cancel-heavy traces don't build
		// up queue garbage).
		s.clock.Cancel(sb.idleTimer)
		sb.idleTimer = simtime.Handle{}
		sb.idle = false
		s.idleCount--
		if s.idleCount == 0 {
			// Exact drain: float add/subtract over many sandboxes can
			// leave a few ULPs of residue; zero idle sandboxes means
			// zero held vCPUs, exactly.
			s.idleHeldCPU = 0
		} else {
			s.idleHeldCPU -= ka.IdleCPU(p.vcpu)
		}
	}

	// Contention: when executing requests demand more vCPUs than the
	// host has, fair sharing stretches everyone. The factor is fixed at
	// admission (a deliberate approximation: re-deriving it on every
	// overlap change would make each host an O(n²) simulation).
	demand := s.inFlight + p.vcpu
	factor := 1.0
	if demand > s.cfg.Host.VCPU {
		factor = demand / s.cfg.Host.VCPU
	}
	effective := time.Duration(float64(r.Duration) * factor)
	s.res.contentionSecs += float64(effective-r.Duration) * 1e-9
	s.res.slowHist.Observe(factor)
	// Remember the host's worst co-tenancy instant for the post-run CFS
	// cross-check probe. The snapshot copies at most MaxProbeTasks
	// entries — the probe discards the rest, and copying the whole set
	// on every new peak is quadratic on a monotone ramp-up.
	rec := s.getRec()
	rec.sb = sb
	rec.alloc = p.vcpu
	rec.cpu = r.CPUTime
	rec.pos = int32(len(s.inflight))
	s.inflight = append(s.inflight, rec)
	if demand > s.peakDemand {
		s.peakDemand = demand
		n := len(s.inflight)
		if n > MaxProbeTasks {
			n = MaxProbeTasks
		}
		s.peakTasks = s.peakTasks[:0]
		for _, q := range s.inflight[:n] {
			s.peakTasks = append(s.peakTasks, ProbeTask{Alloc: q.alloc, CPU: q.cpu})
		}
	}

	s.inFlight += p.vcpu
	sb.activeReqs++
	s.res.served++
	if cold {
		s.res.cold++
	}
	latency := s.cfg.Profile.ServingOverhead + init + effective
	s.res.latHist.Observe(float64(latency) * 1e-6) // ms, multiply instead of divide

	// Bill what the platform observed: the contention-stretched wall
	// clock, and this cluster's cold starts rather than the trace's.
	// The pod's flavor was resolved under this configuration's tariff
	// before the replay.
	u := billing.Usage{Duration: effective, CPUTime: r.CPUTime, MemUsedGB: r.MemUsedMB / 1024}
	if cold {
		u.InitDuration = init
	}
	var ch billing.Charge
	s.cfg.tariff.Charge(&s.cfg.flavors[p.flavor], u, &ch)
	s.res.cost += ch.ResourceCost + ch.Fee // ch.Total(), without copying ch into its receiver
	s.res.fees += ch.Fee
	s.res.billedCPUSeconds += ch.CPUSeconds
	s.res.billedMemGBs += ch.MemGBSeconds

	rec.timer = s.clock.Schedule(now+init+effective, s.completeFn, rec)
}

// complete finishes one request; the sandbox goes idle when it was the
// last in flight, drawing its keep-alive window from the host's stream.
func (s *hostSim) complete(now time.Duration, rec *inflightRec) {
	s.account(now)
	sb := rec.sb
	p := sb.pod
	s.inFlight -= p.vcpu
	sb.activeReqs--
	// Swap-remove from the in-flight set (deterministic: completions
	// fire in event order).
	pos := rec.pos
	last := len(s.inflight) - 1
	moved := s.inflight[last]
	s.inflight[pos] = moved
	moved.pos = pos
	s.inflight[last] = nil
	s.inflight = s.inflight[:last]
	rec.sb = nil
	s.recFree = append(s.recFree, rec)
	if sb.activeReqs > 0 {
		return
	}
	if s.drainDepth != 0 || sb.evictOnIdle {
		// A draining host (or a storm-flushed sandbox) evicts the
		// moment its last request finishes — and draws no keep-alive
		// window, so the host's random stream stays aligned with the
		// differential oracle's replay.
		s.dropSandbox(sb)
		s.res.evicted++
		return
	}
	ka := &s.cfg.Profile.KeepAlive
	sb.idle = true
	s.idleCount++
	s.idleHeldCPU += ka.IdleCPU(p.vcpu)
	var window time.Duration
	if s.deciders == nil {
		window = ka.Window(s.rng, int(*sb.fnCount))
	} else {
		// Adaptive modes: the per-function decider chooses the window
		// from its own stream, and the idle instant is remembered so
		// the gap can be observed at the pod's next arrival.
		pka := s.podKA(p)
		window = pka.decider.Window(int(*sb.fnCount))
		pka.idleFrom = now
	}
	sb.idleTimer = s.clock.Schedule(now+window, s.expireFn, sb)
}

// expire reclaims an idle sandbox at the end of its keep-alive window,
// returning it to the free list.
func (s *hostSim) expire(now time.Duration, sb *sandbox) {
	s.account(now)
	p := sb.pod
	sb.idle = false
	sb.idleTimer = simtime.Handle{}
	s.idleCount--
	if s.idleCount == 0 {
		s.idleHeldCPU = 0
	} else {
		s.idleHeldCPU -= s.cfg.Profile.KeepAlive.IdleCPU(p.vcpu)
	}
	s.dropSandbox(sb)
	s.res.expired++
}

// dropSandbox removes a sandbox from the host entirely: out of the
// live list (O(1) swap via lpos), detached from its pod, function
// counter decremented, and recycled onto the free list. Idle
// bookkeeping (idleCount/idleHeldCPU, the expiry timer) is the
// caller's job.
func (s *hostSim) dropSandbox(sb *sandbox) {
	pos := sb.lpos
	last := len(s.live) - 1
	moved := s.live[last]
	s.live[pos] = moved
	moved.lpos = pos
	s.live[last] = nil
	s.live = s.live[:last]
	*sb.fnCount--
	sb.pod.sb = nil
	*sb = sandbox{}
	s.sbFree = append(s.sbFree, sb)
}

// fault applies one fault-plan event to the host. Every branch runs
// account first, so the busy/idle integrals and the makespan advance
// identically on the fleet and the oracle even when the event changes
// nothing else.
func (s *hostSim) fault(now time.Duration, k faults.Kind) {
	s.account(now)
	switch k {
	case faults.DrainStart:
		s.drainDepth++
		s.evictIdle()
	case faults.DrainEnd:
		s.drainDepth--
		s.replayDeferred(now)
	case faults.Down:
		if s.downDepth == 0 {
			s.downSince = now
		}
		s.downDepth++
		s.killInflight()
		s.evictAllLive()
	case faults.Up:
		s.downDepth--
		if s.downDepth == 0 {
			s.res.downSecs += float64(now-s.downSince) * 1e-9
		}
		s.replayDeferred(now)
	case faults.Flush:
		s.evictIdle()
		// What's left in the live list is serving; it re-cold-starts
		// as soon as it drains.
		for _, sb := range s.live {
			sb.evictOnIdle = true
		}
	}
}

// evictIdle evicts every idle sandbox at once. The loop touches only
// integers; the idle holdings then clamp to exactly zero — the same
// exact-drain discipline the idleCount==0 paths use, made order-free
// so bulk eviction cannot leave float residue.
func (s *hostSim) evictIdle() {
	for i := 0; i < len(s.live); {
		sb := s.live[i]
		if !sb.idle {
			i++
			continue
		}
		s.clock.Cancel(sb.idleTimer)
		sb.idleTimer = simtime.Handle{}
		sb.idle = false
		s.dropSandbox(sb) // swap-removes; re-examine index i
		s.res.evicted++
	}
	s.idleHeldCPU = 0
	s.idleCount = 0
}

// killInflight cancels every executing request: a hard-down host
// completes nothing. Killed requests stay billed (the platform charged
// for the wall clock they consumed at admission — a deliberate
// approximation, admission-time billing) and stay in the latency
// histogram for the same reason.
func (s *hostSim) killInflight() {
	for _, rec := range s.inflight {
		s.clock.Cancel(rec.timer)
		rec.timer = simtime.Handle{}
		rec.sb.activeReqs--
		rec.sb = nil
		s.recFree = append(s.recFree, rec)
		s.res.killed++
	}
	s.inflight = s.inflight[:0]
	s.inFlight = 0 // exact: no executing requests, no demand
}

// evictAllLive evicts every resident sandbox, idle or not (hard-down:
// the machine is gone). Idle holdings clamp to exactly zero.
func (s *hostSim) evictAllLive() {
	for i := len(s.live) - 1; i >= 0; i-- {
		sb := s.live[i]
		if sb.idle {
			s.clock.Cancel(sb.idleTimer)
			sb.idleTimer = simtime.Handle{}
			sb.idle = false
		}
		s.dropSandbox(sb)
		s.res.evicted++
	}
	s.idleHeldCPU = 0
	s.idleCount = 0
}

// replayDeferred re-admits the arrivals that hit the host while it was
// unavailable, FIFO, once the host accepts again. Each records its
// queueing delay in the recovery histogram, then goes through normal
// admission at the recovery instant.
func (s *hostSim) replayDeferred(now time.Duration) {
	if s.drainDepth != 0 || s.downDepth != 0 {
		return
	}
	for i := range s.deferred {
		d := &s.deferred[i]
		s.res.recovHist.Observe(float64(now-d.r.Start) * 1e-6) // ms
		s.arrive(now, d.p, &d.r)
	}
	s.deferred = s.deferred[:0]
}
