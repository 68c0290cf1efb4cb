// Package diffsim is the differential verification harness for the
// cluster simulator: it replays a fleet configuration's placement with
// an independent per-host interpreter built directly on the keep-alive,
// billing, and cfs models, and cross-checks the aggregate report
// internal/fleet produces against it.
//
// internal/fleet simulates each host as callbacks on a simtime.Clock
// with cancellable timers, sharded across a worker pool. This package
// re-derives the same quantities from the same inputs with a different
// mechanism — one explicit chronological sweep per host, which walks
// the host's arrivals from a sorted slice and keeps only pending
// events (faults, completions, expiries) on a typed heap, with lazy
// (generation-counted) expiry invalidation and sequential accounting —
// so a bookkeeping bug in either implementation surfaces as a
// disagreement. Hosts are independent: Replay sweeps them on
// fleet.Config.Workers goroutines and folds their tallies in host
// order. The per-host random stream contract (fleet.ShardSeed,
// keep-alive windows drawn in event order) is shared and every float is
// summed in the fleet's order, so agreement is exact: every relative
// delta is 0. VerifyStream's context cancels the oracle's replay as
// well as the streamed simulation.
//
// Combined with internal/scenario, every workload scenario doubles as a
// verification oracle: the ext-scenarios experiment and the fleetsim
// -verify flag run this harness across the catalog.
package diffsim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slscost/internal/billing"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/scenario/faults"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// DefaultTolerance is the relative disagreement callers accept by
// default. Observed deltas are exactly 0 (the oracle sums in the fleet's
// order); the bound is headroom, orders of magnitude below any real
// behavioral divergence.
const DefaultTolerance = 1e-6

// Aggregate is the independent replay's cluster-wide tally — the subset
// of fleet.Report the harness re-derives.
type Aggregate struct {
	Served            int
	ColdStarts        int
	ReColdStarts      int
	Sandboxes         int
	ExpiredSandboxes  int
	RejectedSandboxes int
	RejectedRequests  int

	TotalCost        float64
	Fees             float64
	BilledCPUSeconds float64
	BilledMemGBs     float64

	ContentionDelaySeconds float64
	ContentionSlowdownP99  float64
	IdleHeldVCPUSeconds    float64
	// Latency quantities are read from this replay's own logarithmic
	// histogram (the fleet's exported LatencyHistConfig layout is the
	// shared wire format): the mean is exact, the percentiles carry the
	// same ~2.2% bucket resolution as the fleet report, so agreement is
	// exact rather than tolerance-limited.
	MeanLatencyMs float64
	LatencyP50Ms  float64
	LatencyP95Ms  float64
	LatencyP99Ms  float64

	MeanHostUtilization float64
	MinHostUtilization  float64
	MaxHostUtilization  float64

	CFSCheckLinear   float64
	CFSCheckMeasured float64

	// Fault accounting, re-derived by the independent sweep: fault
	// evictions, mid-flight kills, deferred arrivals with their
	// recovery-delay quantiles (read from this replay's own
	// fleet.RecoveryHistConfig histogram), hard-down host-seconds, and
	// the placement offers made with masked hosts — the last recomputed
	// directly from the fault plan's closed windows and each pod's
	// first arrival, without consulting the placement pass.
	EvictedSandboxes       int
	KilledRequests         int
	DeferredRequests       int
	RecoveryMeanMs         float64
	RecoveryP50Ms          float64
	RecoveryP99Ms          float64
	UnavailableHostSeconds float64
	FaultMaskedPods        int

	// Keep-alive decision-layer counters, re-derived by replaying the
	// identical decider state machines (internal/keepalive) against
	// this sweep's own idle observations and decision points. All zero
	// in static mode, matching the fleet report.
	PolicyFunctions          int
	PolicyDecisions          int
	PolicyObservations       int
	AdaptiveLearnedDecisions int
	BanditExplorations       int
	BanditExploitations      int
	BanditRealizedCost       float64
	BanditRegret             float64

	Makespan time.Duration
}

// Metric is one compared quantity.
type Metric struct {
	Name        string
	Fleet       float64
	Independent float64
	RelDelta    float64
}

// Result is the outcome of one differential comparison.
type Result struct {
	Metrics     []Metric
	MaxRelDelta float64
}

// Check returns an error naming every metric whose relative delta
// exceeds tol.
func (r *Result) Check(tol float64) error {
	var bad []string
	for _, m := range r.Metrics {
		if m.RelDelta > tol {
			bad = append(bad, fmt.Sprintf("%s: fleet %v vs independent %v (rel %.3g)",
				m.Name, m.Fleet, m.Independent, m.RelDelta))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("diffsim: %d metric(s) disagree beyond %.3g: %v", len(bad), tol, bad)
	}
	return nil
}

// FirstMismatch returns the name of the first metric (in comparison
// order) whose relative delta exceeds tol, or "" when every metric
// agrees. Failure reporters lead with it so a broken run names its
// first divergent quantity up front rather than burying it in the
// full metric dump.
func (r *Result) FirstMismatch(tol float64) string {
	for _, m := range r.Metrics {
		if m.RelDelta > tol {
			return m.Name
		}
	}
	return ""
}

// Verify simulates the cluster, replays it independently, and checks
// the two against tol. It is the one-call form used by tests and the
// fleetsim -verify flag.
func Verify(cfg fleet.Config, tr *trace.Trace, tol float64) (*Result, fleet.Report, error) {
	rep, err := fleet.Simulate(cfg, tr)
	if err != nil {
		return nil, rep, err
	}
	agg, err := Replay(cfg, tr)
	if err != nil {
		return nil, rep, err
	}
	res := Diff(rep, agg)
	return res, rep, res.Check(tol)
}

// VerifyStream is Verify for the streaming pipeline: the cluster
// report comes from fleet.SimulateStream, while the independent replay
// materializes the same source once and sweeps it per host. This
// cross-checks the entire streamed path — lazy generation, re-timing,
// the placement scan, and the incremental host clocks — against an
// implementation that shares none of that machinery. Because the
// replay materializes the trace, verification runs at oracle scale,
// not at the streamed path's unbounded scale.
//
// Cancelling ctx stops the whole call promptly: the streamed
// simulation within fleet.SimulateStream's bound, the oracle before it
// collects the source and then within cancelCheckMask+1 events of each
// host it is replaying. A cancelled call returns ctx.Err() and a nil
// Result.
func VerifyStream(ctx context.Context, cfg fleet.Config, src trace.Source, tol float64) (*Result, fleet.Report, error) {
	rep, err := fleet.SimulateStream(ctx, cfg, src)
	if err != nil {
		return nil, rep, err
	}
	s, err := src()
	if err != nil {
		return nil, rep, err
	}
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}
	agg, err := replay(ctx, cfg, trace.Collect(s, rep.Requests))
	if err != nil {
		return nil, rep, err
	}
	res := Diff(rep, agg)
	return res, rep, res.Check(tol)
}

// Diff compares a fleet report against the independent aggregate.
func Diff(rep fleet.Report, agg Aggregate) *Result {
	res := &Result{}
	add := func(name string, a, b float64) {
		d := relDelta(a, b)
		res.Metrics = append(res.Metrics, Metric{Name: name, Fleet: a, Independent: b, RelDelta: d})
		if d > res.MaxRelDelta {
			res.MaxRelDelta = d
		}
	}
	add("served", float64(rep.Served), float64(agg.Served))
	add("cold-starts", float64(rep.ColdStarts), float64(agg.ColdStarts))
	add("re-cold-starts", float64(rep.ReColdStarts), float64(agg.ReColdStarts))
	add("sandboxes", float64(rep.Sandboxes), float64(agg.Sandboxes))
	add("expired-sandboxes", float64(rep.ExpiredSandboxes), float64(agg.ExpiredSandboxes))
	add("rejected-sandboxes", float64(rep.RejectedSandboxes), float64(agg.RejectedSandboxes))
	add("rejected-requests", float64(rep.RejectedRequests), float64(agg.RejectedRequests))
	add("total-cost", rep.TotalCost, agg.TotalCost)
	add("fees", rep.Fees, agg.Fees)
	add("billed-cpu-seconds", rep.BilledCPUSeconds, agg.BilledCPUSeconds)
	add("billed-mem-gbs", rep.BilledMemGBs, agg.BilledMemGBs)
	add("contention-delay-seconds", rep.ContentionDelaySeconds, agg.ContentionDelaySeconds)
	add("contention-slowdown-p99", rep.ContentionSlowdownP99, agg.ContentionSlowdownP99)
	add("idle-held-vcpu-seconds", rep.IdleHeldVCPUSeconds, agg.IdleHeldVCPUSeconds)
	add("mean-latency-ms", rep.Latency.Mean, agg.MeanLatencyMs)
	add("latency-p50-ms", rep.Latency.Median, agg.LatencyP50Ms)
	add("latency-p95-ms", rep.Latency.P95, agg.LatencyP95Ms)
	add("latency-p99-ms", rep.Latency.P99, agg.LatencyP99Ms)
	add("mean-host-utilization", rep.MeanHostUtilization, agg.MeanHostUtilization)
	add("min-host-utilization", rep.MinHostUtilization, agg.MinHostUtilization)
	add("max-host-utilization", rep.MaxHostUtilization, agg.MaxHostUtilization)
	add("cfs-check-linear", rep.CFSCheckLinear, agg.CFSCheckLinear)
	add("cfs-check-measured", rep.CFSCheckMeasured, agg.CFSCheckMeasured)
	add("evicted-sandboxes", float64(rep.EvictedSandboxes), float64(agg.EvictedSandboxes))
	add("killed-requests", float64(rep.KilledRequests), float64(agg.KilledRequests))
	add("deferred-requests", float64(rep.DeferredRequests), float64(agg.DeferredRequests))
	add("recovery-mean-ms", rep.Recovery.Mean, agg.RecoveryMeanMs)
	add("recovery-p50-ms", rep.Recovery.Median, agg.RecoveryP50Ms)
	add("recovery-p99-ms", rep.Recovery.P99, agg.RecoveryP99Ms)
	add("unavailable-host-seconds", rep.UnavailableHostSeconds, agg.UnavailableHostSeconds)
	add("fault-masked-pods", float64(rep.FaultMaskedPods), float64(agg.FaultMaskedPods))
	add("policy-functions", float64(rep.PolicyFunctions), float64(agg.PolicyFunctions))
	add("policy-decisions", float64(rep.PolicyDecisions), float64(agg.PolicyDecisions))
	add("policy-observations", float64(rep.PolicyObservations), float64(agg.PolicyObservations))
	add("adaptive-learned-decisions", float64(rep.AdaptiveLearnedDecisions), float64(agg.AdaptiveLearnedDecisions))
	add("bandit-explorations", float64(rep.BanditExplorations), float64(agg.BanditExplorations))
	add("bandit-exploitations", float64(rep.BanditExploitations), float64(agg.BanditExploitations))
	add("bandit-realized-cost", rep.BanditRealizedCost, agg.BanditRealizedCost)
	add("bandit-regret", rep.BanditRegret, agg.BanditRegret)
	add("makespan-seconds", rep.Makespan.Seconds(), agg.Makespan.Seconds())
	return res
}

// relDelta is |a-b| scaled by the larger magnitude (floored at 1 so
// zero-valued metrics compare absolutely).
func relDelta(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1 {
		den = 1
	}
	return math.Abs(a-b) / den
}

// Replay places the trace with the fleet's own sequential placement
// pass, then replays every host with the independent interpreter,
// cfg.Workers hosts at a time (zero means GOMAXPROCS), and folds the
// per-host results in host order (mirroring the fleet's merge
// discipline, so every float is summed in the same order whatever the
// worker count).
func Replay(cfg fleet.Config, tr *trace.Trace) (Aggregate, error) {
	return replay(context.Background(), cfg, tr)
}

// replay is Replay under a context: cancelling ctx stops every host's
// event loop within cancelCheckMask+1 events and returns ctx.Err().
func replay(ctx context.Context, cfg fleet.Config, tr *trace.Trace) (Aggregate, error) {
	// Stateful built-in policies (round-robin keeps a cursor) are
	// re-instantiated so this placement pass starts clean even when the
	// caller already ran fleet.Simulate with the same Config value. The
	// type check keeps a custom policy that merely shares a registry
	// name from being silently swapped out; custom stateful policies
	// must be passed in fresh.
	if cfg.Policy != nil {
		if p, err := fleet.NewPolicy(cfg.Policy.Name()); err == nil &&
			reflect.TypeOf(p) == reflect.TypeOf(cfg.Policy) {
			cfg.Policy = p
		}
	}
	pods, err := fleet.Place(cfg, tr)
	if err != nil {
		return Aggregate{}, err
	}
	perHost := make([][]fleet.PodAssignment, cfg.Hosts)
	var agg Aggregate
	for _, p := range pods {
		if p.Host < 0 {
			agg.RejectedSandboxes++
			agg.RejectedRequests += len(p.Requests)
			continue
		}
		perHost[p.Host] = append(perHost[p.Host], p)
	}

	// Fault-masked placement offers, recomputed independently: a pod is
	// masked when its first arrival falls inside any host's closed
	// window — a pure function of the plan and the trace, never of the
	// placement pass's internals.
	if plan := cfg.Faults; !plan.Empty() {
		for _, p := range pods {
			if len(p.Requests) == 0 {
				continue
			}
			first := tr.Requests[p.Requests[0]].Start
			for hi := 0; hi < cfg.Hosts; hi++ {
				if plan.UnavailableAt(hi, first) {
					agg.FaultMaskedPods++
					break
				}
			}
		}
	}

	hosts, err := replayHosts(ctx, cfg, perHost, tr)
	if err != nil {
		return Aggregate{}, err
	}
	busy := make([]float64, cfg.Hosts)
	lat := stats.NewLogHist(fleet.LatencyHistConfig())
	slow := stats.NewLogHist(fleet.SlowdownHistConfig())
	recov := stats.NewLogHist(fleet.RecoveryHistConfig())
	for hi := range hosts {
		h := &hosts[hi]
		busy[hi] = h.busyVCPUSecs
		if err := lat.Merge(h.lat); err != nil {
			return Aggregate{}, err
		}
		if err := slow.Merge(h.slow); err != nil {
			return Aggregate{}, err
		}
		if err := recov.Merge(h.recov); err != nil {
			return Aggregate{}, err
		}
		agg.EvictedSandboxes += h.evicted
		agg.KilledRequests += h.killed
		agg.DeferredRequests += h.deferredReqs
		agg.UnavailableHostSeconds += h.downSecs
		agg.Served += h.served
		agg.ColdStarts += h.cold
		agg.ReColdStarts += h.reCold
		agg.Sandboxes += h.sandboxes
		agg.ExpiredSandboxes += h.expired
		agg.TotalCost += h.cost
		agg.Fees += h.fees
		agg.BilledCPUSeconds += h.billedCPUSeconds
		agg.BilledMemGBs += h.billedMemGBs
		agg.ContentionDelaySeconds += h.contentionSecs
		agg.IdleHeldVCPUSeconds += h.idleHeldCPUSecs
		agg.PolicyFunctions += h.kaFunctions
		agg.PolicyDecisions += h.ka.Decisions
		agg.PolicyObservations += h.ka.Observations
		agg.AdaptiveLearnedDecisions += h.ka.Learned
		agg.BanditExplorations += h.ka.Explored
		agg.BanditExploitations += h.ka.Exploited
		agg.BanditRealizedCost += h.ka.RealizedCost
		agg.BanditRegret += h.ka.Regret
		if h.now > agg.Makespan {
			agg.Makespan = h.now
		}
		if h.probeLinear > agg.CFSCheckLinear {
			agg.CFSCheckLinear = h.probeLinear
			agg.CFSCheckMeasured = h.probeMeasured
		}
	}
	if agg.Served > 0 {
		// Latency and slowdown quantities read back from this replay's
		// own histograms; only the bucket layout (fleet.LatencyHistConfig
		// and fleet.SlowdownHistConfig) is shared, like the CFSProbe
		// arithmetic — the observations were accumulated by independently
		// rebuilt admission bookkeeping.
		sum := lat.Summary()
		agg.MeanLatencyMs = sum.Mean
		agg.LatencyP50Ms = sum.Median
		agg.LatencyP95Ms = sum.P95
		agg.LatencyP99Ms = sum.P99
		agg.ContentionSlowdownP99 = slow.Quantile(0.99)
	}
	if recov.N() > 0 {
		sum := recov.Summary()
		agg.RecoveryMeanMs = sum.Mean
		agg.RecoveryP50Ms = sum.Median
		agg.RecoveryP99Ms = sum.P99
	}
	if span := agg.Makespan.Seconds(); span > 0 {
		agg.MinHostUtilization = 1
		for _, b := range busy {
			u := b / (cfg.Host.VCPU * span)
			agg.MeanHostUtilization += u
			if u < agg.MinHostUtilization {
				agg.MinHostUtilization = u
			}
			if u > agg.MaxHostUtilization {
				agg.MaxHostUtilization = u
			}
		}
		agg.MeanHostUtilization /= float64(cfg.Hosts)
	}
	return agg, nil
}

// cancelCheckMask gates how often a host's event loop polls its
// context: every (mask+1) events, the bound internal/fleet's streaming
// loops keep too.
const cancelCheckMask = 0x3ff

// replayHosts runs replayHost for every host on cfg.Workers goroutines
// (zero means GOMAXPROCS), each taking the next unreplayed host. Hosts
// share only read-only inputs, so each host's state is the same
// whichever goroutine replayed it; the caller folds them in host order.
func replayHosts(ctx context.Context, cfg fleet.Config, perHost [][]fleet.PodAssignment, tr *trace.Trace) ([]hostState, error) {
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]hostState, cfg.Hosts)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, cfg.Hosts) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(1) - 1)
				if hi >= len(out) || ctx.Err() != nil {
					return
				}
				out[hi] = replayHost(ctx, cfg, hi, perHost[hi], tr)
			}
		}()
	}
	wg.Wait()
	// A cancelled replay leaves hosts unreplayed or cut short: no
	// aggregate is built from them.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// arrival is one request in a host's sorted arrival slice.
type arrival struct {
	at  time.Duration
	pod int32 // pod slot (index into the host's pod list)
	req int32 // trace request index
}

// Kinds of the pending events on a host's heap.
const (
	evComplete = iota
	evExpire
	evFault
)

// event is one pending runtime event on a host's heap. seq breaks
// same-instant ties FIFO, matching simtime.Clock's scheduling-order
// rule. Arrivals never enter the heap: they are walked from the host's
// sorted arrival slice and win every tie, as if all of them had been
// seeded before the sweep starts. Then come the fault plan's events,
// seeded in plan order, then the completions and expiries the sweep
// schedules — so at one instant arrivals fire first, then faults, then
// runtime events: the exact order the fleet replay produces.
type event struct {
	at    time.Duration
	seq   uint64
	pod   int32  // pod slot (index into the host's pod list)
	reqID int32  // in-flight id (evComplete)
	gen   uint32 // sandbox generation (evExpire); stale events are skipped
	kind  uint8
	fkind faults.Kind // fault effect (evFault)
}

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is a binary min-heap of pending events in (at, seq) order.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// sandboxState is one pod's live-sandbox bookkeeping.
type sandboxState struct {
	live       bool
	idle       bool
	activeReqs int
	gen        uint32 // bumped on every warm hit and reclaim to invalidate expiries
	// evictOnIdle marks a storm-flushed serving sandbox: it evicts as
	// soon as its last request finishes, without a keep-alive draw.
	evictOnIdle bool
}

// inflightTask mirrors the fleet's in-flight set entry for the peak-
// co-tenancy snapshot and for hard-down kills (pod resolves the
// sandbox whose activeReqs a kill decrements).
type inflightTask struct {
	id    int32
	pod   int32
	alloc float64
	cpu   time.Duration
}

// hostState is the independent interpreter's per-host accumulator.
type hostState struct {
	served    int
	cold      int
	reCold    int
	sandboxes int
	expired   int

	cost             float64
	fees             float64
	billedCPUSeconds float64
	billedMemGBs     float64

	lat             *stats.LogHist
	contentionSecs  float64
	slow            *stats.LogHist
	busyVCPUSecs    float64
	idleHeldCPUSecs float64

	now         time.Duration
	lastAccount time.Duration
	inFlight    float64
	idleHeldCPU float64
	idleCount   int

	inflight []inflightTask
	// pos maps an in-flight id (its index: ids count admissions) to the
	// request's index in inflight, or -1 once it completed or was
	// killed.
	pos        []int32
	peakDemand float64
	peakTasks  []inflightTask

	// Fault bookkeeping, mirroring the fleet host's state machine.
	drainDepth   int
	downDepth    int
	downSince    time.Duration
	deferred     []arrival
	evicted      int
	killed       int
	deferredReqs int
	downSecs     float64
	recov        *stats.LogHist

	probeLinear   float64
	probeMeasured float64

	// Keep-alive decision-layer tally, summed from this replay's own
	// decider instances in function-ID order (mirroring the fleet's
	// merge discipline). Zero in static mode.
	ka          keepalive.Stats
	kaFunctions int
}

// replayHost sweeps one host's pods chronologically and returns its
// tally. The keep-alive stream is stats.NewRand(fleet.ShardSeed(seed,
// host)) with windows drawn in event order — the fleet's documented
// shard-stream contract. In adaptive modes the replay constructs its
// own decider per function from keepalive.FunctionSeed and feeds it
// the identical observation/decision sequence, so every counter the
// fleet reports is re-derived by an independent instance of the same
// state machine. When ctx is cancelled the sweep stops early and the
// tally is partial; the caller discards it.
func replayHost(ctx context.Context, cfg fleet.Config, hostIdx int, pods []fleet.PodAssignment, tr *trace.Trace) hostState {
	var h hostState
	if len(pods) == 0 {
		return h
	}
	h.lat = stats.NewLogHist(fleet.LatencyHistConfig())
	h.slow = stats.NewLogHist(fleet.SlowdownHistConfig())
	h.recov = stats.NewLogHist(fleet.RecoveryHistConfig())
	rng := stats.NewRand(fleet.ShardSeed(cfg.Seed, hostIdx))
	ka := cfg.Profile.KeepAlive

	sandboxes := make([]sandboxState, len(pods))
	fnInstances := make(map[int]int)

	// Adaptive keep-alive modes: this replay's own per-function decider
	// instances, plus each pod's pending go-idle instant (-1 when there
	// is no gap to observe). Nil/static specs leave deciders nil and
	// the legacy draw path untouched.
	var deciders map[int]keepalive.Decider
	var idleFrom []time.Duration
	if cfg.KeepAlive != nil && cfg.KeepAlive.Mode != keepalive.ModeStatic {
		deciders = make(map[int]keepalive.Decider)
		idleFrom = make([]time.Duration, len(pods))
		for i := range idleFrom {
			idleFrom[i] = -1
		}
	}
	getDecider := func(fnID int) keepalive.Decider {
		d := deciders[fnID]
		if d == nil {
			var err error
			d, err = cfg.KeepAlive.NewDecider(ka, keepalive.FunctionSeed(*cfg.KeepAlive.Seed, hostIdx, fnID))
			if err != nil {
				// Unreachable: fleet.Place validated the config.
				panic(err)
			}
			deciders[fnID] = d
		}
		return d
	}

	n := 0
	for _, p := range pods {
		n += len(p.Requests)
	}
	arrivals := make([]arrival, 0, n)
	for pi, p := range pods {
		for _, ri := range p.Requests {
			arrivals = append(arrivals, arrival{at: tr.Requests[ri].Start, pod: int32(pi), req: int32(ri)})
		}
	}
	// Seeding the arrivals pod by pod, each pod's in trace order, would
	// number them in (pod, req) order: sorting on (at, pod, req) is the
	// (at, seq) order a heap holding them all would pop.
	slices.SortFunc(arrivals, func(a, b arrival) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.pod, b.pod); c != 0 {
			return c
		}
		return cmp.Compare(a.req, b.req)
	})
	h.pos = make([]int32, 0, n)

	// The fault plan seeds first (and only on hosts that serve — this
	// function early-returns above on an empty pod list, matching the
	// fleet's lazy sim creation): at one instant a fault beats any
	// runtime-scheduled completion or expiry.
	var q eventHeap
	var seq uint64
	for _, fe := range cfg.Faults.HostEvents(hostIdx) {
		q.push(event{at: fe.At, seq: seq, kind: evFault, fkind: fe.Kind})
		seq++
	}

	account := func(now time.Duration) {
		// Mirrors the fleet's convert-multiply (not Duration.Seconds):
		// the two interpreters must produce bit-identical integrals.
		if dt := float64(now-h.lastAccount) * 1e-9; dt > 0 {
			delivered := h.inFlight
			if delivered > cfg.Host.VCPU {
				delivered = cfg.Host.VCPU
			}
			h.busyVCPUSecs += delivered * dt
			h.idleHeldCPUSecs += h.idleHeldCPU * dt
		}
		h.lastAccount = now
	}

	// admit runs the admission path for one request at one instant —
	// shared by live arrivals and the deferred replays a recovery
	// triggers, exactly as the fleet's arrive() serves both.
	admit := func(now time.Duration, pi, ri int32) {
		p := &pods[pi]
		sb := &sandboxes[pi]
		r := &tr.Requests[ri]
		if deciders != nil && idleFrom[pi] >= 0 {
			// Mirror the fleet's observation point: the realized idle gap
			// is fed back at the pod's next admission, deferred replays
			// included.
			getDecider(p.FnID).ObserveIdle(now - idleFrom[pi])
			idleFrom[pi] = -1
		}
		cold := false
		var init time.Duration
		switch {
		case !sb.live:
			cold = true
			init = p.InitDuration
			if init <= 0 {
				init = ka.ResidualColdStart
			}
			if !r.ColdStart {
				h.reCold++
			}
			sb.live = true
			sb.idle = false
			sb.activeReqs = 0
			fnInstances[p.FnID]++
			h.sandboxes++
		case sb.idle:
			sb.idle = false
			sb.gen++ // cancels the pending expiry
			h.idleCount--
			if h.idleCount == 0 {
				h.idleHeldCPU = 0 // exact: no float residue once nothing is idle
			} else {
				h.idleHeldCPU -= ka.IdleCPU(p.VCPU)
			}
		}

		demand := h.inFlight + p.VCPU
		factor := 1.0
		if demand > cfg.Host.VCPU {
			factor = demand / cfg.Host.VCPU
		}
		effective := time.Duration(float64(r.Duration) * factor)
		h.contentionSecs += float64(effective-r.Duration) * 1e-9
		h.slow.Observe(factor)

		reqID := int32(len(h.pos))
		h.pos = append(h.pos, int32(len(h.inflight)))
		h.inflight = append(h.inflight, inflightTask{id: reqID, pod: pi, alloc: p.VCPU, cpu: r.CPUTime})
		if demand > h.peakDemand {
			h.peakDemand = demand
			snap := h.inflight
			if len(snap) > fleet.MaxProbeTasks {
				snap = snap[:fleet.MaxProbeTasks] // mirror the fleet's capped snapshot
			}
			h.peakTasks = append(h.peakTasks[:0], snap...)
		}

		h.inFlight += p.VCPU
		sb.activeReqs++
		h.served++
		if cold {
			h.cold++
		}
		latency := cfg.Profile.ServingOverhead + init + effective
		h.lat.Observe(float64(latency) * 1e-6)

		billed := *r
		billed.Duration = effective
		billed.ColdStart = cold
		billed.InitDuration = 0
		if cold {
			billed.InitDuration = init
		}
		ch := cfg.Profile.Billing.Bill(billing.MapRequest(cfg.Profile.Billing, billed))
		h.cost += ch.Total()
		h.fees += ch.Fee
		h.billedCPUSeconds += ch.CPUSeconds
		h.billedMemGBs += ch.MemGBSeconds

		q.push(event{at: now + init + effective, seq: seq, kind: evComplete, pod: pi, reqID: reqID})
		seq++
	}

	// evictIdle mirrors the fleet's bulk idle eviction: integer-only
	// loop, then the idle holdings clamp to exactly zero.
	evictIdle := func() {
		for pi := range sandboxes {
			sb := &sandboxes[pi]
			if !sb.live || !sb.idle {
				continue
			}
			sb.live = false
			sb.idle = false
			sb.gen++ // the pending expiry never fires
			fnInstances[pods[pi].FnID]--
			h.evicted++
		}
		h.idleHeldCPU = 0
		h.idleCount = 0
	}

	// replayDeferred re-admits queued arrivals FIFO once the host
	// accepts again, recording each one's recovery delay.
	replayDeferred := func(now time.Duration) {
		if h.drainDepth != 0 || h.downDepth != 0 {
			return
		}
		for _, d := range h.deferred {
			h.recov.Observe(float64(now-d.at) * 1e-6) // ms
			admit(now, d.pod, d.req)
		}
		h.deferred = h.deferred[:0]
	}

	next := 0 // the first arrival not yet walked
	for polls := 0; next < len(arrivals) || len(q) > 0; polls++ {
		if polls&cancelCheckMask == 0 && ctx.Err() != nil {
			return h
		}
		if next < len(arrivals) && (len(q) == 0 || arrivals[next].at <= q[0].at) {
			// The arrival wins a tie with the heap top: every arrival
			// precedes every fault and runtime event in seq order.
			a := arrivals[next]
			next++
			h.now = a.at
			account(a.at)
			if h.drainDepth != 0 || h.downDepth != 0 {
				h.deferred = append(h.deferred, a)
				h.deferredReqs++
				continue
			}
			admit(a.at, a.pod, a.req)
			continue
		}

		ev := q.pop()
		p := &pods[ev.pod]
		sb := &sandboxes[ev.pod]
		switch ev.kind {
		case evExpire:
			if !sb.live || !sb.idle || sb.gen != ev.gen {
				continue // lazily-cancelled timer: never fires, no accounting
			}
			h.now = ev.at
			account(ev.at)
			sb.live = false
			sb.idle = false
			sb.gen++
			h.idleCount--
			if h.idleCount == 0 {
				h.idleHeldCPU = 0 // exact: no float residue once nothing is idle
			} else {
				h.idleHeldCPU -= ka.IdleCPU(p.VCPU)
			}
			fnInstances[p.FnID]--
			h.expired++

		case evComplete:
			pos := h.pos[ev.reqID]
			if pos < 0 {
				continue // killed by a hard-down: the fleet cancelled this timer
			}
			h.now = ev.at
			account(ev.at)
			h.inFlight -= p.VCPU
			sb.activeReqs--
			last := len(h.inflight) - 1
			h.inflight[pos] = h.inflight[last]
			h.pos[h.inflight[pos].id] = pos
			h.inflight = h.inflight[:last]
			h.pos[ev.reqID] = -1
			if sb.activeReqs > 0 {
				continue
			}
			if h.drainDepth != 0 || sb.evictOnIdle {
				// Draining host or storm-flushed sandbox: evict on the
				// spot, drawing no keep-alive window (the skipped draw
				// keeps this stream aligned with the fleet's).
				sb.live = false
				sb.gen++
				sb.evictOnIdle = false
				fnInstances[p.FnID]--
				h.evicted++
				continue
			}
			sb.idle = true
			h.idleCount++
			h.idleHeldCPU += ka.IdleCPU(p.VCPU)
			var window time.Duration
			if deciders == nil {
				window = ka.Window(rng, fnInstances[p.FnID])
			} else {
				window = getDecider(p.FnID).Window(rng, fnInstances[p.FnID])
				idleFrom[ev.pod] = ev.at
			}
			q.push(event{at: ev.at + window, seq: seq, kind: evExpire, pod: ev.pod, gen: sb.gen})
			seq++

		case evFault:
			h.now = ev.at
			account(ev.at)
			switch ev.fkind {
			case faults.DrainStart:
				h.drainDepth++
				evictIdle()
			case faults.DrainEnd:
				h.drainDepth--
				replayDeferred(ev.at)
			case faults.Down:
				if h.downDepth == 0 {
					h.downSince = ev.at
				}
				h.downDepth++
				for _, t := range h.inflight {
					sandboxes[t.pod].activeReqs--
					h.pos[t.id] = -1
					h.killed++
				}
				h.inflight = h.inflight[:0]
				h.inFlight = 0 // exact: nothing executes on a dead host
				for pi := range sandboxes {
					s := &sandboxes[pi]
					if !s.live {
						continue
					}
					s.live = false
					s.idle = false
					s.gen++
					s.evictOnIdle = false
					fnInstances[pods[pi].FnID]--
					h.evicted++
				}
				h.idleHeldCPU = 0
				h.idleCount = 0
			case faults.Up:
				h.downDepth--
				if h.downDepth == 0 {
					h.downSecs += float64(ev.at-h.downSince) * 1e-9
				}
				replayDeferred(ev.at)
			case faults.Flush:
				evictIdle()
				for pi := range sandboxes {
					if s := &sandboxes[pi]; s.live {
						s.evictOnIdle = true
					}
				}
			}
		}
	}
	account(h.now)
	if len(deciders) > 0 {
		// Sum decider telemetry in function-ID order, mirroring the
		// fleet host's merge so the float fields compare exactly.
		ids := make([]int, 0, len(deciders))
		for id := range deciders {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			h.ka.Add(deciders[id].Stats())
		}
		h.kaFunctions = len(ids)
	}
	// The peak-co-tenancy snapshot was rebuilt by this replay's own
	// admission bookkeeping; the probe arithmetic on top of it is the
	// fleet's exported CFSProbe (the snapshot is the verified artifact).
	tasks := make([]fleet.ProbeTask, len(h.peakTasks))
	for i, q := range h.peakTasks {
		tasks[i] = fleet.ProbeTask{Alloc: q.alloc, CPU: q.cpu}
	}
	h.probeLinear, h.probeMeasured = fleet.CFSProbe(
		cfg.Profile.SchedPeriod, cfg.Profile.SchedTickHz,
		cfg.Host.VCPU, h.peakDemand, tasks)
	return h
}
