// Package diffsim is the differential verification harness for the
// cluster simulator: it replays a fleet configuration's placement with
// an independent per-host interpreter built directly on the keep-alive,
// billing, and cfs models, and cross-checks the aggregate report
// internal/fleet produces against it.
//
// internal/fleet simulates each host as callbacks on a simtime.Clock
// with cancellable timers, sharded across a worker pool. This package
// re-derives the same quantities from the same inputs with a different
// mechanism — one explicit chronological sweep per host, which takes
// the host's arrivals in stream order, the order the fleet feeds them,
// and keeps only pending events (faults, completions, expiries) on a
// typed heap, with lazy (generation-counted) expiry invalidation and
// sequential accounting — so a bookkeeping bug in either
// implementation surfaces as a disagreement. The oracle streams: it
// places from the source's pods with the fleet's placement pass, then
// pulls the source once more and hands each arrival to its host's
// interpreter on one of fleet.Config.Workers goroutines, so it holds
// the pods and the live events, never the trace. Hosts are
// independent, and their tallies fold in host order. The per-host
// random stream contract (fleet.ShardSeed, keep-alive windows drawn in
// event order) is shared and every float is summed in the fleet's
// order, so agreement is exact: every relative delta is 0. The pod
// metadata placement reads is re-derived from the requests as they
// pass, so a pod scan that disagrees with its stream fails
// verification too. VerifyStream's context cancels the oracle's replay
// as well as the streamed simulation.
//
// Combined with internal/scenario, every workload scenario doubles as a
// verification oracle: the ext-scenarios experiment and the fleetsim
// -verify flag run this harness across the catalog.
package diffsim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
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
// report comes from fleet.SimulateStream, and the independent replay
// streams the same source again, host by host. This cross-checks the
// entire streamed path — lazy generation, re-timing, the placement
// scan, and the incremental host clocks — against an implementation
// that shares none of that machinery, at any trace size: the oracle,
// like the fleet, holds the pods and the live events, not the
// requests. A source whose streams list their pods is opened three
// times, twice by the fleet and once by the oracle.
//
// Cancelling ctx stops the whole call promptly: the streamed
// simulation within fleet.SimulateStream's bound, the oracle within
// cancelCheckMask+1 pulls of its feed and as many events of each host
// it is replaying. A cancelled call returns ctx.Err() and a nil
// Result, and so does a call whose oracle failed, a panic in a host's
// replay included; no goroutine of the call outlives it.
func VerifyStream(ctx context.Context, cfg fleet.Config, src trace.Source, tol float64) (*Result, fleet.Report, error) {
	rep, err := fleet.SimulateStream(ctx, cfg, src)
	if err != nil {
		return nil, rep, err
	}
	agg, err := replay(ctx, cfg, src)
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

// Replay places the trace with the fleet's own placement pass, then
// replays every host with the independent interpreter, cfg.Workers
// hosts at a time (zero means GOMAXPROCS), and folds the per-host
// results in host order (mirroring the fleet's merge discipline, so
// every float is summed in the same order whatever the worker count).
// It is the streaming oracle over trace.SourceOf(tr).
func Replay(cfg fleet.Config, tr *trace.Trace) (Aggregate, error) {
	return replay(context.Background(), cfg, trace.SourceOf(tr))
}

// replay is the oracle, in two passes over src. Pass 1 is the fleet's
// placement pass (fleet.Place), which also hands back an unread
// opening of src. Pass 2 pulls that opening once: the calling
// goroutine feeds each arrival to the worker goroutine that owns its
// host, and re-derives every pod's metadata from the requests as they
// pass, so the scan placement read is checked too. Cancelling ctx
// stops both passes, the feeder within cancelCheckMask+1 pulls and
// each host within as many events, and returns ctx.Err().
func replay(ctx context.Context, cfg fleet.Config, src trace.Source) (Aggregate, error) {
	pods, s, err := fleet.Place(ctx, cfg, src)
	if err != nil {
		return Aggregate{}, err
	}
	o := newOracle(ctx, &cfg, pods)
	if err := o.run(s); err != nil {
		return Aggregate{}, err
	}
	return o.fold()
}

const (
	// cancelCheckMask gates how often the feeder and each host's event
	// loop poll the context: every (mask+1) requests or events, the
	// bound internal/fleet's streaming loops keep too.
	cancelCheckMask = 0x3ff
	// batchSize is how many arrivals travel to a worker per channel
	// send, and queueDepth how many batches each worker's channel
	// holds: like the fleet's hand-off, they cap the feeder's lead at a
	// few hundred kilobytes per worker, whatever the trace size.
	batchSize  = 128
	queueDepth = 4
)

// item is one routed arrival: its host, its pod's slot on the host,
// and a copy of the request, which the host may hold as a deferred
// arrival (there is no trace to index).
type item struct {
	host, pod int32
	r         trace.Request
}

// batchPool recycles drained hand-off batches across calls. A batch
// holds requests and slots, no pointers, so a pooled batch pins
// nothing of the call that filled it.
var batchPool = sync.Pool{New: func() any { return new([batchSize]item) }}

// podState is what the feeder knows of one placed pod: where its
// requests go (host -1 when placement rejected the pod) and what it
// has seen of them, for holding them to the pod's scanned metadata.
type podState struct {
	host, slot int32 // the pod's host and its slot among the host's pods
	n          int   // requests seen
	last       time.Duration
}

// hostStartHook, when set, runs as a worker starts replaying a host,
// and workerExitHook as each worker goroutine returns, before the call
// can see it gone: test seams for failing one host and for checking
// that no worker outlives the call.
var (
	hostStartHook  func(host int)
	workerExitHook func()
)

// oracle is one replay's pass-2 state. pods and hostPods are read-only
// once built, and every host reads its pods through them. The feeder,
// on the calling goroutine, owns state, firsts and rejected; worker w
// owns every host h with h mod len(in) = w, and host h's slot in hosts
// is written only by its owner. The caller reads hosts after the
// workers return.
type oracle struct {
	ctx   context.Context
	cfg   *fleet.Config
	tf    billing.Tariff
	pods  []fleet.PodAssignment // the placement, in first-arrival order
	state []podState            // by pod slot in pods
	slots map[int]int32         // pod ID to its slot in pods
	// firsts counts the pods whose first request the feeder has seen:
	// the slot the next pod to arrive must have.
	firsts   int
	rejected int // requests of rejected pods

	hostPods [][]int32 // each host's pods as slots in pods, by slot on the host
	hosts    []*host   // nil until the host's first arrival

	in []chan []item
	wg sync.WaitGroup
	// stop tells the feeder and the workers that the call failed: the
	// feeder stops pulling, the workers drop what is queued and finish
	// no host. err is the first failure.
	stop atomic.Bool
	mu   sync.Mutex
	err  error
}

// newOracle indexes the placed pods by ID and routes them: each
// rejected pod to no host, each placed one to the next slot on its host.
func newOracle(ctx context.Context, cfg *fleet.Config, pods []fleet.PodAssignment) *oracle {
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	o := &oracle{
		ctx:      ctx,
		cfg:      cfg,
		tf:       billing.Compile(cfg.Profile.Billing),
		pods:     pods,
		state:    make([]podState, len(pods)),
		slots:    make(map[int]int32, len(pods)),
		hostPods: make([][]int32, cfg.Hosts),
		hosts:    make([]*host, cfg.Hosts),
		in:       make([]chan []item, min(workers, cfg.Hosts)),
	}
	// The hosts' pod lists are cut from one array, in host order.
	start := make([]int, cfg.Hosts+1)
	for _, p := range pods {
		if p.Host >= 0 {
			start[p.Host+1]++
		}
	}
	for h := range cfg.Hosts {
		start[h+1] += start[h]
	}
	byHost := make([]int32, start[cfg.Hosts])
	for h := range o.hostPods {
		o.hostPods[h] = byHost[start[h]:start[h]:start[h+1]]
	}
	for i, p := range pods {
		o.slots[p.ID] = int32(i)
		if p.Host < 0 {
			o.state[i].host = -1
			continue
		}
		o.state[i].host, o.state[i].slot = int32(p.Host), int32(len(o.hostPods[p.Host]))
		o.hostPods[p.Host] = append(o.hostPods[p.Host], int32(i))
	}
	return o
}

// fail records err as the call's failure unless one came first, and
// stops the feeder and the workers.
func (o *oracle) fail(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
	o.stop.Store(true)
}

// run is pass 2: it starts the workers, feeds them s, and returns once
// every worker has returned, with the call's first failure. A panic in
// the feed stops the workers and waits for them before it unwinds.
func (o *oracle) run(s trace.Stream) (err error) {
	o.wg.Add(len(o.in))
	for w := range o.in {
		o.in[w] = make(chan []item, queueDepth)
		go o.work(w)
	}
	fed := false
	defer func() {
		if !fed {
			o.stop.Store(true)
		}
		for _, ch := range o.in {
			close(ch)
		}
		o.wg.Wait()
		err = o.err
	}()
	if err := o.feed(s); err != nil {
		o.fail(err)
	}
	fed = true
	return nil
}

// feed pulls s once, holds each request to its pod's metadata, and
// batches it to the worker that owns the pod's host. It returns nil
// early when a worker has failed, leaving the failure to run.
func (o *oracle) feed(s trace.Stream) error {
	batches := make([][]item, len(o.in))
	next := trace.NextIntoFunc(s)
	var r trace.Request
	var prev time.Duration
	seen := 0
	for next(&r) {
		if seen&cancelCheckMask == 0 {
			if err := o.ctx.Err(); err != nil {
				return err
			}
			if o.stop.Load() {
				return nil
			}
		}
		if seen > 0 && r.Start < prev {
			return fmt.Errorf("diffsim: stream not sorted by arrival (request %d at %v after %v)", seen, r.Start, prev)
		}
		prev = r.Start
		seen++
		i, ok := o.slots[r.PodID]
		if !ok {
			return fmt.Errorf("diffsim: request %d names pod %d, which the pod scan does not list", seen-1, r.PodID)
		}
		ps := &o.state[i]
		if err := o.check(int(i), ps, &r); err != nil {
			return err
		}
		if ps.host < 0 {
			o.rejected++
			continue
		}
		w := int(ps.host) % len(o.in)
		b := batches[w]
		if b == nil {
			b = batchPool.Get().(*[batchSize]item)[:0]
		}
		n := len(b)
		b = b[:n+1]
		b[n] = item{host: ps.host, pod: ps.slot, r: r}
		if n+1 == batchSize {
			o.in[w] <- b
			b = nil
		}
		batches[w] = b
	}
	for w, b := range batches {
		if len(b) > 0 {
			o.in[w] <- b
		}
	}
	for i := range o.state {
		ps, p := &o.state[i], &o.pods[i]
		if ps.n != p.NReqs {
			return podMismatch(p.ID, "request count", ps.n, p.NReqs)
		}
		if ps.last != p.Last {
			return podMismatch(p.ID, "last end", ps.last, p.Last)
		}
	}
	return nil
}

// check holds r, a request of the pod at slot i, to the pod's scanned
// metadata, re-deriving it as a per-request scan would: pods first
// arrive in slot order, a pod's first request carries its function,
// first arrival and init, and every request its flavor. feed checks
// each pod's request count and last end once the stream ends.
func (o *oracle) check(i int, ps *podState, r *trace.Request) error {
	p := &o.pods[i]
	if ps.n == 0 {
		switch {
		case i != o.firsts:
			return podMismatch(p.ID, "first-arrival rank", o.firsts, i)
		case r.FnID != p.FnID:
			return podMismatch(p.ID, "function", r.FnID, p.FnID)
		case r.Start != p.First:
			return podMismatch(p.ID, "first arrival", r.Start, p.First)
		case r.InitDuration != p.Init:
			return podMismatch(p.ID, "init", r.InitDuration, p.Init)
		}
		o.firsts++
	}
	if r.AllocCPU != p.VCPU || r.AllocMemMB != p.MemMB {
		return podMismatch(p.ID, "flavor", fmt.Sprintf("%gx%gMB", r.AllocCPU, r.AllocMemMB), fmt.Sprintf("%gx%gMB", p.VCPU, p.MemMB))
	}
	if end := r.Start + r.Turnaround(); ps.n == 0 || end > ps.last {
		ps.last = end
	}
	ps.n++
	return nil
}

// podMismatch is the error for a pod whose requests disagree with the
// pod scan placement read.
func podMismatch(id int, what string, stream, scan any) error {
	return fmt.Errorf("diffsim: pod %d disagrees with the pod scan: %s %v in the stream, %v in the scan", id, what, stream, scan)
}

// work is worker w's goroutine: it feeds each arrival of its batches
// to its host, starting the host on its first, and once the feeder
// closes its channel, finishes its hosts. A failure, its own or
// another's, leaves the rest of its batches unread; a panic becomes
// the call's error, naming the host and carrying the stack.
func (o *oracle) work(w int) {
	defer o.wg.Done()
	if workerExitHook != nil {
		defer workerExitHook()
	}
	cur := -1 // the host being replayed
	defer func() {
		if p := recover(); p != nil {
			o.fail(fmt.Errorf("diffsim: replay of host %d panicked: %v\n%s", cur, p, debug.Stack()))
			for b := range o.in[w] { // drain, so the feeder never blocks on this worker
				batchPool.Put((*[batchSize]item)(b[:batchSize]))
			}
		}
	}()
	for b := range o.in[w] {
		for i := range b {
			if o.stop.Load() {
				break
			}
			it := &b[i]
			cur = int(it.host)
			h := o.hosts[cur]
			if h == nil {
				if hostStartHook != nil {
					hostStartHook(cur)
				}
				h = newHost(o.ctx, o.cfg, &o.tf, cur, o.pods, o.hostPods[cur])
				o.hosts[cur] = h
			}
			if err := h.arrive(it.pod, &it.r); err != nil {
				o.fail(err)
			}
		}
		batchPool.Put((*[batchSize]item)(b[:batchSize]))
	}
	for cur = w; cur < len(o.hosts) && !o.stop.Load(); cur += len(o.in) {
		if h := o.hosts[cur]; h != nil {
			if err := h.finish(); err != nil {
				o.fail(err)
			}
		}
	}
}

// fold sums the replayed hosts in host order into the aggregate.
func (o *oracle) fold() (Aggregate, error) {
	cfg := o.cfg
	agg := Aggregate{RejectedRequests: o.rejected}
	for _, p := range o.pods {
		if p.Host < 0 {
			agg.RejectedSandboxes++
		}
	}
	// Fault-masked placement offers, recomputed independently: a pod is
	// masked when its first arrival falls inside any host's closed
	// window — a pure function of the plan and the pods' first
	// arrivals, which the feeder held to the stream, never of the
	// placement pass's internals.
	if plan := cfg.Faults; !plan.Empty() {
		for _, p := range o.pods {
			for hi := 0; hi < cfg.Hosts; hi++ {
				if plan.UnavailableAt(hi, p.First) {
					agg.FaultMaskedPods++
					break
				}
			}
		}
	}

	busy := make([]float64, cfg.Hosts)
	lat := stats.NewLogHist(fleet.LatencyHistConfig())
	slow := stats.NewLogHist(fleet.SlowdownHistConfig())
	recov := stats.NewLogHist(fleet.RecoveryHistConfig())
	for hi, h := range o.hosts {
		if h == nil {
			continue // served nothing: every tally is zero
		}
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
		agg.PolicyDecisions += h.kaStats.Decisions
		agg.PolicyObservations += h.kaStats.Observations
		agg.AdaptiveLearnedDecisions += h.kaStats.Learned
		agg.BanditExplorations += h.kaStats.Explored
		agg.BanditExploitations += h.kaStats.Exploited
		agg.BanditRealizedCost += h.kaStats.RealizedCost
		agg.BanditRegret += h.kaStats.Regret
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

// Kinds of the pending events on a host's heap.
const (
	evComplete = iota
	evExpire
	evFault
)

// event is one pending runtime event on a host's heap. seq breaks
// same-instant ties FIFO, matching simtime.Clock's scheduling-order
// rule. Arrivals never enter the heap: each one retires only the
// events strictly before it, so it wins every tie, as if all of them
// had been seeded, in stream order, before the sweep starts. Then come
// the fault plan's events, seeded in plan order, then the completions
// and expiries the sweep schedules — so at one instant arrivals fire
// first, then faults, then runtime events: the exact order the fleet
// replay produces.
type event struct {
	at  time.Duration
	seq uint64
	pod int32 // pod slot (index into the host's pod list)
	id  int32 // in-flight id (evComplete)
	// gen is the sandbox's generation (evExpire) or the in-flight id's
	// (evComplete) when the event was scheduled; events whose
	// generation has moved on are skipped.
	gen   uint32
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
	q[0] = q[n]
	q = q[:n]
	if n > 0 {
		q.down(0)
	}
	*h = q
	return top
}

// down sifts q[i] down to its place below i.
func (q eventHeap) down(i int) {
	e := q[i]
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// heapify restores the heap order of q in linear time.
func (q eventHeap) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
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

// flight is an in-flight id's entry: the request's index in the
// host's in-flight list while it runs, and the id's generation, which
// moves on when the request completes or is killed, so the id can be
// reused at once and the completion event of a killed request is
// skipped.
type flight struct {
	pos int32
	gen uint32
}

// deferredReq is an arrival a closed host queued: its pod slot and a
// copy of the request.
type deferredReq struct {
	pod int32
	r   trace.Request
}

// host is the independent interpreter of one host: fed the host's
// arrivals in stream order (arrive) and then closed (finish), it keeps
// the host's pending events on its own heap and its tallies. The
// keep-alive stream is stats.NewRand(fleet.ShardSeed(seed, host)) with
// windows drawn in event order — the fleet's documented shard-stream
// contract. In adaptive modes the replay constructs its own decider
// per function from keepalive.FunctionSeed and feeds it the identical
// observation/decision sequence, so every counter the fleet reports is
// re-derived by an independent instance of the same state machine.
// Requests are billed through tf, cfg's compiled tariff, at each
// request's own recorded flavor. After an error the tally is partial
// and the host must not be fed again.
type host struct {
	ctx  context.Context
	cfg  *fleet.Config
	tf   *billing.Tariff
	ka   keepalive.Policy
	idx  int
	all  []fleet.PodAssignment // every placed pod, by slot
	pods []int32               // this host's pods as slots in all, by slot on the host
	rng  *stats.Rand

	boxes       []sandboxState // by pod slot
	fnInstances map[int]int
	// Adaptive keep-alive modes: this replay's own per-function decider
	// instances, plus each pod's pending go-idle instant (-1 when there
	// is no gap to observe). Static mode leaves deciders nil and the
	// legacy draw path untouched.
	deciders map[int]keepalive.Decider
	idleFrom []time.Duration

	q   eventHeap
	seq uint64
	// compactAt is the heap length at which schedule drops the heap's
	// cancelled events.
	compactAt int
	polls     int

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

	inflight   []inflightTask
	flights    []flight // by in-flight id
	freeIDs    []int32  // in-flight ids free for reuse
	peakDemand float64
	peakTasks  []inflightTask

	// Fault bookkeeping, mirroring the fleet host's state machine.
	drainDepth   int
	downDepth    int
	downSince    time.Duration
	deferred     []deferredReq
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
	kaStats     keepalive.Stats
	kaFunctions int
}

// newHost builds host idx's interpreter over its pods, which are
// slots in all, and seeds the fault plan's events for it. Hosts are
// built on their first arrival only, matching the fleet's lazy host
// creation, so at one instant a fault beats any runtime-scheduled
// completion or expiry, and a host that serves nothing seeds nothing.
func newHost(ctx context.Context, cfg *fleet.Config, tf *billing.Tariff, idx int, all []fleet.PodAssignment, pods []int32) *host {
	h := &host{
		ctx:         ctx,
		cfg:         cfg,
		tf:          tf,
		ka:          cfg.Profile.KeepAlive,
		idx:         idx,
		all:         all,
		pods:        pods,
		rng:         stats.NewRand(fleet.ShardSeed(cfg.Seed, idx)),
		boxes:       make([]sandboxState, len(pods)),
		fnInstances: make(map[int]int),
		compactAt:   minCompact,
		lat:         stats.NewLogHist(fleet.LatencyHistConfig()),
		slow:        stats.NewLogHist(fleet.SlowdownHistConfig()),
		recov:       stats.NewLogHist(fleet.RecoveryHistConfig()),
	}
	if cfg.KeepAlive != nil && cfg.KeepAlive.Mode != keepalive.ModeStatic {
		h.deciders = make(map[int]keepalive.Decider)
		h.idleFrom = make([]time.Duration, len(pods))
		for i := range h.idleFrom {
			h.idleFrom[i] = -1
		}
	}
	for _, fe := range cfg.Faults.HostEvents(idx) {
		h.schedule(event{at: fe.At, kind: evFault, fkind: fe.Kind})
	}
	return h
}

// minCompact is the least heap length at which a host compacts its
// heap.
const minCompact = 256

// schedule pushes e with the next sequence number. Cancelled events
// stay on the heap until they come due (a warm hit cancels an expiry
// by moving its sandbox's generation on), so once the heap reaches
// compactAt it first drops them: the heap stays within a constant
// factor of the host's peak live events, however many events it has
// scheduled, at an amortized constant cost per push.
func (h *host) schedule(e event) {
	if len(h.q) >= h.compactAt {
		q := h.q[:0]
		for i := range h.q {
			if h.pending(&h.q[i]) {
				q = append(q, h.q[i])
			}
		}
		clear(h.q[len(q):])
		q.heapify()
		h.q = q
		h.compactAt = max(2*len(q), minCompact)
	}
	e.seq = h.seq
	h.seq++
	h.q.push(e)
}

// pending reports whether e is still to fire: a fault always, a
// completion while its in-flight id keeps the generation it was
// scheduled in, an expiry while its sandbox idles in the generation
// that scheduled it. retire skips the others unapplied, so dropping
// them from the heap changes nothing.
func (h *host) pending(e *event) bool {
	switch e.kind {
	case evComplete:
		return h.flights[e.id].gen == e.gen
	case evExpire:
		sb := &h.boxes[e.pod]
		return sb.live && sb.idle && sb.gen == e.gen
	}
	return true
}

// poll counts one event and, every cancelCheckMask+1 events, returns
// the context's error.
func (h *host) poll() error {
	n := h.polls
	h.polls++
	if n&cancelCheckMask == 0 {
		return h.ctx.Err()
	}
	return nil
}

// decider returns the host's decider for function fnID, building it on
// first use.
func (h *host) decider(fnID int) (keepalive.Decider, error) {
	d := h.deciders[fnID]
	if d == nil {
		var err error
		d, err = h.cfg.KeepAlive.NewDecider(h.ka, keepalive.FunctionSeed(*h.cfg.KeepAlive.Seed, h.idx, fnID))
		if err != nil {
			return nil, fmt.Errorf("diffsim: host %d, function %d: %w", h.idx, fnID, err)
		}
		h.deciders[fnID] = d
	}
	return d, nil
}

// account integrates delivered and idle-held capacity up to now.
func (h *host) account(now time.Duration) {
	// Mirrors the fleet's convert-multiply (not Duration.Seconds): the
	// two interpreters must produce bit-identical integrals.
	if dt := float64(now-h.lastAccount) * 1e-9; dt > 0 {
		delivered := h.inFlight
		if delivered > h.cfg.Host.VCPU {
			delivered = h.cfg.Host.VCPU
		}
		h.busyVCPUSecs += delivered * dt
		h.idleHeldCPUSecs += h.idleHeldCPU * dt
	}
	h.lastAccount = now
}

// arrive hands the host its next arrival, r, whose pod is at slot pi
// on the host. It first retires every pending event strictly before
// the arrival — the arrival wins a tie, as in the fleet, where a host
// runs only strictly earlier events before admitting — then admits r,
// or defers it while the host takes no work.
func (h *host) arrive(pi int32, r *trace.Request) error {
	for len(h.q) > 0 && h.q[0].at < r.Start {
		if err := h.retire(); err != nil {
			return err
		}
	}
	if err := h.poll(); err != nil {
		return err
	}
	h.now = r.Start
	h.account(r.Start)
	if h.drainDepth != 0 || h.downDepth != 0 {
		h.deferred = append(h.deferred, deferredReq{pod: pi, r: *r})
		h.deferredReqs++
		return nil
	}
	return h.admit(r.Start, pi, r)
}

// admit runs the admission path for one request at one instant —
// shared by live arrivals and the deferred replays a recovery
// triggers, exactly as the fleet's arrive() serves both.
func (h *host) admit(now time.Duration, pi int32, r *trace.Request) error {
	p := &h.all[h.pods[pi]]
	sb := &h.boxes[pi]
	if h.deciders != nil && h.idleFrom[pi] >= 0 {
		// Mirror the fleet's observation point: the realized idle gap
		// is fed back at the pod's next admission, deferred replays
		// included.
		d, err := h.decider(p.FnID)
		if err != nil {
			return err
		}
		d.ObserveIdle(now - h.idleFrom[pi])
		h.idleFrom[pi] = -1
	}
	cold := false
	var init time.Duration
	switch {
	case !sb.live:
		cold = true
		init = p.Init
		if init <= 0 {
			init = h.ka.ResidualColdStart
		}
		if !r.ColdStart {
			h.reCold++
		}
		sb.live = true
		sb.idle = false
		sb.activeReqs = 0
		h.fnInstances[p.FnID]++
		h.sandboxes++
	case sb.idle:
		sb.idle = false
		sb.gen++ // cancels the pending expiry
		h.idleCount--
		if h.idleCount == 0 {
			h.idleHeldCPU = 0 // exact: no float residue once nothing is idle
		} else {
			h.idleHeldCPU -= h.ka.IdleCPU(p.VCPU)
		}
	}

	demand := h.inFlight + p.VCPU
	factor := 1.0
	if demand > h.cfg.Host.VCPU {
		factor = demand / h.cfg.Host.VCPU
	}
	effective := time.Duration(float64(r.Duration) * factor)
	h.contentionSecs += float64(effective-r.Duration) * 1e-9
	h.slow.Observe(factor)

	var id int32
	if n := len(h.freeIDs); n > 0 {
		id = h.freeIDs[n-1]
		h.freeIDs = h.freeIDs[:n-1]
	} else {
		id = int32(len(h.flights))
		h.flights = append(h.flights, flight{})
	}
	f := &h.flights[id]
	f.pos = int32(len(h.inflight))
	h.inflight = append(h.inflight, inflightTask{id: id, pod: pi, alloc: p.VCPU, cpu: r.CPUTime})
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
	latency := h.cfg.Profile.ServingOverhead + init + effective
	h.lat.Observe(float64(latency) * 1e-6)

	u := billing.Usage{Duration: effective, CPUTime: r.CPUTime, MemUsedGB: r.MemUsedMB / 1024}
	if cold {
		u.InitDuration = init
	}
	fl := h.tf.Flavor(r.AllocCPU, r.AllocMemMB)
	var ch billing.Charge
	h.tf.Charge(&fl, u, &ch)
	h.cost += ch.Total()
	h.fees += ch.Fee
	h.billedCPUSeconds += ch.CPUSeconds
	h.billedMemGBs += ch.MemGBSeconds

	h.schedule(event{at: now + init + effective, kind: evComplete, pod: pi, id: id, gen: f.gen})
	return nil
}

// release retires in-flight id: its generation moves on, which voids
// its pending completion event if it still has one, and the id is
// free for reuse.
func (h *host) release(id int32) {
	h.flights[id].gen++
	h.freeIDs = append(h.freeIDs, id)
}

// evictIdle mirrors the fleet's bulk idle eviction: integer-only loop,
// then the idle holdings clamp to exactly zero.
func (h *host) evictIdle() {
	for pi := range h.boxes {
		sb := &h.boxes[pi]
		if !sb.live || !sb.idle {
			continue
		}
		sb.live = false
		sb.idle = false
		sb.gen++ // the pending expiry never fires
		h.fnInstances[h.all[h.pods[pi]].FnID]--
		h.evicted++
	}
	h.idleHeldCPU = 0
	h.idleCount = 0
}

// replayDeferred re-admits queued arrivals FIFO once the host accepts
// again, recording each one's recovery delay.
func (h *host) replayDeferred(now time.Duration) error {
	if h.drainDepth != 0 || h.downDepth != 0 {
		return nil
	}
	for i := range h.deferred {
		d := &h.deferred[i]
		h.recov.Observe(float64(now-d.r.Start) * 1e-6) // ms
		if err := h.admit(now, d.pod, &d.r); err != nil {
			return err
		}
	}
	h.deferred = h.deferred[:0]
	return nil
}

// retire pops the earliest pending event and applies it.
func (h *host) retire() error {
	if err := h.poll(); err != nil {
		return err
	}
	ev := h.q.pop()
	if !h.pending(&ev) {
		// A lazily cancelled expiry, or the completion of a request a
		// hard-down killed (the fleet cancelled that timer): it never
		// fires and accounts nothing.
		return nil
	}
	switch ev.kind {
	case evExpire:
		p := &h.all[h.pods[ev.pod]]
		sb := &h.boxes[ev.pod]
		h.now = ev.at
		h.account(ev.at)
		sb.live = false
		sb.idle = false
		sb.gen++
		h.idleCount--
		if h.idleCount == 0 {
			h.idleHeldCPU = 0 // exact: no float residue once nothing is idle
		} else {
			h.idleHeldCPU -= h.ka.IdleCPU(p.VCPU)
		}
		h.fnInstances[p.FnID]--
		h.expired++

	case evComplete:
		f := &h.flights[ev.id]
		p := &h.all[h.pods[ev.pod]]
		sb := &h.boxes[ev.pod]
		h.now = ev.at
		h.account(ev.at)
		h.inFlight -= p.VCPU
		sb.activeReqs--
		pos, last := f.pos, len(h.inflight)-1
		h.inflight[pos] = h.inflight[last]
		h.flights[h.inflight[pos].id].pos = pos
		h.inflight = h.inflight[:last]
		h.release(ev.id)
		if sb.activeReqs > 0 {
			return nil
		}
		if h.drainDepth != 0 || sb.evictOnIdle {
			// Draining host or storm-flushed sandbox: evict on the
			// spot, drawing no keep-alive window (the skipped draw
			// keeps this stream aligned with the fleet's).
			sb.live = false
			sb.gen++
			sb.evictOnIdle = false
			h.fnInstances[p.FnID]--
			h.evicted++
			return nil
		}
		sb.idle = true
		h.idleCount++
		h.idleHeldCPU += h.ka.IdleCPU(p.VCPU)
		var window time.Duration
		if h.deciders == nil {
			window = h.ka.Window(h.rng, h.fnInstances[p.FnID])
		} else {
			d, err := h.decider(p.FnID)
			if err != nil {
				return err
			}
			window = d.Window(h.fnInstances[p.FnID])
			h.idleFrom[ev.pod] = ev.at
		}
		h.schedule(event{at: ev.at + window, kind: evExpire, pod: ev.pod, gen: sb.gen})

	case evFault:
		h.now = ev.at
		h.account(ev.at)
		switch ev.fkind {
		case faults.DrainStart:
			h.drainDepth++
			h.evictIdle()
		case faults.DrainEnd:
			h.drainDepth--
			return h.replayDeferred(ev.at)
		case faults.Down:
			if h.downDepth == 0 {
				h.downSince = ev.at
			}
			h.downDepth++
			for _, t := range h.inflight {
				h.boxes[t.pod].activeReqs--
				h.release(t.id)
				h.killed++
			}
			h.inflight = h.inflight[:0]
			h.inFlight = 0 // exact: nothing executes on a dead host
			for pi := range h.boxes {
				s := &h.boxes[pi]
				if !s.live {
					continue
				}
				s.live = false
				s.idle = false
				s.gen++
				s.evictOnIdle = false
				h.fnInstances[h.all[h.pods[pi]].FnID]--
				h.evicted++
			}
			h.idleHeldCPU = 0
			h.idleCount = 0
		case faults.Up:
			h.downDepth--
			if h.downDepth == 0 {
				h.downSecs += float64(ev.at-h.downSince) * 1e-9
			}
			return h.replayDeferred(ev.at)
		case faults.Flush:
			h.evictIdle()
			for pi := range h.boxes {
				if s := &h.boxes[pi]; s.live {
					s.evictOnIdle = true
				}
			}
		}
	}
	return nil
}

// finish retires the host's remaining events and closes its accounts:
// the decider telemetry, summed in function-ID order, and the CFS
// probe of its peak co-tenancy.
func (h *host) finish() error {
	for len(h.q) > 0 {
		if err := h.retire(); err != nil {
			return err
		}
	}
	h.account(h.now)
	if len(h.deciders) > 0 {
		// Sum decider telemetry in function-ID order, mirroring the
		// fleet host's merge so the float fields compare exactly.
		ids := make([]int, 0, len(h.deciders))
		for id := range h.deciders {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			h.kaStats.Add(h.deciders[id].Stats())
		}
		h.kaFunctions = len(ids)
	}
	// The peak-co-tenancy snapshot was rebuilt by this replay's own
	// admission bookkeeping; the probe arithmetic on top of it is the
	// fleet's exported CFSProbe (the snapshot is the verified artifact).
	tasks := make([]fleet.ProbeTask, len(h.peakTasks))
	for i, t := range h.peakTasks {
		tasks[i] = fleet.ProbeTask{Alloc: t.alloc, CPU: t.cpu}
	}
	h.probeLinear, h.probeMeasured = fleet.CFSProbe(
		h.cfg.Profile.SchedPeriod, h.cfg.Profile.SchedTickHz,
		h.cfg.Host.VCPU, h.peakDemand, tasks)
	return nil
}
