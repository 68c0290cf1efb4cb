package scenario

import (
	"math"
	"time"

	"slscost/internal/stats"
	"slscost/internal/trace"
)

// This file is the streaming face of the scenario engine: the same
// shape-modulated renewal re-timing Trace applies to a materialized
// base trace, applied lazily to per-function generator streams and
// merged by arrival time. Memory is O(tenants × functions) instead of
// O(requests), and the emitted sequence is bit-identical to Trace's —
// the fleet simulator's streamed and materialized paths must agree to
// the byte, so the re-timer draws the exact per-function random
// streams retime does.

// intensityFloor bounds how far a dead zone of a shape can stretch
// inter-arrival gaps (10^4×), so traces terminate even under shapes
// that are zero almost everywhere.
const intensityFloor = 1e-4

// renewal is one function's shape-modulated renewal clock: the gap to
// each request scales inversely with the shape's local intensity, and
// the request's execution then advances the clock. The in-place
// re-timer, the streaming re-timer and the pod scan all step it.
type renewal struct {
	shape   Shape
	mean    float64 // shape's mean intensity (normalizer)
	rng     *stats.Rand
	h       float64 // horizon seconds
	gapMean float64 // base mean gap: horizon / function request count
	t       float64 // clock, seconds
}

// newRenewal starts the clock of function fn (unshifted, as its
// generator numbers it), which has n requests, on the tenant's shape
// seed.
func newRenewal(shape Shape, mean float64, seed uint64, fn, n int, h float64) renewal {
	return renewal{
		shape:   shape,
		mean:    mean,
		rng:     stats.NewRand(mix(seed, uint64(fn)+1)),
		h:       h,
		gapMean: h / float64(n),
	}
}

// arrive returns the arrival of the function's next request, which runs
// for dur, and advances the clock past its execution.
func (c *renewal) arrive(dur time.Duration) time.Duration {
	x := c.t / c.h
	x -= math.Floor(x)
	lam := c.shape.Rate(x) / c.mean
	if lam < intensityFloor || math.IsNaN(lam) {
		lam = intensityFloor
	}
	c.t += c.rng.Exp(c.gapMean / lam)
	start := time.Duration(c.t * float64(time.Second))
	c.t += dur.Seconds()
	return start
}

// retimeStream lazily re-times one function's generator stream on its
// renewal clock, applying the tenant's function- and pod-ID offsets on
// the way out. Arrival times are strictly increasing, so the stream
// satisfies the trace.Stream ordering contract and can be merged with
// its siblings.
type retimeStream struct {
	src      *trace.FunctionStream
	clock    renewal
	fnShift  int
	podShift int
}

func (rs *retimeStream) Next() (trace.Request, bool) {
	var r trace.Request
	ok := rs.NextInto(&r)
	return r, ok
}

// NextInto is the trace.IntoStream fast path the merge pulls through.
func (rs *retimeStream) NextInto(r *trace.Request) bool {
	if !rs.src.NextInto(r) {
		return false
	}
	r.Start = rs.clock.arrive(r.Duration)
	r.FnID += rs.fnShift
	r.PodID += rs.podShift
	return true
}

// streamPlan is one tenant's reusable streaming state: its allocation,
// its generator calibration, and its shape's mean intensity. Building
// it once lets a Source re-open the scenario stream without re-running
// the calibration sweep or re-sampling the shape.
type streamPlan struct {
	pl      tenantAlloc
	cal     *trace.Calibration
	mean    float64
	podBase int
}

// streamPlans resolves and calibrates every tenant of the scenario.
func (s Scenario) streamPlans(cfg Config) ([]streamPlan, error) {
	if err := s.Validate(cfg); err != nil {
		return nil, err
	}
	plans, err := s.plan(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]streamPlan, len(plans))
	podBase := 0
	for i, pl := range plans {
		out[i] = streamPlan{pl: pl, cal: trace.Calibrate(pl.gcfg), mean: shapeMean(pl.shape), podBase: podBase}
		podBase += out[i].cal.Pods()
	}
	return out, nil
}

// clock starts the tenant's renewal clock for function fn, which has n
// requests.
func (sp *streamPlan) clock(fn, n int, h float64) renewal {
	return newRenewal(sp.pl.shape, sp.mean, sp.pl.shapeSeed, fn, n, h)
}

// openStream instantiates one fresh stream over calibrated plans. The
// stream is a trace.PodScanner, so the cluster simulator's placement
// pass synthesizes no request and builds no merge.
func openStream(plans []streamPlan, horizon time.Duration) trace.Stream {
	h := horizon.Seconds()
	return trace.WithPodScan(
		func() trace.Stream { return mergePlans(plans, h) },
		func() []trace.PodMeta { return scanPods(plans, h) })
}

// mergePlans merges every tenant's re-timed function streams.
func mergePlans(plans []streamPlan, h float64) trace.Stream {
	var srcs []trace.Stream
	for i := range plans {
		sp := &plans[i]
		for _, f := range sp.cal.Streams() {
			if f.Len() == 0 {
				continue // a function with no requests re-times to nothing
			}
			srcs = append(srcs, &retimeStream{
				src:      f,
				clock:    sp.clock(f.FnID(), f.Len(), h),
				fnShift:  sp.pl.fnBase,
				podShift: sp.podBase,
			})
		}
	}
	return trace.Merge(srcs...)
}

// scanPods lists the pods of the plans' stream: every tenant's
// functions walk their timing draws alone, through the same renewal
// clocks the stream's re-timers run, and the tenant's ID offsets apply
// as they do on the way out of a retimeStream.
func scanPods(plans []streamPlan, h float64) []trace.PodMeta {
	pods := 0
	for _, sp := range plans {
		pods += sp.cal.Pods()
	}
	metas := make([]trace.PodMeta, 0, pods)
	for i := range plans {
		sp := &plans[i]
		from := len(metas)
		metas = sp.cal.AppendPodMetas(metas, func(fn, n int) trace.Clock {
			c := sp.clock(fn, n, h)
			return c.arrive
		})
		for j := from; j < len(metas); j++ {
			metas[j].ID += sp.podBase
			metas[j].FnID += sp.pl.fnBase
		}
	}
	return metas
}

// Stream synthesizes the scenario's trace as a time-ordered request
// stream without materializing it: per tenant, per function, a lazy
// generator stream is wrapped in the renewal re-timer, and all streams
// merge by arrival. The emitted sequence is identical to Trace(cfg)'s,
// ties included (the merge's tenant-major, function-minor tie order is
// the order Trace's stable sorts leave simultaneous arrivals in), with
// memory bounded by tenants × functions instead of the request count.
func (s Scenario) Stream(cfg Config) (trace.Stream, error) {
	plans, err := s.streamPlans(cfg)
	if err != nil {
		return nil, err
	}
	return openStream(plans, cfg.horizon()), nil
}

// Source returns a trace.Source over the scenario — the form
// fleet.SimulateStream consumes, which opens its input once for the
// placement scan and once for the replay. Tenant resolution, the
// generator calibration sweeps, and shape-mean sampling run once, up
// front; an open pays only for lazy emission, or for the timing-only
// pod scan when the placement pass asks for one. Validation errors
// surface on open.
func (s Scenario) Source(cfg Config) trace.Source {
	plans, err := s.streamPlans(cfg)
	horizon := cfg.horizon()
	return func() (trace.Stream, error) {
		if err != nil {
			return nil, err
		}
		return openStream(plans, horizon), nil
	}
}

// Plan is a compiled scenario: tenant resolution, the per-tenant
// generator calibration sweeps, and shape-mean sampling, all run once
// at Compile time and never again. A Plan is immutable and safe for
// concurrent use — every Source opening clones the calibration's RNG
// snapshots, so openings are independent and identical — which is what
// lets the slscostd daemon share one compiled plan across jobs and the
// optimizer share one across every candidate of a sweep. The streams a
// Plan emits are bit-identical to Scenario.Stream's for the same
// Config.
type Plan struct {
	name    string
	plans   []streamPlan
	horizon time.Duration
}

// Compile resolves and calibrates the scenario under cfg. The returned
// plan amortizes the expensive planning work (the calibration sweep
// replays every generator block once); each subsequent Source opening
// pays only for lazy emission.
func (s Scenario) Compile(cfg Config) (*Plan, error) {
	plans, err := s.streamPlans(cfg)
	if err != nil {
		return nil, err
	}
	return &Plan{name: s.Name, plans: plans, horizon: cfg.horizon()}, nil
}

// Name returns the compiled scenario's name.
func (p *Plan) Name() string { return p.name }

// Source returns a re-openable stream over the compiled plan. Every
// opening yields the identical sequence Scenario.Source would emit for
// the Config the plan was compiled under.
func (p *Plan) Source() trace.Source {
	return func() (trace.Stream, error) {
		return openStream(p.plans, p.horizon), nil
	}
}
