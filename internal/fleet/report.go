package fleet

import (
	"errors"
	"fmt"
	"io"
	"time"

	"slscost/internal/stats"
)

// ErrEmptyTrace is returned by Simulate and SimulateStream when the
// input contains no requests. It is a distinct sentinel — not the
// misleading "no requests served (all 0 sandboxes rejected)" that a
// zero-request trace used to fall into — so callers can treat an empty
// workload as a clean no-op rather than a rejection storm.
var ErrEmptyTrace = errors.New("fleet: empty trace")

// Report is the cluster-wide outcome of one simulation: the cost the
// platform would bill (§2), the latency the users would see (§3), and
// the capacity the operator burned (§4), aggregated over every host.
type Report struct {
	// Platform and Policy identify the configuration.
	Platform string
	Policy   string
	// Scenario names the workload scenario the trace was synthesized
	// from. The simulator leaves it empty; a caller that replays a
	// scenario's source sets it.
	Scenario string
	Hosts    int
	// Workers is the worker-pool size that ran the simulation. It never
	// affects any other field.
	Workers int
	Seed    uint64

	// Requests is the trace size; Served excludes rejected sandboxes.
	Requests int
	Served   int
	// RejectedSandboxes/RejectedRequests count pods no host had capacity
	// for at placement time (and their requests).
	RejectedSandboxes int
	RejectedRequests  int

	// ColdStarts counts served requests that initialized a sandbox;
	// ReColdStarts is the subset the recording platform served warm but
	// this cluster's keep-alive policy had already reclaimed.
	ColdStarts   int
	ReColdStarts int
	// Sandboxes and ExpiredSandboxes count sandbox creations and
	// keep-alive reclaims across the cluster.
	Sandboxes        int
	ExpiredSandboxes int

	// TotalCost is the cluster bill in dollars; Fees the invocation-fee
	// share of it. BilledCPUSeconds/BilledMemGBs are the billable
	// resource totals (Equation 1).
	TotalCost        float64
	Fees             float64
	BilledCPUSeconds float64
	BilledMemGBs     float64

	// Latency summarizes per-request latency in milliseconds: serving
	// overhead + initialization (cold) + contention-stretched execution.
	// It is read from per-host fixed logarithmic histograms
	// (LatencyHistConfig) merged in host order: N, Mean, Min, and Max
	// are exact, the percentiles carry ~2.2% bucket resolution, and
	// every field is identical in merge order and worker count — the
	// accounting that keeps SimulateStream's memory independent of the
	// trace length.
	Latency stats.Summary
	// ContentionDelaySeconds is wall-clock added by CPU over-subscription,
	// summed over requests — latency that wall-clock billing charges for.
	ContentionDelaySeconds float64
	// ContentionSlowdownP99 is the 99th-percentile per-request contention
	// stretch factor (effective wall clock over nominal duration; 1 means
	// the tail request ran uncontended). Read from a fixed logarithmic
	// histogram with ~2% resolution, so it is exact in merge order and
	// worker count. internal/opt minimizes it as the latency-tail
	// objective of a policy sweep.
	ContentionSlowdownP99 float64
	// CFSCheckMeasured/CFSCheckLinear cross-check the linear contention
	// model against internal/cfs.SimulateHost at the cluster's worst
	// co-tenancy instant: the event-driven host's measured mean slowdown
	// versus the linear demand/capacity prediction. Zero when no host
	// was ever oversubscribed.
	CFSCheckMeasured float64
	CFSCheckLinear   float64

	// Fault accounting (all zero for a healthy cluster, so no-fault
	// reports are byte-identical to pre-fault ones). EvictedSandboxes
	// counts sandboxes torn down by fault events — drains, crashes,
	// storm flushes — as distinct from keep-alive reclaims
	// (ExpiredSandboxes). KilledRequests were cancelled mid-flight by a
	// hard-down; they stay billed and in the latency histogram
	// (admission-time accounting). DeferredRequests arrived at an
	// unavailable host and replayed at its recovery; Recovery
	// summarizes their queueing delay in milliseconds
	// (RecoveryHistConfig, merge-exact like the latency histogram).
	// UnavailableHostSeconds is host-seconds spent hard-down, summed
	// over serving hosts; FaultMaskedPods counts placement offers made
	// with at least one host masked out by the fault plan.
	EvictedSandboxes       int
	KilledRequests         int
	DeferredRequests       int
	Recovery               stats.Summary
	UnavailableHostSeconds float64
	FaultMaskedPods        int

	// Keep-alive policy attribution (the decision layer's cost section;
	// everything here is zero in static mode, so static reports stay
	// byte-identical to the pre-decider layout). KeepAliveMode names
	// the decider family ("static" when no spec was given).
	// PolicyFunctions counts (host, function) deciders built;
	// PolicyDecisions counts keep-alive windows chosen and
	// PolicyObservations idle gaps fed back. AdaptiveLearnedDecisions
	// is the subset of adaptive decisions made from a trustworthy
	// histogram; BanditExplorations/BanditExploitations split the
	// bandit's pulls; BanditRealizedCost is the realized cost (idle
	// vCPU-seconds plus cold penalties) of its chosen arms and
	// BanditRegret the cumulative excess over the best arm in
	// hindsight.
	KeepAliveMode            string
	PolicyFunctions          int
	PolicyDecisions          int
	PolicyObservations       int
	AdaptiveLearnedDecisions int
	BanditExplorations       int
	BanditExploitations      int
	BanditRealizedCost       float64
	BanditRegret             float64

	// Elastic reports whether the host pool was autoscaled;
	// MeanActiveHosts/PeakActiveHosts describe the pool the placer saw
	// (equal to Hosts for a fixed fleet).
	Elastic         bool
	MeanActiveHosts float64
	PeakActiveHosts int

	// MeanHostUtilization (with min/max spread) is busy vCPU-seconds over
	// capacity × cluster makespan, per host.
	MeanHostUtilization float64
	MinHostUtilization  float64
	MaxHostUtilization  float64
	// IdleHeldVCPUSeconds is capacity held by idle keep-alive sandboxes
	// (Table 2's resource-retention behaviors, fleet-wide).
	IdleHeldVCPUSeconds float64
	// Makespan is the virtual time at which the last host went quiet.
	Makespan time.Duration
}

// ColdStartRate is cold starts over served requests.
func (r Report) ColdStartRate() float64 {
	if r.Served == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Served)
}

// CostPerMillion normalizes the bill to dollars per million served
// requests, the unit production cost dashboards use.
func (r Report) CostPerMillion() float64 {
	if r.Served == 0 {
		return 0
	}
	return r.TotalCost / float64(r.Served) * 1e6
}

// Availability is the fraction of host-time the cluster was not
// hard-down: 1 − UnavailableHostSeconds / (Hosts × Makespan). A
// cluster that never ran (zero makespan) is vacuously available.
func (r Report) Availability() float64 {
	span := r.Makespan.Seconds()
	if span <= 0 || r.Hosts <= 0 {
		return 1
	}
	a := 1 - r.UnavailableHostSeconds/(float64(r.Hosts)*span)
	if a < 0 {
		return 0
	}
	return a
}

// AvailabilityWeightedCostPerMillion is the bill per million served
// requests divided by availability: the effective price of served
// capacity once unavailable host-time is charged against it. Equal to
// CostPerMillion for a healthy cluster.
func (r Report) AvailabilityWeightedCostPerMillion() float64 {
	a := r.Availability()
	if a <= 0 {
		return 0
	}
	return r.CostPerMillion() / a
}

// mergeReport folds per-host results, strictly in host-index order so
// floating-point sums are identical regardless of worker scheduling.
func mergeReport(cfg Config, workers, requests int, ps placeStats, rejectedReqs int, results []hostResult) (Report, error) {
	rep := Report{
		Platform:          cfg.Profile.Name,
		Policy:            cfg.Policy.Name(),
		Hosts:             cfg.Hosts,
		Workers:           workers,
		Seed:              cfg.Seed,
		Requests:          requests,
		RejectedSandboxes: ps.rejected,
		RejectedRequests:  rejectedReqs,
		FaultMaskedPods:   ps.maskedPods,
		Elastic:           cfg.Elastic,
		MeanActiveHosts:   ps.meanActive,
		PeakActiveHosts:   ps.peakActive,
		KeepAliveMode:     "static",
	}
	if cfg.KeepAlive != nil {
		rep.KeepAliveMode = string(cfg.KeepAlive.Mode)
	}
	lat := stats.NewLogHist(LatencyHistConfig())
	slow := stats.NewLogHist(SlowdownHistConfig())
	recov := stats.NewLogHist(RecoveryHistConfig())
	for _, hr := range results {
		// Hosts that never received a pod carry zero results with nil
		// histograms; Merge treats nil as empty.
		if err := lat.Merge(hr.latHist); err != nil {
			return rep, err
		}
		if err := slow.Merge(hr.slowHist); err != nil {
			return rep, err
		}
		if err := recov.Merge(hr.recovHist); err != nil {
			return rep, err
		}
		rep.EvictedSandboxes += hr.evicted
		rep.KilledRequests += hr.killed
		rep.DeferredRequests += hr.deferredReqs
		rep.UnavailableHostSeconds += hr.downSecs
		rep.Served += hr.served
		rep.ColdStarts += hr.cold
		rep.ReColdStarts += hr.reCold
		rep.Sandboxes += hr.sandboxes
		rep.ExpiredSandboxes += hr.expired
		rep.TotalCost += hr.cost
		rep.Fees += hr.fees
		rep.BilledCPUSeconds += hr.billedCPUSeconds
		rep.BilledMemGBs += hr.billedMemGBs
		rep.ContentionDelaySeconds += hr.contentionSecs
		rep.IdleHeldVCPUSeconds += hr.idleHeldCPUSecs
		rep.PolicyFunctions += hr.kaFunctions
		rep.PolicyDecisions += hr.ka.Decisions
		rep.PolicyObservations += hr.ka.Observations
		rep.AdaptiveLearnedDecisions += hr.ka.Learned
		rep.BanditExplorations += hr.ka.Explored
		rep.BanditExploitations += hr.ka.Exploited
		rep.BanditRealizedCost += hr.ka.RealizedCost
		rep.BanditRegret += hr.ka.Regret
		if hr.probeLinear > rep.CFSCheckLinear {
			rep.CFSCheckLinear = hr.probeLinear
			rep.CFSCheckMeasured = hr.probeMeasured
		}
		if hr.makespan > rep.Makespan {
			rep.Makespan = hr.makespan
		}
	}
	if requests == 0 {
		// Simulate and SimulateStream reject empty traces before the
		// hosts ever run; this guard keeps a zero-request merge from
		// masquerading as an all-rejected cluster.
		return rep, ErrEmptyTrace
	}
	if rep.Served == 0 {
		return rep, fmt.Errorf("fleet: no requests served (all %d sandboxes rejected)", ps.rejected)
	}
	rep.ContentionSlowdownP99 = slow.Quantile(0.99)
	rep.Latency = lat.Summary()
	rep.Recovery = recov.Summary()

	span := rep.Makespan.Seconds()
	if span > 0 {
		rep.MinHostUtilization = 1
		for _, hr := range results {
			u := hr.busyVCPUSecs / (cfg.Host.VCPU * span)
			rep.MeanHostUtilization += u
			if u < rep.MinHostUtilization {
				rep.MinHostUtilization = u
			}
			if u > rep.MaxHostUtilization {
				rep.MaxHostUtilization = u
			}
		}
		rep.MeanHostUtilization /= float64(cfg.Hosts)
	}
	return rep, nil
}

// WriteText renders the report for terminals (cmd/fleetsim and the
// examples use this layout).
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d hosts, policy %s, platform %s (seed %d, %d workers)\n",
		r.Hosts, r.Policy, r.Platform, r.Seed, r.Workers)
	if r.Scenario != "" {
		fmt.Fprintf(w, "  scenario: %s\n", r.Scenario)
	}
	fmt.Fprintf(w, "  requests: %d served / %d total", r.Served, r.Requests)
	if r.RejectedRequests > 0 {
		fmt.Fprintf(w, " (%d rejected in %d sandboxes)", r.RejectedRequests, r.RejectedSandboxes)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  sandboxes: %d created, %d reclaimed by keep-alive\n", r.Sandboxes, r.ExpiredSandboxes)
	fmt.Fprintf(w, "  cold starts: %.2f%% of served (%d, of which %d keep-alive induced)\n",
		r.ColdStartRate()*100, r.ColdStarts, r.ReColdStarts)
	fmt.Fprintf(w, "  cost: $%.4f total ($%.2f per 1M requests; fees %.1f%%)\n",
		r.TotalCost, r.CostPerMillion(), safePct(r.Fees, r.TotalCost))
	fmt.Fprintf(w, "  billable: %.0f vCPU-s, %.0f GB-s\n", r.BilledCPUSeconds, r.BilledMemGBs)
	fmt.Fprintf(w, "  latency ms: mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		r.Latency.Mean, r.Latency.Median, r.Latency.P95, r.Latency.P99, r.Latency.Max)
	fmt.Fprintf(w, "  contention: %.1f s of added wall-clock across the trace (p99 slowdown x%.2f)\n",
		r.ContentionDelaySeconds, r.ContentionSlowdownP99)
	if r.CFSCheckLinear > 0 {
		fmt.Fprintf(w, "  cfs cross-check at peak co-tenancy: measured x%.2f vs linear model x%.2f\n",
			r.CFSCheckMeasured, r.CFSCheckLinear)
	}
	if r.Elastic {
		fmt.Fprintf(w, "  autoscaled host pool: mean %.1f active, peak %d of %d\n",
			r.MeanActiveHosts, r.PeakActiveHosts, r.Hosts)
	}
	// The keep-alive policy section only prints for the adaptive modes,
	// so static-mode reports stay byte-identical to the pre-decider
	// layout (and a static spec to no spec at all).
	if r.KeepAliveMode != "" && r.KeepAliveMode != "static" {
		fmt.Fprintf(w, "  keep-alive %s: %d deciders, %d decisions from %d observations\n",
			r.KeepAliveMode, r.PolicyFunctions, r.PolicyDecisions, r.PolicyObservations)
		if r.KeepAliveMode == "adaptive" {
			fmt.Fprintf(w, "  adaptive: %.1f%% of decisions from a learned histogram\n",
				safePct(float64(r.AdaptiveLearnedDecisions), float64(r.PolicyDecisions)))
		}
		if r.KeepAliveMode == "bandit" {
			fmt.Fprintf(w, "  bandit: %d explored / %d exploited; realized cost %.1f idle-vCPU-s, regret %.1f\n",
				r.BanditExplorations, r.BanditExploitations, r.BanditRealizedCost, r.BanditRegret)
		}
	}
	// The fault section only prints when faults actually touched the
	// run, so healthy-cluster reports stay byte-identical to the
	// pre-fault layout (and to a zero-rate fault axis).
	if r.EvictedSandboxes+r.KilledRequests+r.DeferredRequests+r.FaultMaskedPods > 0 ||
		r.UnavailableHostSeconds > 0 {
		fmt.Fprintf(w, "  faults: %d sandboxes evicted, %d requests killed, %d deferred, %d placements masked\n",
			r.EvictedSandboxes, r.KilledRequests, r.DeferredRequests, r.FaultMaskedPods)
		fmt.Fprintf(w, "  availability: %.4f%% (%.0f unavailable host-s; $%.2f per 1M availability-weighted)\n",
			r.Availability()*100, r.UnavailableHostSeconds, r.AvailabilityWeightedCostPerMillion())
		if r.Recovery.N > 0 {
			fmt.Fprintf(w, "  recovery ms: mean=%.3f p50=%.3f p99=%.3f max=%.3f over %d deferred\n",
				r.Recovery.Mean, r.Recovery.Median, r.Recovery.P99, r.Recovery.Max, r.Recovery.N)
		}
	}
	fmt.Fprintf(w, "  host vCPU utilization: mean %.2f%% (min %.2f%%, max %.2f%%); idle-held %.0f vCPU-s\n",
		r.MeanHostUtilization*100, r.MinHostUtilization*100, r.MaxHostUtilization*100,
		r.IdleHeldVCPUSeconds)
	fmt.Fprintf(w, "  makespan: %v of virtual time\n", r.Makespan.Round(time.Millisecond))
}

// safePct returns num/den as a percentage, 0 when den is 0.
func safePct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den * 100
}
