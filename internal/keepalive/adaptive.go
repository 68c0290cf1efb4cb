package keepalive

import (
	"fmt"
	"time"
)

// This file implements the windowed-histogram adaptive TTL decider —
// the paper's §3.3 Azure pre-warming ("Azure pre-warms the function if
// the platform detects cold starts occurring at regular intervals
// (i.e., through idle time histograms)"), following the hybrid policy
// of the "Serverless in the Wild" line of work the paper cites.
//
// The decider tracks a per-function histogram of idle times (gaps
// between the end of one invocation and the arrival of the next). Once
// it has seen enough samples it keeps the sandbox through the tail of
// the learned distribution — the 99th percentile plus headroom —
// instead of the platform's fixed window, so regular traffic whose
// period exceeds any static keep-alive window becomes warm, and bursty
// traffic with short gaps stops holding capacity it never uses. The
// histogram is windowed: once maxSamples accumulate, every bin halves,
// so old behavior decays geometrically and the plan tracks
// non-stationary traffic (diurnal shifts, flash crowds) instead of
// averaging over the whole trace.

// Adaptive is the windowed-histogram TTL decider. It subsumes the old
// standalone PredictiveWarmer: the histogram, quantile plan, and
// trustworthiness gates are the same machinery, now driving live
// keep-alive decisions through the Decider interface instead of
// sitting in a parallel API.
type Adaptive struct {
	// binWidth is the histogram resolution.
	binWidth time.Duration
	// bins counts idle times per binWidth bucket; the last bin absorbs
	// the out-of-range tail.
	bins  []int
	total int
	// minSamples gates predictions until the histogram is trustworthy.
	minSamples int
	// maxSamples is the windowing cap: when total reaches it, every bin
	// halves, so the histogram tracks recent traffic geometrically.
	maxSamples int
	// headroom widens the planned window on both sides.
	headroom float64
	// fallback is the static window used before enough data arrives.
	fallback time.Duration

	st Stats
}

// NewAdaptive creates an adaptive decider with the given histogram
// range and resolution. Idle times beyond maxIdle land in the overflow
// bin, which disables adaptation for that tail (matching the hybrid
// policy's fallback to static keep-alive). fallback is the window used
// before the histogram is trustworthy.
func NewAdaptive(maxIdle, binWidth, fallback time.Duration) (*Adaptive, error) {
	if binWidth <= 0 || maxIdle < binWidth {
		return nil, fmt.Errorf("keepalive: bad histogram shape (max %v, bin %v)", maxIdle, binWidth)
	}
	if fallback < 0 {
		return nil, fmt.Errorf("keepalive: negative fallback window")
	}
	n := int(maxIdle/binWidth) + 1 // +1 overflow bin
	return &Adaptive{
		binWidth:   binWidth,
		bins:       make([]int, n),
		minSamples: 8,
		maxSamples: 4096,
		headroom:   0.10,
		fallback:   fallback,
	}, nil
}

// Name identifies the decider family.
func (a *Adaptive) Name() string { return "adaptive" }

// ObserveIdle records one idle gap, halving the histogram when the
// windowing cap is reached.
func (a *Adaptive) ObserveIdle(gap time.Duration) {
	a.st.Observations++
	if gap < 0 {
		return
	}
	i := int(gap / a.binWidth)
	if i >= len(a.bins) {
		i = len(a.bins) - 1
	}
	a.bins[i]++
	a.total++
	if a.total >= a.maxSamples {
		a.total = 0
		for j, c := range a.bins {
			a.bins[j] = c / 2
			a.total += a.bins[j]
		}
	}
}

// Samples returns the number of observations currently represented in
// the (windowed) histogram.
func (a *Adaptive) Samples() int { return a.total }

// Window returns the learned keep-alive bound once the histogram is
// trustworthy, and the fallback window before that. Adaptive decisions
// are a pure function of the observation stream, which is what the
// resume metamorphic test and the differential oracle both rely on.
func (a *Adaptive) Window(_ int) time.Duration {
	a.st.Decisions++
	_, keepAlive, learned := a.plan()
	if learned {
		a.st.Learned++
	}
	return keepAlive
}

// Stats returns the decider's cumulative telemetry.
func (a *Adaptive) Stats() Stats { return a.st }

// plan computes the pre-warm and keep-alive bounds and whether they
// came from a trustworthy histogram. Before minSamples (or when the
// overflow bin dominates) it returns (0, fallback, false): plain
// static keep-alive.
func (a *Adaptive) plan() (preWarm, keepAlive time.Duration, learned bool) {
	if a.total < a.minSamples {
		return 0, a.fallback, false
	}
	// Overflow-dominated distributions are unpredictable.
	if float64(a.bins[len(a.bins)-1]) > 0.5*float64(a.total) {
		return 0, a.fallback, false
	}
	// 5th and 99th percentiles of the histogram.
	lo := a.quantileBin(0.05)
	hi := a.quantileBin(0.99)
	preWarm = time.Duration(float64(lo) * (1 - a.headroom) * float64(a.binWidth))
	keepAlive = time.Duration(float64(hi+1) * (1 + a.headroom) * float64(a.binWidth))
	if preWarm < 0 {
		preWarm = 0
	}
	return preWarm, keepAlive, true
}

// Plan returns the pre-warm and keep-alive bounds: the sandbox could
// be released immediately after an invocation, re-created preWarm into
// the idle period, and kept until keepAlive. The fleet consumes only
// the keepAlive bound (through Window); the preWarm bound is the
// analysis-side half of the §3.3 hybrid policy.
func (a *Adaptive) Plan() (preWarm, keepAlive time.Duration) {
	preWarm, keepAlive, _ = a.plan()
	return preWarm, keepAlive
}

// quantileBin returns the bin index at cumulative fraction q.
func (a *Adaptive) quantileBin(q float64) int {
	if a.total == 0 {
		return 0
	}
	want := int(q * float64(a.total))
	acc := 0
	for i, c := range a.bins {
		acc += c
		if acc > want {
			return i
		}
	}
	return len(a.bins) - 1
}

// WouldBeCold reports whether an arrival after the given idle time
// hits a cold sandbox under the current plan: cold when the arrival
// lands before the pre-warm completes or after the keep-alive window
// closes.
func (a *Adaptive) WouldBeCold(idle time.Duration) bool {
	preWarm, keepAlive := a.Plan()
	return idle < preWarm || idle > keepAlive
}

// IdleResourceSeconds returns the sandbox-seconds held per idle period
// under the plan — the provider-side saving of predictive warming
// versus holding the sandbox for the whole window.
func (a *Adaptive) IdleResourceSeconds() float64 {
	preWarm, keepAlive := a.Plan()
	if keepAlive <= preWarm {
		return 0
	}
	return (keepAlive - preWarm).Seconds()
}
