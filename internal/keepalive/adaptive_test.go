package keepalive

// The tests in this file are the old PredictiveWarmer suite, ported to
// the Adaptive decider that subsumed it: same histogram, same plan
// semantics, now exercised through the Decider surface.

import (
	"testing"
	"time"

	"slscost/internal/stats"
)

func newAdaptive(t *testing.T) *Adaptive {
	t.Helper()
	a, err := NewAdaptive(4*time.Hour, time.Minute, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(time.Hour, 0, time.Minute); err == nil {
		t.Error("zero bin width accepted")
	}
	if _, err := NewAdaptive(time.Second, time.Minute, time.Minute); err == nil {
		t.Error("max below bin accepted")
	}
	if _, err := NewAdaptive(time.Hour, time.Minute, -1); err == nil {
		t.Error("negative fallback accepted")
	}
}

func TestPlanFallsBackWithoutData(t *testing.T) {
	a := newAdaptive(t)
	pre, keep := a.Plan()
	if pre != 0 || keep != 10*time.Minute {
		t.Errorf("cold-start plan = (%v, %v), want static fallback", pre, keep)
	}
	// The decider surface agrees: an untrained Window is the fallback,
	// and it is not counted as learned.
	if w := a.Window(1); w != 10*time.Minute {
		t.Errorf("untrained Window = %v, want fallback", w)
	}
	if st := a.Stats(); st.Decisions != 1 || st.Learned != 0 {
		t.Errorf("stats = %+v, want 1 unlearned decision", st)
	}
}

// TestRegularTrafficBecomesWarm: traffic every 10 minutes is always cold
// under AWS's 300–360 s window; the adaptive decider learns the interval
// and serves it warm.
func TestRegularTrafficBecomesWarm(t *testing.T) {
	a := newAdaptive(t)
	interval := 10 * time.Minute

	// Static AWS policy: certainly cold at this interval.
	if p := ColdStartProbability(AWS, interval, 1, 200, 1); p != 1 {
		t.Fatalf("AWS at 10 min idle should always be cold, got %v", p)
	}

	// Training phase with slight jitter.
	rng := stats.NewRand(3)
	for i := 0; i < 40; i++ {
		jitter := time.Duration(rng.Uniform(-30, 30)) * time.Second
		a.ObserveIdle(interval + jitter)
	}
	cold := 0
	const probes = 200
	for i := 0; i < probes; i++ {
		jitter := time.Duration(rng.Uniform(-30, 30)) * time.Second
		if a.WouldBeCold(interval + jitter) {
			cold++
		}
	}
	if rate := float64(cold) / probes; rate > 0.02 {
		t.Errorf("adaptive cold rate = %.3f, want ≈0", rate)
	}
	// And the pre-warm window releases resources for most of the idle
	// period: held seconds well below the full 10-minute gap.
	if held := a.IdleResourceSeconds(); held > 0.6*interval.Seconds() {
		t.Errorf("held %v s of a %v s gap: pre-warming saves little", held, interval.Seconds())
	}
	// The trained decider's window covers the jittered gap and counts as
	// a learned decision.
	if w := a.Window(1); w < interval+30*time.Second {
		t.Errorf("trained Window = %v, shorter than the observed gaps", w)
	}
	if st := a.Stats(); st.Learned != st.Decisions {
		t.Errorf("stats = %+v, want every decision learned", st)
	}
}

func TestUnpredictableTrafficFallsBack(t *testing.T) {
	a := newAdaptive(t)
	// Most gaps beyond the histogram range: overflow-dominated.
	for i := 0; i < 40; i++ {
		a.ObserveIdle(10 * time.Hour)
	}
	pre, keep := a.Plan()
	if pre != 0 || keep != 10*time.Minute {
		t.Errorf("overflow-dominated plan = (%v, %v), want fallback", pre, keep)
	}
}

func TestObserveIdleIgnoresNegative(t *testing.T) {
	a := newAdaptive(t)
	a.ObserveIdle(-time.Minute)
	if a.Samples() != 0 {
		t.Error("negative idle recorded")
	}
	// The observation still counts in the telemetry (the fleet made the
	// call), it just doesn't poison the histogram.
	if st := a.Stats(); st.Observations != 1 {
		t.Errorf("observations = %d, want 1", st.Observations)
	}
}

func TestWouldBeColdEdges(t *testing.T) {
	a := newAdaptive(t)
	for i := 0; i < 40; i++ {
		a.ObserveIdle(10 * time.Minute)
	}
	pre, keep := a.Plan()
	if pre <= 0 || keep <= pre {
		t.Fatalf("plan = (%v, %v)", pre, keep)
	}
	// An arrival before the pre-warm completes is cold (sandbox released).
	if !a.WouldBeCold(pre / 2) {
		t.Error("early arrival should be cold")
	}
	// An arrival far past the window is cold again.
	if !a.WouldBeCold(keep + time.Hour) {
		t.Error("late arrival should be cold")
	}
	// Inside the window: warm.
	if a.WouldBeCold((pre + keep) / 2) {
		t.Error("in-window arrival should be warm")
	}
}

func TestQuantileBinEmpty(t *testing.T) {
	a := newAdaptive(t)
	if a.quantileBin(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestHistogramWindowing: once maxSamples accumulate every bin halves,
// so a shifted traffic pattern takes over the plan instead of being
// averaged against the stale one forever.
func TestHistogramWindowing(t *testing.T) {
	a := newAdaptive(t)
	a.maxSamples = 64
	for i := 0; i < 200; i++ {
		a.ObserveIdle(10 * time.Minute)
	}
	if a.Samples() >= 64 {
		t.Fatalf("samples = %d, want halved below cap", a.Samples())
	}
	// Shift the workload: 30-minute gaps. The window must follow within
	// a bounded number of observations.
	for i := 0; i < 200; i++ {
		a.ObserveIdle(30 * time.Minute)
	}
	if _, keep := a.Plan(); keep < 30*time.Minute {
		t.Errorf("plan after shift = %v, want ≥ 30m", keep)
	}
}
