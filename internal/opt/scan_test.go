package opt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// resolveCounts counts, for one optimizer call, how often the planner
// is consulted and how often a plan's pod scan runs.
type resolveCounts struct {
	plans atomic.Int64
	scans atomic.Int64
}

// countResolves makes cfg's scenarios compile through a counting
// planner and every plan's source count the pod scans it runs, until
// the test ends.
func countResolves(t *testing.T, cfg *Config) *resolveCounts {
	t.Helper()
	c := &resolveCounts{}
	cfg.Planner = func(sc scenario.Scenario, scfg scenario.Config) (*scenario.Plan, error) {
		c.plans.Add(1)
		return sc.Compile(scfg)
	}
	orig := planSource
	t.Cleanup(func() { planSource = orig })
	planSource = func(p *scenario.Plan) trace.Source {
		src := orig(p)
		return func() (trace.Stream, error) {
			s, err := src()
			if err != nil {
				return nil, err
			}
			return trace.WithPodScan(func() trace.Stream { return s }, func() []trace.PodMeta {
				c.scans.Add(1)
				return s.(trace.PodScanner).PodScan()
			}), nil
		}
	}
	return c
}

// check fails the test unless the call compiled and scanned each of
// its scenarios exactly once.
func (c *resolveCounts) check(t *testing.T, scenarios int) {
	t.Helper()
	if got := c.plans.Load(); got != int64(scenarios) {
		t.Errorf("planner consulted %d times, want %d (once per scenario per call)", got, scenarios)
	}
	if got := c.scans.Load(); got != int64(scenarios) {
		t.Errorf("%d pod scans, want %d (once per scenario per call)", got, scenarios)
	}
}

// TestSweepScansEachScenarioOnce pins the shared scan on the
// benchmark's sweep shape: 24 candidates on two scenarios at two
// workers replay in 12 groups of four, six per scenario, and every
// group places from the one scan its scenario's source made.
func TestSweepScansEachScenarioOnce(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Hosts = 16
	if pool, shards, size := dispatch(48, 2, cfg.Workers); pool != 1 || shards != 2 || size != 4 {
		t.Fatalf("dispatch(48, 2, 2) = %d, %d, %d; want one group at a time over 2 shards, 4 slots each", pool, shards, size)
	}
	c := countResolves(t, &cfg)
	sr, err := Sweep(context.Background(), cfg, DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 48 {
		t.Fatalf("%d results, want 48", len(sr.Results))
	}
	c.check(t, 2)
}

// TestSweepRangeSharesScanAcrossConcurrentGroups runs three one-slot
// groups side by side on one scenario's source, so their placement
// passes read the shared scan concurrently; run it under -race. The
// range's rows must equal the same slots of a one-worker sweep.
func TestSweepRangeSharesScanAcrossConcurrentGroups(t *testing.T) {
	cfg := testConfig(t, 4)
	scs, err := scenario.Subset("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenarios = scs
	space := Space{
		Policies:    []string{"least-loaded", "bin-pack", "round-robin"},
		TTLs:        []time.Duration{30 * time.Second},
		Overcommits: []float64{2},
	}
	if pool, shards, size := dispatch(3, 1, cfg.Workers); pool != 4 || shards != 1 || size != 1 {
		t.Fatalf("dispatch(3, 1, 4) = %d, %d, %d; want one-slot groups side by side", pool, shards, size)
	}
	c := countResolves(t, &cfg)
	got, err := SweepRange(context.Background(), cfg, space, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.check(t, 1)

	one := cfg
	one.Workers, one.Planner = 1, nil
	want, err := Sweep(context.Background(), one, space)
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if got[k].Row() != want.Results[k].Row() {
			t.Errorf("slot %d: %+v, want %+v", k, got[k].Row(), want.Results[k].Row())
		}
	}
}

// TestRefineResolvesScenariosOnce pins that a refinement compiles and
// scans each scenario once for the whole descent, not once per probe.
func TestRefineResolvesScenariosOnce(t *testing.T) {
	cfg := testConfig(t, 2)
	c := countResolves(t, &cfg)
	rr, err := Refine(context.Background(), cfg, Candidate{Policy: "least-loaded", KeepAliveTTL: 60 * time.Second, Overcommit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Evaluations < 2 {
		t.Fatalf("refinement made %d evaluations; the test needs probes", rr.Evaluations)
	}
	c.check(t, 2)
}
