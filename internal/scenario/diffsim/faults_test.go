package diffsim

import (
	"context"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

// faultTrace synthesizes a scenario trace and returns it with the
// horizon the fault compiler must key its schedules to.
func faultTrace(t *testing.T, name string, requests int) (*trace.Trace, time.Duration) {
	t.Helper()
	sc, ok := scenario.ByName(name)
	if !ok {
		t.Fatalf("unknown scenario %s", name)
	}
	cfg := scenario.DefaultConfig()
	cfg.Base.Requests = requests
	cfg.Base.Functions = 80
	tr, err := sc.Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cfg.EffectiveHorizon()
}

// faultPlan compiles a catalog fault profile for the test cluster.
func faultPlan(t *testing.T, profile string, hosts int, horizon time.Duration, seed uint64) *faults.Plan {
	t.Helper()
	p, err := faults.ByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Compile(&p.Spec, hosts, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatalf("profile %s compiled to an empty plan", profile)
	}
	return plan
}

// TestEveryFaultProfileAgrees is the fault half of the acceptance
// oracle: on every catalog fault profile, the independent replay must
// reproduce the fleet's recovery bookkeeping — evictions, kills,
// deferred replays, downtime, masked placements — as exactly as cost,
// and each profile must actually perturb the run
// (a fault suite that injects nothing verifies nothing).
func TestEveryFaultProfileAgrees(t *testing.T) {
	tr, horizon := faultTrace(t, "diurnal", 8000)
	for _, profile := range faults.Names() {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			cfg := fleetConfig(t, "least-loaded", core.AWS(), 8)
			cfg.Faults = faultPlan(t, profile, cfg.Hosts, horizon, cfg.Seed)
			res, rep, err := Verify(cfg, tr, DefaultTolerance)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Served == 0 {
				t.Fatal("nothing served")
			}
			if err := checkExact(res); err != nil {
				t.Fatal(err)
			}
			if rep.EvictedSandboxes+rep.KilledRequests+rep.DeferredRequests+rep.FaultMaskedPods == 0 {
				t.Fatalf("profile %s perturbed nothing: %+v", profile, rep)
			}
		})
	}
}

// TestFaultAgreementAcrossPoliciesAndPlatforms exercises the chaos
// profile (every fault axis at once) against every placement policy
// and each keep-alive regime of Table 2 — the combinations that stress
// different eviction and idle-holding paths.
func TestFaultAgreementAcrossPoliciesAndPlatforms(t *testing.T) {
	tr, horizon := faultTrace(t, "bursty", 6000)
	for _, policy := range fleet.PolicyNames() {
		for _, prof := range []core.Profile{core.AWS(), core.GCP(), core.Azure()} {
			cfg := fleetConfig(t, policy, prof, 6)
			cfg.Faults = faultPlan(t, "chaos", cfg.Hosts, horizon, cfg.Seed)
			res, _, err := Verify(cfg, tr, DefaultTolerance)
			if err == nil {
				err = checkExact(res)
			}
			if err != nil {
				t.Errorf("%s/%s: %v", policy, prof.Name, err)
			}
		}
	}
}

// TestFaultStreamMatchesMaterialized cross-checks the third replay
// mechanism: the streaming pipeline under faults must agree with both
// the materialized fleet path and the oracle.
func TestFaultStreamMatchesMaterialized(t *testing.T) {
	sc, ok := scenario.ByName("flash-crowd")
	if !ok {
		t.Fatal("unknown scenario")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 6000
	scfg.Base.Functions = 80
	cfg := fleetConfig(t, "round-robin", core.GCP(), 6)
	cfg.Faults = faultPlan(t, "chaos", cfg.Hosts, scfg.EffectiveHorizon(), cfg.Seed)

	res, rep, err := VerifyStream(context.Background(), cfg, sc.Source(scfg), DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExact(res); err != nil {
		t.Fatal(err)
	}
	if rep.EvictedSandboxes+rep.KilledRequests+rep.DeferredRequests == 0 {
		t.Fatal("chaos profile perturbed nothing on the stream path")
	}
}
