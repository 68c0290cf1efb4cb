package diffsim

import (
	"testing"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/scenario"
)

// The adaptive differential suite: the oracle replays its own instances
// of the keep-alive decider state machines against the fleet's, so the
// new decision counters — and every pre-existing metric, which the
// adaptive windows perturb — must agree at zero relative delta. A
// hidden dependence on shared host state, a missed observation point,
// or a draw-order skew all surface here.

// deciderConfig is fleetConfig plus a keep-alive spec in the given mode.
func deciderConfig(t *testing.T, mode keepalive.Mode, policy string, prof core.Profile, hosts int) fleet.Config {
	t.Helper()
	cfg := fleetConfig(t, policy, prof, hosts)
	seed := cfg.Seed
	cfg.KeepAlive = &keepalive.Spec{Mode: mode, Seed: &seed}
	return cfg
}

// checkDeciderAgreement verifies one config/trace pair and asserts the
// decision counters both moved and agreed exactly (RelDelta == 0 on
// the counter metrics — they are integers on both sides, and the float
// telemetry sums in the same order, so nothing short of exact is a
// pass).
func checkDeciderAgreement(t *testing.T, cfg fleet.Config, trName string, requests int) {
	t.Helper()
	tr := scenarioTrace(t, trName, requests)
	res, rep, err := Verify(cfg, tr, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PolicyDecisions == 0 || rep.PolicyObservations == 0 || rep.PolicyFunctions == 0 {
		t.Fatalf("decider layer never engaged: %+v", rep)
	}
	for _, m := range res.Metrics {
		switch m.Name {
		case "policy-functions", "policy-decisions", "policy-observations",
			"adaptive-learned-decisions", "bandit-explorations",
			"bandit-exploitations", "bandit-realized-cost", "bandit-regret":
			if m.RelDelta != 0 {
				t.Errorf("%s: fleet %v vs oracle %v (rel %v), want exact agreement",
					m.Name, m.Fleet, m.Independent, m.RelDelta)
			}
		}
	}
	if err := checkExact(res); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveDifferentialSuite runs the adaptive decider across every
// catalog scenario.
func TestAdaptiveDifferentialSuite(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			checkDeciderAgreement(t, deciderConfig(t, keepalive.ModeAdaptive, "least-loaded", core.AWS(), 8), name, 8000)
		})
	}
}

// TestBanditDifferentialSuite runs the bandit across every catalog
// scenario; its per-function RNG streams and regret accounting must
// replay exactly.
func TestBanditDifferentialSuite(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			checkDeciderAgreement(t, deciderConfig(t, keepalive.ModeBandit, "least-loaded", core.AWS(), 8), name, 8000)
		})
	}
}

// TestAdaptiveUnderFaults combines the decision layer with fault
// injection: evictions skip decisions, deferred replays shift
// observation instants, and hard-downs tear deciders' pods away — the
// oracle must track all of it, in both adaptive modes.
func TestAdaptiveUnderFaults(t *testing.T) {
	tr, horizon := faultTrace(t, "diurnal", 8000)
	for _, mode := range []keepalive.Mode{keepalive.ModeAdaptive, keepalive.ModeBandit} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			cfg := deciderConfig(t, mode, "least-loaded", core.AWS(), 8)
			cfg.Faults = faultPlan(t, "crashes", cfg.Hosts, horizon, cfg.Seed)
			res, rep, err := Verify(cfg, tr, DefaultTolerance)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PolicyDecisions == 0 {
				t.Fatal("decider layer never engaged")
			}
			if rep.EvictedSandboxes+rep.KilledRequests+rep.DeferredRequests == 0 {
				t.Fatal("fault plan perturbed nothing")
			}
			if err := checkExact(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdaptiveAcrossPlatforms exercises each Table 2 idle-holding
// regime under both adaptive modes (the fallback and arm costs differ
// per platform, so each profile drives different decider state).
func TestAdaptiveAcrossPlatforms(t *testing.T) {
	for _, prof := range []core.Profile{core.AWS(), core.GCP(), core.Azure()} {
		for _, mode := range []keepalive.Mode{keepalive.ModeAdaptive, keepalive.ModeBandit} {
			cfg := deciderConfig(t, mode, "bin-pack", prof, 6)
			tr := scenarioTrace(t, "bursty", 6000)
			res, _, err := Verify(cfg, tr, DefaultTolerance)
			if err == nil {
				err = checkExact(res)
			}
			if err != nil {
				t.Errorf("%s/%s: %v", prof.Name, mode, err)
			}
		}
	}
}
