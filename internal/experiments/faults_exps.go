package experiments

import (
	"fmt"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/scenario"
	"slscost/internal/scenario/diffsim"
	"slscost/internal/scenario/faults"
)

// RunFaultsExperiment sweeps the fault-profile catalog against every
// placement policy on the diurnal scenario: the recovery-cost matrix
// fault injection exists to measure. Each profile's schedule compiles
// once per (seed, host count, horizon) and replays identically under
// every policy, so a row difference is the policy's doing, not the
// fault draw's. Every profile is then re-verified by the differential
// harness under the same fault plan — the matrix doubles as the
// end-to-end audit that fleet and the independent replay agree on
// eviction, kill, deferral, and availability bookkeeping, not just on
// cost.
func RunFaultsExperiment(opt Options) error {
	header(opt.W, "Faults: placement policy × fault profile (diurnal scenario, AWS profile, 16 hosts)")
	requests := opt.scaled(50000, 2000)
	const hosts = 16

	sc, ok := scenario.ByName("diurnal")
	if !ok {
		return fmt.Errorf("ext-faults: diurnal scenario missing from catalog")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = requests
	scfg.Base.Seed = opt.Seed
	tr, err := sc.Trace(scfg)
	if err != nil {
		return err
	}

	cluster := func(policy string, plan *faults.Plan) (fleet.Config, error) {
		pol, err := fleet.NewPolicy(policy)
		if err != nil {
			return fleet.Config{}, err
		}
		return fleet.Config{
			Hosts:      hosts,
			Host:       fleet.DefaultHostSpec(),
			Policy:     pol,
			Profile:    core.AWS(),
			Overcommit: 2,
			Seed:       opt.Seed,
			Faults:     plan,
		}, nil
	}

	t := newTable("profile", "policy", "$/1M req", "avail-wt $/1M", "avail %",
		"evicted", "killed", "deferred", "recov p99 ms")
	type verdict struct {
		name  string
		delta float64
		err   error
	}
	var verdicts []verdict
	for _, fp := range faults.Catalog() {
		plan, err := faults.Compile(&fp.Spec, hosts, scfg.EffectiveHorizon(), opt.Seed)
		if err != nil {
			return err
		}
		var leastLoaded fleet.Report
		for _, policy := range fleet.PolicyNames() {
			cfg, err := cluster(policy, plan)
			if err != nil {
				return err
			}
			rep, err := fleet.Simulate(cfg, tr)
			if err != nil {
				return err
			}
			if policy == "least-loaded" {
				leastLoaded = rep
			}
			recov := "-"
			if rep.Recovery.N > 0 {
				recov = fmt.Sprintf("%.0f", rep.Recovery.P99)
			}
			t.add(fp.Name, policy,
				fmt.Sprintf("%.3f", rep.CostPerMillion()),
				fmt.Sprintf("%.3f", rep.AvailabilityWeightedCostPerMillion()),
				fmt.Sprintf("%.3f", rep.Availability()*100),
				fmt.Sprintf("%d", rep.EvictedSandboxes),
				fmt.Sprintf("%d", rep.KilledRequests),
				fmt.Sprintf("%d", rep.DeferredRequests),
				recov)
		}
		// Differential verification under the same fault plan: the
		// independent per-host replay against the least-loaded report
		// the matrix loop already computed.
		cfg, err := cluster("least-loaded", plan)
		if err != nil {
			return err
		}
		agg, err := diffsim.Replay(cfg, tr)
		if err != nil {
			return err
		}
		res := diffsim.Diff(leastLoaded, agg)
		if err := res.Check(diffsim.DefaultTolerance); err != nil {
			verdicts = append(verdicts, verdict{name: fp.Name, err: err})
			continue
		}
		verdicts = append(verdicts, verdict{name: fp.Name, delta: res.MaxRelDelta})
	}
	t.write(opt.W)
	fmt.Fprintln(opt.W, "  the fault bill is mostly re-warming, not downtime: evictions turn the next")
	fmt.Fprintln(opt.W, "  arrival cold (Figure 9's idle-time cliff, forced rather than aged into), and")
	fmt.Fprintln(opt.W, "  wall-clock billing charges every one of those re-cold initializations (I7)")

	header(opt.W, "Differential verification under faults: fleet vs independent per-host replay")
	t2 := newTable("profile", "max rel delta", "verdict")
	for _, v := range verdicts {
		if v.err != nil {
			t2.add(v.name, "-", "DISAGREE: "+v.err.Error())
			continue
		}
		t2.add(v.name, fmt.Sprintf("%.3g", v.delta), "agree")
	}
	t2.write(opt.W)
	for _, v := range verdicts {
		if v.err != nil {
			return fmt.Errorf("ext-faults: differential verification failed: %w", v.err)
		}
	}
	fmt.Fprintln(opt.W, "  every profile's eviction/kill/deferral/availability accounting is reproduced by")
	fmt.Fprintln(opt.W, "  the independent per-host replay (internal/scenario/diffsim)")
	return nil
}
