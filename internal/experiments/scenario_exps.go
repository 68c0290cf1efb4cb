package experiments

import (
	"fmt"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/scenario"
	"slscost/internal/scenario/diffsim"
)

// RunScenarioExperiment sweeps the workload-scenario catalog against
// every placement policy: the cost/latency/cold-start matrix the
// stationary trace cannot produce (a diurnal trough or flash crowd
// moves the keep-alive and cold-start trade-offs the paper measures
// one sandbox at a time). Each scenario is then re-verified by the
// differential harness — the fleet report against an independent
// per-host replay — so the matrix doubles as a correctness audit of
// the cluster simulator on every workload it ships.
func RunScenarioExperiment(opt Options) error {
	header(opt.W, "Scenarios: placement policy × workload scenario (AWS profile, 16 hosts)")
	requests := opt.scaled(50000, 2000)

	cluster := func(policy string) (fleet.Config, error) {
		pol, err := fleet.NewPolicy(policy)
		if err != nil {
			return fleet.Config{}, err
		}
		return fleet.Config{
			Hosts:      16,
			Host:       fleet.DefaultHostSpec(),
			Policy:     pol,
			Profile:    core.AWS(),
			Overcommit: 2,
			Seed:       opt.Seed,
		}, nil
	}

	t := newTable("scenario", "policy", "$/1M req", "p50 ms", "p95 ms",
		"cold %", "re-cold", "rejected")
	type verdict struct {
		name  string
		delta float64
		err   error
	}
	var verdicts []verdict
	for _, sc := range scenario.Catalog() {
		scfg := scenario.DefaultConfig()
		scfg.Base.Requests = requests
		scfg.Base.Seed = opt.Seed
		tr, err := sc.Trace(scfg)
		if err != nil {
			return err
		}
		var leastLoaded fleet.Report
		for _, policy := range fleet.PolicyNames() {
			cfg, err := cluster(policy)
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
			t.add(sc.Name, policy,
				fmt.Sprintf("%.3f", rep.CostPerMillion()),
				fmt.Sprintf("%.2f", rep.Latency.Median),
				fmt.Sprintf("%.2f", rep.Latency.P95),
				fmt.Sprintf("%.2f", rep.ColdStartRate()*100),
				fmt.Sprintf("%d", rep.ReColdStarts),
				fmt.Sprintf("%d", rep.RejectedRequests))
		}
		// Differential verification: independent per-host replay against
		// the least-loaded report the matrix loop already computed.
		cfg, err := cluster("least-loaded")
		if err != nil {
			return err
		}
		agg, err := diffsim.Replay(cfg, tr)
		if err != nil {
			return err
		}
		res := diffsim.Diff(leastLoaded, agg)
		if err := res.Check(diffsim.DefaultTolerance); err != nil {
			verdicts = append(verdicts, verdict{name: sc.Name, err: err})
			continue
		}
		verdicts = append(verdicts, verdict{name: sc.Name, delta: res.MaxRelDelta})
	}
	t.write(opt.W)
	fmt.Fprintln(opt.W, "  shaped traffic re-pays cold starts the stationary trace amortized: troughs and")
	fmt.Fprintln(opt.W, "  burst gaps outlive keep-alive windows (Figure 9 at cluster scale), and spikes")
	fmt.Fprintln(opt.W, "  concentrate sandbox churn that wall-clock billing then charges for (I7/I9)")

	header(opt.W, "Differential verification: fleet report vs independent per-host replay")
	t2 := newTable("scenario", "max rel delta", "verdict")
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
			return fmt.Errorf("ext-scenarios: differential verification failed: %w", v.err)
		}
	}
	fmt.Fprintln(opt.W, "  every scenario's report is reproduced by an independent per-host replay")
	fmt.Fprintln(opt.W, "  (internal/scenario/diffsim) built directly on the keep-alive/billing/cfs models")
	return nil
}
