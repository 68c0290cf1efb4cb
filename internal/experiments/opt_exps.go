package experiments

import (
	"context"
	"fmt"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/opt"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// RunOptExperiment is the policy-optimization sweep: a 36-config
// placement-policy × keep-alive-TTL × overcommit grid
// evaluated against every catalog scenario over the streaming path,
// reduced to the Pareto frontier over cost, cold-start rate, and p99
// contention slowdown, then narrowed by a coordinate-descent pass on
// the continuous knobs. This is what PR 3's streaming throughput was
// for: one command turns the simulator from a replayer into a
// decision tool.
func RunOptExperiment(opts Options) error {
	requests := opts.scaled(20000, 2000)
	// The grid widens DefaultSpace with overcommit 4, and the hosts are
	// deliberately CPU-lean (2 vCPU against the default 32 GB): on the
	// paper's trace CPU utilization is so low (Figure 3) that memory
	// binds placement long before CPU on a balanced host, which would
	// leave the overcommit knob inert. Lean hosts put CPU back on the
	// critical path, so overcommit genuinely trades rejected capacity
	// against tail contention.
	space := opt.DefaultSpace()
	space.Overcommits = []float64{1, 2, 4}
	header(opts.W, fmt.Sprintf(
		"Policy optimization: %d-config grid x full scenario catalog (AWS profile, 8 CPU-lean hosts, %d req/scenario)",
		space.Size(), requests))

	base := trace.DefaultGeneratorConfig()
	base.Requests = requests
	base.Seed = opts.Seed
	cfg := opt.Config{
		Profile:  core.AWS(),
		Host:     fleet.HostSpec{VCPU: 2, MemMB: fleet.DefaultHostSpec().MemMB},
		Hosts:    8,
		Scenario: scenario.Config{Base: base},
		Seed:     opts.Seed,
	}
	sr, err := opt.Sweep(context.Background(), cfg, space)
	if err != nil {
		return err
	}

	pareto := make(map[string]bool)
	for _, s := range sr.Frontier() {
		pareto[s.Candidate.Key()] = true
	}
	t := newTable("config", "$/1M req", "cold %", "p99 slow", "rej %", "pareto")
	for _, s := range sr.Summaries {
		mark := ""
		if pareto[s.Candidate.Key()] {
			mark = "*"
		}
		t.add(s.Candidate.Key(),
			fmt.Sprintf("%.3f", s.Objectives.CostPerMillion),
			fmt.Sprintf("%.2f", s.Objectives.ColdStartRate*100),
			fmt.Sprintf("%.3f", s.Objectives.SlowdownP99),
			fmt.Sprintf("%.2f", s.RejectedShare*100),
			mark)
	}
	t.write(opts.W)
	fmt.Fprintf(opts.W, "  %d of %d configs are Pareto-optimal on (cost, cold rate, tail slowdown), means over %d scenarios\n",
		len(pareto), len(sr.Summaries), len(sr.Scenarios))

	header(opts.W, "Flash-crowd frontier (the scenario where the knobs fight hardest)")
	rows, ok := sr.FrontierFor("flash-crowd")
	if !ok {
		return fmt.Errorf("ext-opt: flash-crowd missing from sweep")
	}
	t2 := newTable("config", "$/1M req", "cold %", "p99 slow")
	for _, r := range rows {
		t2.add(r.Candidate.Key(),
			fmt.Sprintf("%.3f", r.Objectives.CostPerMillion),
			fmt.Sprintf("%.2f", r.Objectives.ColdStartRate*100),
			fmt.Sprintf("%.3f", r.Objectives.SlowdownP99))
	}
	t2.write(opts.W)
	fmt.Fprintln(opts.W, "  a longer TTL buys re-cold starts back with idle-held capacity (Table 2 economics);")
	fmt.Fprintln(opts.W, "  overcommit buys host count back with tail contention — neither end dominates")

	header(opts.W, "Coordinate-descent refinement from the cheapest frontier config")
	start, ok := sr.CheapestFrontier()
	if !ok {
		return fmt.Errorf("ext-opt: empty pareto frontier")
	}
	rr, err := opt.Refine(context.Background(), cfg, start.Candidate)
	if err != nil {
		return err
	}
	fmt.Fprintf(opts.W, "  start: %-42s $%.3f/1M, cold %.2f%%, p99 slow x%.3f\n",
		rr.Start.Candidate.Key(), rr.Start.Objectives.CostPerMillion,
		rr.Start.Objectives.ColdStartRate*100, rr.Start.Objectives.SlowdownP99)
	fmt.Fprintf(opts.W, "  best:  %-42s $%.3f/1M, cold %.2f%%, p99 slow x%.3f (score %.4f, %d evaluations)\n",
		rr.Best.Candidate.Key(), rr.Best.Objectives.CostPerMillion,
		rr.Best.Objectives.ColdStartRate*100, rr.Best.Objectives.SlowdownP99,
		rr.Score, rr.Evaluations)
	fmt.Fprintln(opts.W, "  the grid finds the right neighborhood; descent recovers the continuous-knob")
	fmt.Fprintln(opts.W, "  residual the grid's spacing left behind. Deterministic for any worker count.")
	return nil
}
