// Policy sweep: turn the fleet simulator into a decision tool. The
// optimizer (internal/opt) evaluates a grid of placement policy ×
// keep-alive TTL × overcommit configurations against several workload
// scenarios concurrently — each scenario is compiled and pod-scanned
// once per call, and candidates that share a scenario stream through
// one fleet.SimulateGroup replay of its source — and reduces the grid
// to the Pareto frontier over cost, cold-start rate, and p99
// contention slowdown.
// A coordinate-descent pass then narrows the continuous knobs around
// the cheapest frontier point, replaying every probe from the same
// once-per-call plans and scans.
//
//	go run ./examples/policy-sweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"slscost/internal/core"
	"slscost/internal/opt"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

func main() {
	const requests = 20000

	scs, err := scenario.Subset("steady", "flash-crowd", "bursty")
	if err != nil {
		log.Fatal(err)
	}
	base := trace.DefaultGeneratorConfig()
	base.Requests = requests
	base.Seed = 20260613
	cfg := opt.Config{
		Profile:   core.AWS(),
		Hosts:     8,
		Scenarios: scs,
		Scenario:  scenario.Config{Base: base},
		Seed:      20260613,
	}
	// Every placement policy × four TTLs × two overcommit ratios.
	space := opt.Space{
		Policies: []string{"least-loaded", "bin-pack"},
		TTLs: []time.Duration{opt.PlatformTTL, 30 * time.Second,
			120 * time.Second, 600 * time.Second},
		Overcommits: []float64{1, 2},
	}

	fmt.Printf("sweeping %d configs x %d scenarios, %d requests each — same seed, same physics,\n",
		space.Size(), len(scs), requests)
	fmt.Printf("only the knobs move; results are identical for any worker count\n\n")

	sr, err := opt.Sweep(context.Background(), cfg, space)
	if err != nil {
		log.Fatal(err)
	}
	sr.WriteText(os.Stdout)

	// The frontier is the decision surface; descend from its cheapest
	// point to squeeze the continuous knobs the grid spacing skipped.
	start, ok := sr.CheapestFrontier()
	if !ok {
		log.Fatal("empty pareto frontier")
	}
	fmt.Println()
	rr, err := opt.Refine(context.Background(), cfg, start.Candidate)
	if err != nil {
		log.Fatal(err)
	}
	rr.WriteText(os.Stdout)

	fmt.Println("\nno single config wins all three objectives: keep-alive TTL trades idle-held")
	fmt.Println("capacity (which costs money) against re-cold starts, and overcommit trades")
	fmt.Println("host count against tail contention — the frontier is the honest answer.")
}
