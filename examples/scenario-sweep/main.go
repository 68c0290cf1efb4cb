// Scenario sweep: replay the same request volume through the cluster
// simulator under different workload scenarios (internal/scenario) and
// watch keep-alive economics move — then let the differential harness
// (internal/scenario/diffsim) prove each report against an independent
// per-host replay.
//
//	go run ./examples/scenario-sweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/scenario"
	"slscost/internal/scenario/diffsim"
)

func main() {
	const requests = 30000

	fmt.Printf("same %d requests, 8 hosts, AWS profile — only the arrival shape changes\n\n", requests)
	fmt.Printf("%-14s %10s %10s %9s %9s %12s\n",
		"scenario", "cold %", "re-cold", "p95 ms", "$/1M", "verified")
	for _, sc := range scenario.Catalog() {
		scfg := scenario.DefaultConfig()
		scfg.Base.Requests = requests
		pol, err := fleet.NewPolicy("least-loaded")
		if err != nil {
			log.Fatal(err)
		}
		cfg := fleet.Config{
			Hosts: 8, Host: fleet.DefaultHostSpec(), Policy: pol,
			Profile: core.AWS(), Overcommit: 2, Seed: 20260613,
		}
		// The independent per-host replay must reproduce the report.
		res, rep, err := diffsim.VerifyStream(context.Background(), cfg, sc.Source(scfg), diffsim.DefaultTolerance)
		if res == nil {
			log.Fatal(err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: differential verification FAILED: %v\n", sc.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %9.2f%% %10d %9.1f %9.3f %12s\n",
			sc.Name, rep.ColdStartRate()*100, rep.ReColdStarts,
			rep.Latency.P95, rep.CostPerMillion(),
			fmt.Sprintf("Δ≤%.0e", res.MaxRelDelta))
	}

	fmt.Println("\nthe stationary trace amortizes cold starts; shaped traffic re-pays them:")
	fmt.Println("troughs and burst gaps outlive the keep-alive window (Figure 9 at cluster")
	fmt.Println("scale), so the same million requests cost more the burstier they arrive.")
}
