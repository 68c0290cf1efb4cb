// Fleet replay walkthrough: generate a trace, round-trip it through the
// on-disk CSV format (the "replay" path a real trace would take), then
// serve it from a simulated multi-host cluster under each placement
// policy and compare the cluster-wide cost/latency reports.
//
// Run with:
//
//	go run ./examples/fleet-replay
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/trace"
)

func main() {
	// 1. A workload. In production this is a recorded trace; here the
	//    calibrated generator stands in for it (same marginals as the
	//    paper's 558M-request Huawei trace).
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 50000
	tr := trace.Generate(gen)

	// 2. The replay path: write the trace to the CSV wire format and
	//    read it back, exactly as `tracegen | fleetsim -trace` would.
	var disk bytes.Buffer
	if err := trace.WriteCSV(&disk, tr); err != nil {
		log.Fatal(err)
	}
	replayed, err := trace.ReadCSV(&disk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %d requests (%d sandboxes) through a 16-host cluster\n\n",
		replayed.Len(), len(replayed.ByPod()))

	// 3. One cluster simulation per placement policy. Everything is
	//    seeded: rerunning this program reproduces every number, and the
	//    worker count (defaulted to GOMAXPROCS here) never changes them.
	cfg := func(policyName string) fleet.Config {
		policy, err := fleet.NewPolicy(policyName)
		if err != nil {
			log.Fatal(err)
		}
		return fleet.Config{
			Hosts:      16,
			Host:       fleet.DefaultHostSpec(),
			Policy:     policy,
			Profile:    core.AWS(),
			Overcommit: 2,
			Seed:       7,
		}
	}
	fmt.Printf("%-14s %10s %9s %9s %8s %12s\n",
		"policy", "$/1M req", "p50 ms", "p99 ms", "cold %", "contention s")
	var leastLoaded fleet.Report
	for _, name := range fleet.PolicyNames() {
		rep, err := fleet.Simulate(cfg(name), replayed)
		if err != nil {
			log.Fatal(err)
		}
		if name == "least-loaded" {
			leastLoaded = rep
		}
		fmt.Printf("%-14s %10.3f %9.2f %9.2f %8.2f %12.1f\n",
			rep.Policy, rep.CostPerMillion(), rep.Latency.Median,
			rep.Latency.P99, rep.ColdStartRate()*100, rep.ContentionDelaySeconds)
	}

	// 4. The full report for one of the configurations above.
	fmt.Println()
	leastLoaded.WriteText(os.Stdout)

	// 5. The streaming form: the same cluster fed straight from the
	//    generator, never materialized. fleet.Simulate is this pipeline
	//    over a trace held in memory; streamed, host shards simulate
	//    concurrently with generation and memory stays bounded by the
	//    pod count, so the call scales to tens of millions of requests.
	//    Its report is the in-memory trace's, byte for byte. (The CSV
	//    above stores times in whole microseconds, so the replayed
	//    trace's report can differ in the last digits.)
	inMemory, err := fleet.Simulate(cfg("least-loaded"), tr)
	if err != nil {
		log.Fatal(err)
	}
	streamed, err := fleet.SimulateStream(context.Background(), cfg("least-loaded"), trace.GenerateSource(gen))
	if err != nil {
		log.Fatal(err)
	}
	var a, b bytes.Buffer
	inMemory.WriteText(&a)
	streamed.WriteText(&b)
	if a.String() != b.String() {
		log.Fatal("streamed report drifted from the in-memory trace's")
	}
	fmt.Println("\nstreaming the generator (fleet.SimulateStream over trace.GenerateSource) reproduced the in-memory trace's report byte-for-byte")
}
