package main

import "math"

// jobDef is one job a workload runs, in the daemon's vocabulary: a
// method and the parameters that differ from the daemon's defaults
// (aws-lambda, least-loaded placement, overcommit 2, static keep-alive,
// 16-vCPU hosts).
type jobDef struct {
	method    string
	scenario  string // simulate, verify: catalog scenario, or "raw"
	requests  int    // per scenario
	tenants   int
	hosts     int
	faults    string   // fault catalog profile
	keepalive string   // keep-alive decider mode
	scenarios []string // sweep
}

// workload is one job cycle the benchmark runs. A run derives its
// inputs from its seed and runs the cycle on each input in turn, after
// one untimed pass over the cycle on the first input.
type workload struct {
	name string
	// cycle lists the jobs ops run, in order.
	cycle []jobDef
	// daemon submits the jobs through the HTTP API instead of calling
	// the library.
	daemon bool
	// inputs is how many inputs a run derives from its seed. The pod count
	// the generator draws, and with it the work and allocation of an op,
	// varies by up to 20% between seeds; rotating the ops over several
	// inputs keeps one seed's draw from setting a run's numbers.
	inputs int
}

// The workloads and why each exists; README.md has the long form.
var workloads = []workload{
	// One streamed replay of the raw generator: a pod-scanning stream, so
	// each request is synthesized once; scenario, opt and api stay idle.
	{
		name:  "replay-raw",
		cycle: []jobDef{{method: methodSimulate, scenario: "raw", requests: 2_000_000, hosts: 32}},
		// Its allocation follows the pod count most closely, so it takes
		// the most inputs.
		inputs: 10,
	},
	// A shaped, faulted, multi-tenant replay: synthesized twice through the
	// retimer and merge, with the fault and decider paths running.
	{
		name: "replay-scenario",
		cycle: []jobDef{{
			method: methodSimulate, scenario: "flash-crowd", requests: 1_000_000, tenants: 4, hosts: 32,
			faults: "chaos", keepalive: "adaptive",
		}},
		inputs: 5,
	},
	// Many mid-size replays of two workloads, where re-synthesis per
	// evaluation and the worker pool dominate.
	{
		name: "sweep",
		cycle: []jobDef{{
			method: methodSweep, requests: 50_000, hosts: 16, scenarios: []string{"steady", "flash-crowd"},
		}},
		inputs: 5,
	},
	// Closed-loop jobs over HTTP on one connection: the only path through
	// api, jobs, the plan cache, the progress wrapper and the oracle.
	{
		name: "daemon",
		cycle: []jobDef{
			{method: methodSimulate, scenario: "steady", requests: 100_000},
			{method: methodSimulate, scenario: "flash-crowd", requests: 100_000},
			{method: methodSimulate, scenario: "steady", requests: 100_000},
			{method: methodVerify, scenario: "flash-crowd", requests: 50_000},
		},
		daemon: true,
		inputs: 5,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minRequests keeps scaled-down jobs large enough to place and serve.
const minRequests = 1000

// jobs returns the workload's cycle with request counts scaled.
func (w workload) jobs(scale float64) []jobDef {
	out := make([]jobDef, len(w.cycle))
	for i, d := range w.cycle {
		d.requests = int(math.Max(minRequests, math.Round(float64(d.requests)*scale)))
		out[i] = d
	}
	return out
}

// seeds derives the seeds of the run's inputs from its seed; the first
// input's is the run's own.
func (w workload) seeds(seed uint64) []uint64 {
	out := make([]uint64, w.inputs)
	for k := range out {
		out[k] = seed ^ uint64(k)*0x9e3779b97f4a7c15
	}
	return out
}
