// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (dispatched into internal/experiments), plus
// micro-benchmarks of the library's hot paths. Regenerate everything with:
//
//	go test -bench=. -benchmem
package slscost

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"slscost/internal/billing"
	"slscost/internal/cfs"
	"slscost/internal/core"
	"slscost/internal/experiments"
	"slscost/internal/fleet"
	"slscost/internal/opt"
	"slscost/internal/platform"
	"slscost/internal/scenario"
	"slscost/internal/trace"
	"slscost/internal/workload"
)

// benchExperiment runs one registered experiment at bench scale.
func benchExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opt := experiments.Options{Scale: scale, Seed: 20260613, W: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact. Scales are chosen so a single
// iteration exercises the full pipeline in well under a second; cmd/
// slsbench runs the full published configuration.

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1", 1) }
func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "fig1", 1) }
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "fig2", 0.05) }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3", 0.05) }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4", 0.05) }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5", 0.05) }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6", 0.2) }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8", 0.3) }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9", 0.5) }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2", 1) }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10", 0.2) }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11", 1) }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12", 0.2) }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3", 0.5) }
func BenchmarkExploit(b *testing.B)  { benchExperiment(b, "exploit", 1) }

// Extension / ablation benches (see DESIGN.md and EXPERIMENTS.md).

func BenchmarkIntro(b *testing.B)           { benchExperiment(b, "intro", 1) }
func BenchmarkExtBillingModes(b *testing.B) { benchExperiment(b, "ext-billing-modes", 0.25) }
func BenchmarkExtRightsize(b *testing.B)    { benchExperiment(b, "ext-rightsize", 0.25) }
func BenchmarkExtSchedulerAblation(b *testing.B) {
	benchExperiment(b, "ext-sched", 0.2)
}
func BenchmarkExtComposition(b *testing.B) { benchExperiment(b, "ext-composition", 1) }
func BenchmarkExtCoTenancy(b *testing.B)   { benchExperiment(b, "ext-cotenancy", 1) }
func BenchmarkExtFleet(b *testing.B)       { benchExperiment(b, "ext-fleet", 0.1) }
func BenchmarkExtScenarios(b *testing.B)   { benchExperiment(b, "ext-scenarios", 0.1) }
func BenchmarkExtOpt(b *testing.B)         { benchExperiment(b, "ext-opt", 0.05) }

// BenchmarkFleetReplay measures cluster-replay throughput (requests/sec)
// as the host shards spread over 1, 4, and 8 workers. The report is
// identical at every width (the shards are keyed by host, not worker);
// only wall-clock changes, tracking available cores.
func BenchmarkFleetReplay(b *testing.B) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 100000
	tr := trace.Generate(gen)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			policy, err := fleet.NewPolicy("least-loaded")
			if err != nil {
				b.Fatal(err)
			}
			cfg := fleet.Config{
				Hosts:      32,
				Host:       fleet.DefaultHostSpec(),
				Policy:     policy,
				Profile:    core.AWS(),
				Workers:    workers,
				Overcommit: 2,
				Seed:       20260613,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Simulate(cfg, tr)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Served == 0 {
					b.Fatal("no requests served")
				}
			}
			b.SetBytes(int64(tr.Len())) // bytes/sec doubles as requests/sec
		})
	}
}

// BenchmarkFleetStream compares the materialized and streaming cluster
// pipelines at large request counts. Beyond requests/sec (SetBytes)
// and cumulative B/op (ReportAllocs), each run reports the peak live
// heap as "peak-heap-MB": the number that caps how large a workload
// fits in memory. The streamed report is byte-identical to the
// materialized one (see internal/fleet stream tests); only the
// resource profile differs.
//
// The generator's pod population grows with the trace, so the
// generator-driven streamed runs still carry O(pods) placement
// metadata. The streamed-fixedpods variant replays the same request
// counts over a fixed 400-pod population, isolating the per-request
// state: with histogram latency accounting its peak heap is flat in
// the trace length (EXPERIMENTS.md records the measured numbers, and
// TestStreamFlatHeapAcrossTraceSizes enforces the property in CI).
// At 1M requests the scenario variant replays a compiled four-tenant
// flash-crowd plan: the shaped path, whose placement pass reads the
// plan's timing-only pod scan. Run with:
//
//	go test -run '^$' -bench BenchmarkFleetStream -benchmem -benchtime 1x .
func BenchmarkFleetStream(b *testing.B) {
	// fleetCfg takes the innermost *testing.B: sub-benchmarks run on
	// their own goroutine, and Fatal must be called on the benchmark
	// that is actually running.
	fleetCfg := func(b *testing.B) fleet.Config {
		policy, err := fleet.NewPolicy("least-loaded")
		if err != nil {
			b.Fatal(err)
		}
		return fleet.Config{
			Hosts:      32,
			Host:       fleet.DefaultHostSpec(),
			Policy:     policy,
			Profile:    core.AWS(),
			Overcommit: 2,
			Seed:       20260613,
		}
	}
	// peakHeap reports the live-heap high-water mark of fn as a custom
	// metric, using the same sampler the memory smoke test uses.
	peakHeap := func(b *testing.B, fn func()) {
		b.Helper()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		peak := heapWatcher(fn)
		if peak < base {
			peak = base
		}
		b.ReportMetric(float64(peak-base)/(1<<20), "peak-heap-MB")
	}
	for _, requests := range []int{1_000_000, 10_000_000, 100_000_000} {
		gen := trace.DefaultGeneratorConfig()
		gen.Requests = requests
		name := fmt.Sprintf("requests=%dM", requests/1_000_000)
		b.Run(name+"/materialized", func(b *testing.B) {
			if requests > 10_000_000 {
				// Materializing 100M requests needs tens of GB of live
				// heap — the workload class the streaming pipeline
				// exists for. The streamed variants below cover 100M.
				b.Skip("materialized 100M-request trace exceeds sane memory budgets")
			}
			b.ReportAllocs()
			peakHeap(b, func() {
				for i := 0; i < b.N; i++ {
					tr := trace.Generate(gen)
					rep, err := fleet.Simulate(fleetCfg(b), tr)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Served == 0 {
						b.Fatal("no requests served")
					}
				}
			})
			b.SetBytes(int64(requests)) // bytes/sec doubles as requests/sec
		})
		b.Run(name+"/streamed", func(b *testing.B) {
			b.ReportAllocs()
			peakHeap(b, func() {
				for i := 0; i < b.N; i++ {
					rep, err := fleet.SimulateStream(context.Background(), fleetCfg(b), trace.GenerateSource(gen))
					if err != nil {
						b.Fatal(err)
					}
					if rep.Served == 0 {
						b.Fatal("no requests served")
					}
				}
			})
			b.SetBytes(int64(requests))
		})
		if requests == 1_000_000 {
			b.Run(name+"/scenario", func(b *testing.B) {
				sc, ok := scenario.ByName("flash-crowd")
				if !ok {
					b.Fatal("flash-crowd scenario missing")
				}
				plan, err := sc.Compile(scenario.Config{Base: gen, Tenants: 4})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				peakHeap(b, func() {
					for i := 0; i < b.N; i++ {
						rep, err := fleet.SimulatePlanStream(context.Background(), fleetCfg(b), plan)
						if err != nil {
							b.Fatal(err)
						}
						if rep.Served == 0 {
							b.Fatal("no requests served")
						}
					}
				})
				b.SetBytes(int64(requests))
			})
		}
		b.Run(name+"/streamed-fixedpods", func(b *testing.B) {
			b.ReportAllocs()
			peakHeap(b, func() {
				for i := 0; i < b.N; i++ {
					rep, err := fleet.SimulateStream(context.Background(), fleetCfg(b), fixedPodSource(400, requests))
					if err != nil {
						b.Fatal(err)
					}
					if rep.Served == 0 {
						b.Fatal("no requests served")
					}
				}
			})
			b.SetBytes(int64(requests))
		})
	}
}

// BenchmarkPolicySweep measures the policy-optimization layer: the
// default 24-config grid (internal/opt) evaluated against two
// scenarios at 10k requests each, as the evaluation pool widens over
// 1, 4, and 8 workers. The serialized sweep output is byte-identical
// at every width (evaluations are placed by grid index); only
// wall-clock changes. SetBytes counts total simulated requests, so
// bytes/sec doubles as requests/sec. CI runs the workers=4 case as a
// one-iteration regression smoke next to BenchmarkFleetStream.
func BenchmarkPolicySweep(b *testing.B) {
	scs, err := scenario.Subset("steady", "flash-crowd")
	if err != nil {
		b.Fatal(err)
	}
	base := trace.DefaultGeneratorConfig()
	base.Requests = 10000
	base.Seed = 20260613
	space := opt.DefaultSpace()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := opt.Config{
				Profile:   core.AWS(),
				Hosts:     16,
				Scenarios: scs,
				Scenario:  scenario.Config{Base: base},
				Seed:      20260613,
				Workers:   workers,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr, err := opt.Sweep(context.Background(), cfg, space)
				if err != nil {
					b.Fatal(err)
				}
				if len(sr.Frontier()) == 0 {
					b.Fatal("empty pareto frontier")
				}
			}
			b.SetBytes(int64(space.Size() * len(scs) * base.Requests))
		})
	}
}

// BenchmarkScenarioTrace measures workload-scenario synthesis (base
// generation plus shape-modulated re-timing) at 10k requests.
func BenchmarkScenarioTrace(b *testing.B) {
	sc, ok := scenario.ByName("flash-crowd")
	if !ok {
		b.Fatal("flash-crowd scenario missing")
	}
	cfg := scenario.DefaultConfig()
	cfg.Base.Requests = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Trace(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the hot paths behind the experiments.

func BenchmarkBillInvocation(b *testing.B) {
	inv := billing.Invocation{
		Duration:   120 * time.Millisecond,
		AllocCPU:   0.5,
		AllocMemGB: 1,
		CPUTime:    80 * time.Millisecond,
		MemUsedGB:  0.4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = billing.AWSLambda.Bill(inv)
	}
}

func BenchmarkCFSSimulateShortTask(b *testing.B) {
	cfg := cfs.ConfigFor(0.25, 20*time.Millisecond, 250, cfs.CFS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfs.Simulate(cfg, 51800*time.Microsecond)
	}
}

func BenchmarkCFSProfileSecond(b *testing.B) {
	cfg := cfs.ConfigFor(0.072, 20*time.Millisecond, 250, cfs.CFS)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfs.Profile(cfg, time.Second)
	}
}

func BenchmarkTraceGenerate10k(b *testing.B) {
	cfg := trace.DefaultGeneratorConfig()
	cfg.Requests = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = trace.Generate(cfg)
	}
}

func BenchmarkPlatformSim(b *testing.B) {
	cfg := platform.Config{
		Mode:      platform.SingleConcurrency,
		Workload:  workload.PyAES,
		VCPU:      1,
		ColdStart: 250 * time.Millisecond,
	}
	arr := platform.UniformArrivals(10, 10*time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Run(cfg, arr); err != nil {
			b.Fatal(err)
		}
	}
}
