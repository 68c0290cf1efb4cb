package fleet

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/scenario/faults"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// faultAxes are one-axis specs, each landing inside the 5-second
// arrival span the churn tests feed, so every eviction path (idle
// flush, drain-on-complete, hard-down kill) runs under every axis.
func faultAxes() map[string]*faults.Spec {
	d := func(s string) faults.Duration {
		v, err := time.ParseDuration(s)
		if err != nil {
			panic(err)
		}
		return faults.Duration(v)
	}
	return map[string]*faults.Spec{
		"crash":   {Crash: &faults.CrashSpec{Rate: 6, Restart: d("200ms")}},
		"preempt": {Preempt: &faults.PreemptSpec{Rate: 8, Notice: d("300ms"), Restart: d("200ms")}},
		"az-outage": {AZOutage: &faults.AZOutageSpec{
			Zones: 1, Zone: 0, At: 0.4, Duration: d("500ms")}},
		"drain": {Drains: []faults.DrainSpec{
			{From: 0.2, To: 0.8, Grace: d("100ms"), Restart: d("100ms")}}},
		"storm": {Storm: &faults.StormSpec{At: 0.5}},
	}
}

// TestFaultedHostIdleHeldExactlyZero extends the PR 7 float-drift
// property to every fault axis: whatever mix of sandbox sizes a host
// churned through — now punctuated by bulk evictions, kills, and
// deferred replays — the idle-held vCPU accumulator still reads
// exactly zero once the clock runs dry. Bulk eviction paths that
// subtract per-sandbox floats instead of clamping fail this test.
func TestFaultedHostIdleHeldExactlyZero(t *testing.T) {
	const horizon = 5 * time.Second
	for axis, spec := range faultAxes() {
		axis, spec := axis, spec
		t.Run(axis, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					plan, err := faults.Compile(spec, 1, horizon, seed)
					if err != nil {
						t.Fatal(err)
					}
					if plan.Empty() {
						t.Fatalf("axis %s compiled to an empty plan", axis)
					}
					rng := stats.NewRand(seed)
					sizes := []float64{0.1, 0.25, 0.3, 0.5, 0.7, 1.3}
					const pods = 400
					// Azure's keep-alive leaves the allocation untouched
					// while idle (RunAsUsual), so idle sandboxes actually
					// hold vCPUs; AWS freezes them and would never drift.
					cfg := testConfig(t, "least-loaded")
					cfg.Profile = core.Azure()
					cfg.Faults = plan
					var reqs []trace.Request
					now := time.Duration(0)
					for i := 0; i < pods; i++ {
						vcpu := sizes[rng.Intn(len(sizes))]
						fn := rng.Intn(11)
						init := time.Duration(10+rng.Intn(90)) * time.Millisecond
						reqs = append(reqs, trace.Request{
							FnID: fn, PodID: i, Start: now,
							Duration:  time.Duration(1+rng.Intn(400)) * time.Millisecond,
							CPUTime:   time.Duration(rng.Intn(200)) * time.Millisecond,
							MemUsedMB: 64, AllocCPU: vcpu, AllocMemMB: 128,
							ColdStart: true, InitDuration: init,
						})
						now += time.Duration(rng.Intn(20)) * time.Millisecond
					}
					hc, fed := testReplay(t, cfg, reqs)
					s := newHostSim(hc, 0)
					s.seedFaults(0) // before the clock first runs, as the stream path does
					for i := range fed {
						s.feed(fed[i], &reqs[i])
					}
					res := s.finish()
					if s.idleCount != 0 {
						t.Fatalf("host still counts %d idle sandboxes", s.idleCount)
					}
					if s.idleHeldCPU != 0 {
						t.Fatalf("host holds %v idle vCPUs, want exactly 0", s.idleHeldCPU)
					}
					if res.evicted+res.killed+res.deferredReqs == 0 {
						t.Fatalf("axis %s perturbed nothing (evicted=0 killed=0 deferred=0)", axis)
					}
					if res.expired+res.evicted != res.sandboxes {
						t.Fatalf("expired %d + evicted %d != %d sandboxes created",
							res.expired, res.evicted, res.sandboxes)
					}
				})
			}
		})
	}
}

// TestEvictedSandboxNotWarmAfterRestart pins the recovery contract a
// crashed host must honor: the sandbox the crash evicted is gone, so
// the same pod's next request after the restart pays a fresh cold
// start — it must never warm-hit a sandbox that no longer exists.
// Without eviction the AWS keep-alive window (minutes) would still be
// holding the sandbox warm at the probe instant.
func TestEvictedSandboxNotWarmAfterRestart(t *testing.T) {
	spec := &faults.Spec{AZOutage: &faults.AZOutageSpec{
		Zones: 1, Zone: 0, At: 0.2, Duration: faults.Duration(200 * time.Millisecond)}}
	const horizon = 10 * time.Second // Down at 2s, Up at 2.2s
	plan, err := faults.Compile(spec, 1, horizon, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "least-loaded")
	cfg.Faults = plan
	mk := func(start time.Duration) trace.Request {
		return trace.Request{FnID: 0, PodID: 0, Start: start,
			Duration: 100 * time.Millisecond, CPUTime: 50 * time.Millisecond,
			MemUsedMB: 64, AllocCPU: 0.5, AllocMemMB: 128,
			ColdStart: true, InitDuration: 50 * time.Millisecond}
	}
	reqs := []trace.Request{mk(1 * time.Second), mk(3 * time.Second)}
	hc, pods := testReplay(t, cfg, reqs)
	s := newHostSim(hc, 0)
	s.seedFaults(0)
	s.feed(pods[0], &reqs[0])
	s.feed(pods[1], &reqs[1]) // runs the 2s crash first, then arrives at 3s
	res := s.finish()
	if res.evicted != 1 {
		t.Fatalf("evicted %d sandboxes, want the idle one killed at 2s", res.evicted)
	}
	if res.sandboxes != 2 || res.cold != 2 {
		t.Fatalf("sandboxes=%d cold=%d, want 2 and 2: the post-restart request must cold-start",
			res.sandboxes, res.cold)
	}
}

// TestDeferredArrivalReplaysAtRecovery pins the deferred-replay
// bookkeeping end to end on one host: an arrival during the outage is
// deferred, replays at the Up instant, and records its queueing delay
// in the recovery histogram.
func TestDeferredArrivalReplaysAtRecovery(t *testing.T) {
	spec := &faults.Spec{AZOutage: &faults.AZOutageSpec{
		Zones: 1, Zone: 0, At: 0.2, Duration: faults.Duration(200 * time.Millisecond)}}
	const horizon = 10 * time.Second // Down at 2s, Up at 2.2s
	plan, err := faults.Compile(spec, 1, horizon, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "least-loaded")
	cfg.Faults = plan
	r := trace.Request{FnID: 0, PodID: 0, Start: 2100 * time.Millisecond,
		Duration: 100 * time.Millisecond, CPUTime: 50 * time.Millisecond,
		MemUsedMB: 64, AllocCPU: 0.5, AllocMemMB: 128,
		ColdStart: true, InitDuration: 50 * time.Millisecond}
	hc, pods := testReplay(t, cfg, []trace.Request{r})
	s := newHostSim(hc, 0)
	s.seedFaults(0)
	s.feed(pods[0], &r)
	res := s.finish()
	if res.deferredReqs != 1 || res.served != 1 {
		t.Fatalf("deferred=%d served=%d, want 1 and 1", res.deferredReqs, res.served)
	}
	sum := res.recovHist.Summary()
	if sum.N != 1 {
		t.Fatalf("recovery histogram holds %d observations, want 1", sum.N)
	}
	// Queued from 2.1s until the 2.2s restore: 100ms, within the
	// histogram's ~2.2% bucket resolution.
	if sum.Mean < 98 || sum.Mean > 102 {
		t.Fatalf("recovery delay %v ms, want ~100ms", sum.Mean)
	}
	if got := float64(res.downSecs); got != 0.2 {
		t.Fatalf("downSecs = %v, want exactly 0.2", got)
	}
}

// TestZeroRateFaultPlanByteIdentical pins the no-op identity: a
// compiled zero-rate fault plan (present but empty) leaves the report
// byte-identical to the no-fault baseline — the fault axis costs
// nothing unless it injects something.
func TestZeroRateFaultPlanByteIdentical(t *testing.T) {
	tr := testTrace(t, 6000, 7)
	base, err := Simulate(streamTestConfig(t, "least-loaded", 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := faults.Compile(&faults.Spec{
		Crash: &faults.CrashSpec{Rate: 0, Restart: faults.Duration(time.Minute)},
	}, 6, time.Hour, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() {
		t.Fatal("zero-rate spec compiled a non-empty plan")
	}
	cfg := streamTestConfig(t, "least-loaded", 2)
	cfg.Faults = empty
	rep, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, rep) {
		t.Errorf("zero-rate fault plan changed the report:\n%+v\nvs\n%+v", base, rep)
	}
	if a, b := renderReport(base), renderReport(rep); a != b {
		t.Errorf("zero-rate fault plan changed the rendered report:\n%s\nvs\n%s", a, b)
	}
}

// chaosPlanFor compiles the catalog chaos profile for the test
// cluster, with a horizon wide enough to land every axis inside the
// generated trace's span.
func chaosPlanFor(t *testing.T, hosts int, horizon time.Duration, seed uint64) *faults.Plan {
	t.Helper()
	p, err := faults.ByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Compile(&p.Spec, hosts, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFaultReportWorkerCountIndependent pins the sharding invariant
// under fault injection: evictions, kills, deferred replays, recovery
// quantiles, and availability are byte-identical for 1, 4, and 8
// workers — the fault schedule is compiled once, per host, before any
// shard runs.
func TestFaultReportWorkerCountIndependent(t *testing.T) {
	tr := testTrace(t, 8000, 11)
	horizon := tr.Requests[len(tr.Requests)-1].Start
	var base string
	var baseRep Report
	for i, workers := range []int{1, 4, 8} {
		cfg := streamTestConfig(t, "least-loaded", workers)
		cfg.Faults = chaosPlanFor(t, cfg.Hosts, horizon, cfg.Seed)
		rep, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if rep.EvictedSandboxes+rep.KilledRequests+rep.DeferredRequests == 0 {
			t.Fatal("chaos plan perturbed nothing")
		}
		rep.Workers = 0 // normalize the only legitimately varying field
		s := renderReport(rep)
		if i == 0 {
			base, baseRep = s, rep
			continue
		}
		if s != base {
			t.Errorf("workers=%d report differs:\n%s\nvs\n%s", workers, s, base)
		}
		if !reflect.DeepEqual(rep, baseRep) {
			t.Errorf("workers=%d report struct drifted", workers)
		}
	}
}

// TestFaultStreamMatchesMaterialized pins that the streaming pipeline
// replays the same fault schedule to the same report, byte for byte —
// including the crash-during-inflight path, which the race detector
// watches when CI runs this suite with -race.
func TestFaultStreamMatchesMaterialized(t *testing.T) {
	tr := testTrace(t, 8000, 13)
	horizon := tr.Requests[len(tr.Requests)-1].Start
	// A crash-dense schedule, so hard-downs reliably catch requests
	// mid-execution on every host.
	spec := &faults.Spec{Crash: &faults.CrashSpec{Rate: 40, Restart: faults.Duration(2 * time.Second)}}
	cfg := streamTestConfig(t, "bin-pack", 4)
	plan, err := faults.Compile(spec, cfg.Hosts, horizon, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	rep, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := streamTestConfig(t, "bin-pack", 4)
	cfg2.Faults = cfg.Faults
	srep, err := SimulateStream(context.Background(), cfg2, trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	if rep.KilledRequests == 0 {
		t.Fatal("chaos plan killed nothing in flight; the crash path went unexercised")
	}
	if a, b := renderReport(rep), renderReport(srep); a != b {
		t.Errorf("streamed fault report drifted from materialized:\n%s\nvs\n%s", a, b)
	}
}

// BenchmarkFaultStorm measures the fault-replay overhead on a
// crash-and-storm-dense schedule: bulk evictions, in-flight kills, and
// deferred replays all on the hot path. Benchguard pins its ns/op and
// B/op next to the healthy-path pipeline numbers, so a fault-path
// regression (say, a per-eviction allocation) cannot hide behind
// fault-free benchmarks.
func BenchmarkFaultStorm(b *testing.B) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 20_000
	gen.Seed = 17
	tr := trace.Generate(gen)
	horizon := tr.Requests[len(tr.Requests)-1].Start
	spec := &faults.Spec{
		Crash: &faults.CrashSpec{Rate: 30, Restart: faults.Duration(5 * time.Second)},
		Storm: &faults.StormSpec{At: 0.5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := NewPolicy("least-loaded")
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{
			Hosts: 6, Host: DefaultHostSpec(), Policy: pol, Profile: core.AWS(),
			Workers: 1, Overcommit: 2, Seed: 20260613,
		}
		if cfg.Faults, err = faults.Compile(spec, cfg.Hosts, horizon, cfg.Seed); err != nil {
			b.Fatal(err)
		}
		rep, err := Simulate(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if rep.EvictedSandboxes+rep.KilledRequests+rep.DeferredRequests == 0 {
			b.Fatal("storm bench perturbed nothing")
		}
	}
	b.SetBytes(int64(gen.Requests)) // requests/sec
}

// TestFaultsPlanHostCountMismatch pins the config guard: a plan
// compiled for a different cluster size is a configuration error, not
// a silent partial injection.
func TestFaultsPlanHostCountMismatch(t *testing.T) {
	cfg := streamTestConfig(t, "least-loaded", 1)
	cfg.Faults = chaosPlanFor(t, cfg.Hosts+1, time.Hour, 1)
	if _, err := Simulate(cfg, testTrace(t, 100, 1)); err == nil {
		t.Fatal("host-count mismatch must be rejected")
	}
}
