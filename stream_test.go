package slscost

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// heapWatcher samples the live heap while fn runs and returns the peak
// HeapAlloc observed (bytes). Sampling is approximate — it can miss a
// short spike between ticks — but the streaming pipeline's working set
// is steady for seconds at a time, so the peak it reports is a faithful
// bound for the claim under test.
func heapWatcher(fn func()) uint64 {
	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Deferred so the sampler stops even when fn bails out through
	// t.Fatal/b.Fatal (runtime.Goexit) — a leaked sampler would keep
	// stop-the-world ReadMemStats ticking under every later test.
	defer close(done)
	fn()
	return peak.Load()
}

// TestStreamBoundedMemory is the CI memory-bound smoke: a one-million-
// request cluster simulation through the streaming pipeline must stay
// within a live-heap budget an order of magnitude below what the
// materialized path needs for the same workload (the trace alone is
// ~140 MB at this size; the streamed working set is pod placement
// metadata, fixed-size latency/slowdown histograms, and in-flight
// batches — nothing per-request). The budget is generous — 128 MB —
// so the test flags an accidental re-materialization of the request
// stream, not GC pacing noise.
func TestStreamBoundedMemory(t *testing.T) {
	const (
		requests  = 1_000_000
		heapLimit = 128 << 20
	)
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = requests

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var rep fleet.Report
	peak := heapWatcher(func() {
		policy, err := fleet.NewPolicy("least-loaded")
		if err != nil {
			t.Fatal(err)
		}
		cfg := fleet.Config{
			Hosts:      32,
			Host:       fleet.DefaultHostSpec(),
			Policy:     policy,
			Profile:    core.AWS(),
			Overcommit: 2,
			Seed:       20260613,
		}
		rep, err = fleet.SimulateStream(context.Background(), cfg, trace.GenerateSource(gen))
		if err != nil {
			t.Fatal(err)
		}
	})

	if rep.Requests != requests {
		t.Fatalf("simulated %d requests, want %d", rep.Requests, requests)
	}
	if rep.Served == 0 {
		t.Fatal("no requests served")
	}
	if peak < base.HeapAlloc {
		peak = base.HeapAlloc // a GC between baseline and first sample shrank the heap
	}
	grew := peak - base.HeapAlloc
	t.Logf("peak live heap during %d-request streamed simulation: %.1f MB (baseline %.1f MB)",
		requests, float64(peak)/(1<<20), float64(base.HeapAlloc)/(1<<20))
	if grew > heapLimit {
		t.Errorf("streamed simulation grew the live heap by %.1f MB, budget %d MB — "+
			"is the pipeline materializing the trace?", float64(grew)/(1<<20), heapLimit>>20)
	}
}

// TestMaterializedEqualsStreamAtScale holds the materialized views to
// the streaming pipeline at the scale the benchmarks run, where a
// second implementation would drift first (float sums over a million
// durations move the last bits): trace.Generate equals the collected
// GenerateStream, and fleet.Simulate over a scenario's collected trace
// marshals to the same JSON as fleet.SimulateStream over its source,
// at 1M requests.
func TestMaterializedEqualsStreamAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-request traces; skipped in -short")
	}
	if raceEnabled {
		t.Skip("1M-request traces are too slow under race instrumentation")
	}
	const requests = 1_000_000
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = requests
	gen.Seed = 20260613
	want, got := trace.Generate(gen), trace.Collect(trace.GenerateStream(gen), 0)
	if got.Len() != want.Len() {
		t.Fatalf("stream emitted %d requests, Generate %d", got.Len(), want.Len())
	}
	for i := range want.Requests {
		if got.Requests[i] != want.Requests[i] {
			t.Fatalf("request %d differs:\nstream:   %+v\ngenerate: %+v", i, got.Requests[i], want.Requests[i])
		}
	}
	want, got = nil, nil

	policy, err := fleet.NewPolicy("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.Config{
		Hosts:      32,
		Host:       fleet.DefaultHostSpec(),
		Policy:     policy,
		Profile:    core.AWS(),
		Overcommit: 2,
		Seed:       20260613,
	}
	sc, ok := scenario.ByName("steady")
	if !ok {
		t.Fatal("no steady scenario")
	}
	scfg := scenario.Config{Base: gen, Tenants: 1}
	tr, err := sc.Trace(scfg)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := fleet.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr = nil
	streamed, err := fleet.SimulateStream(context.Background(), cfg, sc.Source(scfg))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(mat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("Simulate over the collected trace and SimulateStream reports differ at %d requests:\n%s\nvs\n%s", requests, a, b)
	}
}

// fixedPodStream emits requests round-robin across a fixed pod
// population with strictly increasing arrivals: a workload whose pod
// count — and therefore the streamed pipeline's placement metadata —
// does not grow with the request count. Re-opening yields the
// identical sequence, satisfying SimulateStream's two-pass contract.
type fixedPodStream struct {
	pods, requests, i int
}

func (s *fixedPodStream) Next() (trace.Request, bool) {
	if s.i >= s.requests {
		return trace.Request{}, false
	}
	i := s.i
	s.i++
	pod := i % s.pods
	r := trace.Request{
		PodID:      pod,
		FnID:       pod % 16,
		Start:      time.Duration(i) * 200 * time.Microsecond,
		Duration:   5 * time.Millisecond,
		CPUTime:    2 * time.Millisecond,
		AllocCPU:   0.5,
		AllocMemMB: 128,
		MemUsedMB:  64,
	}
	if i < s.pods {
		r.ColdStart = true
		r.InitDuration = 100 * time.Millisecond
	}
	return r, true
}

func fixedPodSource(pods, requests int) trace.Source {
	return func() (trace.Stream, error) {
		return &fixedPodStream{pods: pods, requests: requests}, nil
	}
}

// TestStreamFlatHeapAcrossTraceSizes pins the tentpole memory claim:
// with the pod population held fixed, SimulateStream's peak live heap
// is independent of the trace length. Latency accounting is the
// per-request quantity that used to break this — every host retained
// a float64 per served request (and pre-sized the slice to its request
// count), so a 10× longer trace grew the heap by 8 bytes × requests.
// With histogram accounting the only O(requests) state left would be a
// regression, and the 10× run would exceed the small run by tens of
// MB; the allowed slack is far below that signal.
func TestStreamFlatHeapAcrossTraceSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-request simulations; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts live-heap measurement and slows the 4.4M-request run ~10-20x")
	}
	const (
		pods     = 400
		small    = 400_000
		large    = 4_000_000 // 10× — would carry ≥ 28.8 MB of retained latency samples
		slack    = 16 << 20
		absLimit = 64 << 20
	)
	run := func(requests int) uint64 {
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		var rep fleet.Report
		peak := heapWatcher(func() {
			policy, err := fleet.NewPolicy("least-loaded")
			if err != nil {
				t.Fatal(err)
			}
			cfg := fleet.Config{
				Hosts:      32,
				Host:       fleet.DefaultHostSpec(),
				Policy:     policy,
				Profile:    core.AWS(),
				Overcommit: 2,
				Seed:       20260613,
			}
			rep, err = fleet.SimulateStream(context.Background(), cfg, fixedPodSource(pods, requests))
			if err != nil {
				t.Fatal(err)
			}
		})
		if rep.Served != requests {
			t.Fatalf("served %d of %d requests", rep.Served, requests)
		}
		if peak < base.HeapAlloc {
			peak = base.HeapAlloc
		}
		grew := peak - base.HeapAlloc
		t.Logf("%d requests over %d pods: peak live heap grew %.1f MB", requests, pods, float64(grew)/(1<<20))
		return grew
	}

	grewSmall := run(small)
	grewLarge := run(large)
	if grewLarge > absLimit {
		t.Errorf("large run grew the live heap by %.1f MB, limit %d MB", float64(grewLarge)/(1<<20), absLimit>>20)
	}
	if grewLarge > grewSmall+slack {
		t.Errorf("peak heap not flat across a 10× trace: %.1f MB at %d requests vs %.1f MB at %d (slack %d MB) — "+
			"is per-request state being retained again?",
			float64(grewLarge)/(1<<20), large, float64(grewSmall)/(1<<20), small, slack>>20)
	}
}
