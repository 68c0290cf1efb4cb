package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// streamTestConfig returns a fresh config (policies are stateful, so
// every simulation gets its own instance).
func streamTestConfig(t *testing.T, policy string, workers int) Config {
	t.Helper()
	pol, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Hosts:      6,
		Host:       DefaultHostSpec(),
		Policy:     pol,
		Profile:    core.AWS(),
		Workers:    workers,
		Overcommit: 2,
		Seed:       20260613,
	}
}

// renderReport normalizes the one field that legitimately differs
// between runs being compared (the worker count is printed in the
// header) — callers comparing equal worker counts get the full text.
func renderReport(rep Report) string {
	var buf bytes.Buffer
	rep.WriteText(&buf)
	return buf.String()
}

// TestSimulateStreamMatchesSimulate is the tentpole acceptance
// property: for every catalog scenario, the streamed pipeline's report
// is byte-identical (WriteText) to the materialized one.
func TestSimulateStreamMatchesSimulate(t *testing.T) {
	for _, sc := range scenario.Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			scfg := scenario.DefaultConfig()
			scfg.Base.Requests = 4000

			rep, _, err := SimulateScenario(streamTestConfig(t, "least-loaded", 2), sc, scfg)
			if err != nil {
				t.Fatal(err)
			}
			srep, err := SimulateScenarioStream(context.Background(), streamTestConfig(t, "least-loaded", 2), sc, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := renderReport(rep), renderReport(srep); a != b {
				t.Errorf("streamed report drifted from materialized:\nmaterialized:\n%s\nstreamed:\n%s", a, b)
			}
		})
	}
}

// TestSimulateStreamRawTrace checks the raw-generator path and the
// materialized-trace adapter: Simulate(tr) and
// SimulateStream(context.Background(), SourceOf(tr)) agree byte-for-byte, as does
// SimulateStream over GenerateSource.
func TestSimulateStreamRawTrace(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 5000
	tr := trace.Generate(gen)

	rep, err := Simulate(streamTestConfig(t, "bin-pack", 3), tr)
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := SimulateStream(context.Background(), streamTestConfig(t, "bin-pack", 3), trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	fromGen, err := SimulateStream(context.Background(), streamTestConfig(t, "bin-pack", 3), trace.GenerateSource(gen))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderReport(rep), renderReport(fromTrace); a != b {
		t.Errorf("SourceOf path drifted:\n%s\nvs\n%s", a, b)
	}
	if a, b := renderReport(rep), renderReport(fromGen); a != b {
		t.Errorf("GenerateSource path drifted:\n%s\nvs\n%s", a, b)
	}
}

// TestStreamLatencyQuantilesWorkerIndependent is the histogram-merge
// property behind the latency accounting: because per-host latencies
// accumulate into fixed logarithmic histograms and merge by integer
// bucket addition in host order, every latency quantile — and the
// exactly tracked mean/min/max — is bit-identical for 1, 4, and 8
// workers, on the streaming and materialized paths alike.
func TestStreamLatencyQuantilesWorkerIndependent(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 6000
	tr := trace.Generate(gen)

	base, err := Simulate(streamTestConfig(t, "least-loaded", 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if base.Latency.N != base.Served {
		t.Fatalf("latency histogram count %d != served %d", base.Latency.N, base.Served)
	}
	for _, workers := range []int{1, 4, 8} {
		srep, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", workers), trace.SourceOf(tr))
		if err != nil {
			t.Fatal(err)
		}
		// Summary is a flat struct of floats; == catches any drift in
		// any quantile, the mean, min, max, or the count.
		if srep.Latency != base.Latency {
			t.Errorf("workers=%d: latency summary drifted:\n%+v\nvs\n%+v",
				workers, srep.Latency, base.Latency)
		}
		if srep.ContentionSlowdownP99 != base.ContentionSlowdownP99 {
			t.Errorf("workers=%d: slowdown p99 drifted: %v vs %v",
				workers, srep.ContentionSlowdownP99, base.ContentionSlowdownP99)
		}
	}
}

// TestSimulateStreamWorkerCountIndependent pins the sharding
// invariant on the streaming path: the report is identical for any
// worker count (only the printed worker number differs).
func TestSimulateStreamWorkerCountIndependent(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 4000
	var base string
	for i, workers := range []int{1, 2, 7} {
		rep, err := SimulateStream(context.Background(), streamTestConfig(t, "round-robin", workers), trace.GenerateSource(gen))
		if err != nil {
			t.Fatal(err)
		}
		rep.Workers = 0 // normalize the only legitimately varying field
		s := renderReport(rep)
		if i == 0 {
			base = s
			continue
		}
		if s != base {
			t.Errorf("workers=%d report differs:\n%s\nvs\n%s", workers, s, base)
		}
	}
}

// TestSimulateStreamStatefulPolicy pins that the stateful round-robin
// policy behaves identically on both paths (placement runs once, in
// the same order).
func TestSimulateStreamStatefulPolicy(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	tr := trace.Generate(gen)
	rep, err := Simulate(streamTestConfig(t, "round-robin", 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := SimulateStream(context.Background(), streamTestConfig(t, "round-robin", 2), trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderReport(rep), renderReport(srep); a != b {
		t.Errorf("round-robin drifted:\n%s\nvs\n%s", a, b)
	}
}

// TestSimulateStreamExactTie pins tie handling between the two paths:
// two requests from different pods arriving at the exact same
// nanosecond — rare in generated traces but expected at 10M+ requests
// once float arrivals quantize — must execute in the same order on the
// batch and streaming paths. The flavors are asymmetric and the tied
// demand exceeds host capacity, so a divergent order would change the
// admission-time contention factor and with it latency and billing.
func TestSimulateStreamExactTie(t *testing.T) {
	const tie = 1000 * time.Millisecond
	tr := &trace.Trace{Requests: []trace.Request{
		// Pod 1 (1 vCPU) arrives first overall; pod 2 (4 vCPU) second.
		{PodID: 1, FnID: 0, Start: 0, Duration: 50 * time.Millisecond,
			CPUTime: 10 * time.Millisecond, AllocCPU: 1, AllocMemMB: 2048,
			MemUsedMB: 100, ColdStart: true, InitDuration: 100 * time.Millisecond},
		{PodID: 2, FnID: 1, Start: 100 * time.Millisecond, Duration: 50 * time.Millisecond,
			CPUTime: 10 * time.Millisecond, AllocCPU: 4, AllocMemMB: 4096,
			MemUsedMB: 100, ColdStart: true, InitDuration: 100 * time.Millisecond},
		// The exact tie, in *reverse* pod-first-arrival order: the
		// 4-vCPU pod's request precedes the 1-vCPU pod's in the trace.
		{PodID: 2, FnID: 1, Start: tie, Duration: 200 * time.Millisecond,
			CPUTime: 40 * time.Millisecond, AllocCPU: 4, AllocMemMB: 4096, MemUsedMB: 100},
		{PodID: 1, FnID: 0, Start: tie, Duration: 200 * time.Millisecond,
			CPUTime: 40 * time.Millisecond, AllocCPU: 1, AllocMemMB: 2048, MemUsedMB: 100},
	}}
	mk := func() Config {
		pol, err := NewPolicy("bin-pack") // both pods land on host 0
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Hosts: 2, Host: HostSpec{VCPU: 4, MemMB: 32768}, Policy: pol,
			Profile: core.AWS(), Workers: 1, Overcommit: 2, Seed: 1,
		}
	}
	rep, err := Simulate(mk(), tr)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := SimulateStream(context.Background(), mk(), trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ContentionDelaySeconds == 0 {
		t.Fatal("test construction broken: the tie never contends, so order is unobservable")
	}
	if a, b := renderReport(rep), renderReport(srep); a != b {
		t.Errorf("exact-tie reports differ:\nmaterialized:\n%s\nstreamed:\n%s", a, b)
	}
}

// TestSimulateStreamErrors covers the streaming path's failure modes.
func TestSimulateStreamErrors(t *testing.T) {
	cfg := streamTestConfig(t, "least-loaded", 2)

	if _, err := SimulateStream(context.Background(), cfg, nil); err == nil {
		t.Error("nil source: expected error")
	}
	empty := trace.SourceOf(&trace.Trace{})
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), empty); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("empty source: got %v, want ErrEmptyTrace", err)
	}

	unsorted := &trace.Trace{Requests: []trace.Request{
		{PodID: 1, Start: 100, Duration: 1, AllocCPU: 1, AllocMemMB: 128},
		{PodID: 1, Start: 50, Duration: 1, AllocCPU: 1, AllocMemMB: 128},
	}}
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), trace.SourceOf(unsorted)); err == nil ||
		!strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted source: got %v", err)
	}

	flavorFlip := &trace.Trace{Requests: []trace.Request{
		{PodID: 1, Start: 50, Duration: 1, AllocCPU: 1, AllocMemMB: 128},
		{PodID: 1, Start: 100, Duration: 1, AllocCPU: 2, AllocMemMB: 128},
	}}
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), trace.SourceOf(flavorFlip)); err == nil ||
		!strings.Contains(err.Error(), "changes flavor") {
		t.Errorf("flavor flip: got %v", err)
	}

	// A source that yields different sequences on its two opens must be
	// rejected, not silently mis-simulated.
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 500
	big := trace.Generate(gen)
	small := &trace.Trace{Requests: big.Requests[:100]}
	opens := 0
	fickle := func() (trace.Stream, error) {
		opens++
		if opens == 1 {
			return trace.FromTrace(big), nil
		}
		return trace.FromTrace(small), nil
	}
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), fickle); err == nil ||
		!strings.Contains(err.Error(), "changed between passes") {
		t.Errorf("fickle source: got %v", err)
	}
}

// cancelAtStream counts every pull from the wrapped stream on a shared
// counter and fires cancel exactly once when the counter reaches the
// trigger point.
type cancelAtStream struct {
	inner  trace.Stream
	pulls  *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (cs *cancelAtStream) Next() (trace.Request, bool) {
	if cs.pulls.Add(1) == cs.at {
		cs.cancel()
	}
	return cs.inner.Next()
}

// TestSimulateStreamCancelBounded is the cancellation regression test:
// cancelling a 1M-request streamed simulation mid-replay must return
// context.Canceled after a bounded number of further source events —
// not after draining the remaining trace. The bound is the polling
// interval plus the batches already routed to shard channels, with
// generous slack; an unbounded drain would blow it by hundreds of
// thousands of events.
func TestSimulateStreamCancelBounded(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 1_000_000
	gen.Seed = 20260613

	// Cancel mid pass 2: after the full placement scan (1M pulls) plus
	// 100k replayed events.
	var pulls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := int64(gen.Requests + 100_000)
	src := func() (trace.Stream, error) {
		s, err := trace.GenerateSource(gen)()
		if err != nil {
			return nil, err
		}
		return &cancelAtStream{inner: s, pulls: &pulls, at: trigger, cancel: cancel}, nil
	}
	_, err := SimulateStream(ctx, streamTestConfig(t, "least-loaded", 4), src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SimulateStream: got %v, want context.Canceled", err)
	}
	// Polling happens every cancelCheckMask+1 events and each of the 4
	// shard channels can hold streamChannelDepth batches; 64k of slack
	// is more than an order of magnitude above both.
	if got, max := pulls.Load(), trigger+64_000; got > max {
		t.Errorf("cancelled stream pulled %d events, want <= %d (bounded cancellation)", got, max)
	}

	// Cancel mid pass 1 (the placement scan): same promptness contract.
	pulls.Store(0)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	src2 := func() (trace.Stream, error) {
		s, err := trace.GenerateSource(gen)()
		if err != nil {
			return nil, err
		}
		return &cancelAtStream{inner: s, pulls: &pulls, at: 100_000, cancel: cancel2}, nil
	}
	if _, err := SimulateStream(ctx2, streamTestConfig(t, "least-loaded", 4), src2); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan-phase cancel: got %v, want context.Canceled", err)
	}
	if got, max := pulls.Load(), int64(100_000+64_000); got > max {
		t.Errorf("scan-phase cancel pulled %d events, want <= %d", got, max)
	}

	// An already-cancelled context returns before pulling the source at all.
	done, doneCancel := context.WithCancel(context.Background())
	doneCancel()
	pulls.Store(0)
	src3 := func() (trace.Stream, error) {
		s, err := trace.GenerateSource(gen)()
		if err != nil {
			return nil, err
		}
		return &cancelAtStream{inner: s, pulls: &pulls, at: -1, cancel: func() {}}, nil
	}
	if _, err := SimulateStream(done, streamTestConfig(t, "least-loaded", 4), src3); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SimulateStream: got %v, want context.Canceled", err)
	}
	if got := pulls.Load(); got > 1024 {
		t.Errorf("pre-cancelled stream pulled %d events, want ~0", got)
	}
}

// TestPodScanMatchesRequestScan pins the PodScanner fast path: the pod
// metadata a calibrated generator stream or a scenario stream
// enumerates from its timing-only walk must exactly equal what the
// per-request fallback scan reconstructs from the emitted requests —
// same pods, same order, same flavors, extents, and request counts. It
// covers the raw generator and every catalog scenario with one and four
// tenants on two seeds, through compiled plans and scenario sources.
func TestPodScanMatchesRequestScan(t *testing.T) {
	type scanCase struct {
		name string
		src  trace.Source
	}
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 20000
	gen.Functions = 150
	gen.Seed = 99
	cases := []scanCase{{"raw", trace.GenerateSource(gen)}}
	for _, sc := range scenario.Catalog() {
		for _, tenants := range []int{1, 4} {
			for _, seed := range []uint64{7, 20260613} {
				scfg := scenario.DefaultConfig()
				scfg.Base.Requests = 10000
				scfg.Base.Seed = seed
				scfg.Tenants = tenants
				plan, err := sc.Compile(scfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/tenants=%d/seed=%d", sc.Name, tenants, seed)
				cases = append(cases,
					scanCase{name + "/plan", plan.Source()},
					scanCase{name + "/source", sc.Source(scfg)})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s1, err := tc.src()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s1.(trace.PodScanner); !ok {
				t.Fatal("stream does not implement trace.PodScanner")
			}
			fast, fastTotal, err := scanPods(context.Background(), s1)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := tc.src()
			if err != nil {
				t.Fatal(err)
			}
			slow, slowTotal, err := scanPodsSlow(context.Background(), s2)
			if err != nil {
				t.Fatal(err)
			}
			if fastTotal != slowTotal {
				t.Fatalf("request totals differ: fast %d, slow %d", fastTotal, slowTotal)
			}
			if len(fast) != len(slow) {
				t.Fatalf("pod counts differ: fast %d, slow %d", len(fast), len(slow))
			}
			for i := range fast {
				f, s := fast[i], slow[i]
				if f.id != s.id || f.fnID != s.fnID || f.vcpu != s.vcpu || f.memMB != s.memMB ||
					f.initMs != s.initMs || f.first != s.first || f.last != s.last || f.nreqs != s.nreqs {
					t.Fatalf("pod %d differs:\nfast: %+v\nslow: %+v", i, *f, *s)
				}
			}
		})
	}
}

// pullCounter counts what a simulation asks of its source. The streams
// it opens have exactly the optional interfaces of the streams they
// wrap, so the simulator takes the same path through them.
type pullCounter struct{ opens, pulls, scans int }

func (c *pullCounter) source(src trace.Source) trace.Source {
	return func() (trace.Stream, error) {
		s, err := src()
		if err != nil {
			return nil, err
		}
		c.opens++
		cs := &countedStream{Stream: s, c: c}
		is, into := s.(trace.IntoStream)
		ps, scan := s.(trace.PodScanner)
		switch {
		case into && scan:
			return countedIntoScan{countedInto{cs, is}, ps}, nil
		case into:
			return countedInto{cs, is}, nil
		case scan:
			return countedScan{cs, ps}, nil
		}
		return cs, nil
	}
}

type countedStream struct {
	trace.Stream
	c *pullCounter
}

func (s *countedStream) Next() (trace.Request, bool) {
	r, ok := s.Stream.Next()
	if ok {
		s.c.pulls++
	}
	return r, ok
}

type countedInto struct {
	*countedStream
	is trace.IntoStream
}

func (s countedInto) NextInto(r *trace.Request) bool {
	ok := s.is.NextInto(r)
	if ok {
		s.c.pulls++
	}
	return ok
}

type countedScan struct {
	*countedStream
	ps trace.PodScanner
}

func (s countedScan) PodScan() []trace.PodMeta {
	s.c.scans++
	return s.ps.PodScan()
}

type countedIntoScan struct {
	countedInto
	ps trace.PodScanner
}

func (s countedIntoScan) PodScan() []trace.PodMeta {
	s.c.scans++
	return s.ps.PodScan()
}

// TestSimulateStreamPullsScenarioOnce checks that one simulation over a
// scenario source synthesizes each request exactly once: the placement
// pass takes the stream's pod scan and pulls nothing, at one worker and
// at several.
func TestSimulateStreamPullsScenarioOnce(t *testing.T) {
	sc, ok := scenario.ByName("flash-crowd")
	if !ok {
		t.Fatal("flash-crowd scenario missing")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 20000
	scfg.Tenants = 4
	plan, err := sc.Compile(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		var c pullCounter
		rep, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", workers), c.source(plan.Source()))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != scfg.Base.Requests || c.opens != 2 || c.scans != 1 || c.pulls != scfg.Base.Requests {
			t.Errorf("workers=%d: %d requests simulated; %d opens, %d scans, %d pulls; want %d requests, 2 opens, 1 scan, %d pulls",
				workers, rep.Requests, c.opens, c.scans, c.pulls, scfg.Base.Requests, scfg.Base.Requests)
		}
	}
}

// TestSimulateStreamReleasesRun pins that a finished multi-worker
// simulation leaves nothing of itself reachable. Its routed batches
// hold *pod pointers into the pod array every pod shares, so one batch
// kept past the call (a sync.Pool keeps its contents through the next
// GC) pins every pod, sandbox and decider of the run.
func TestSimulateStreamReleasesRun(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 500_000
	src := trace.GenerateSource(gen)
	liveHeap := func() uint64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	liveHeap() // drop what earlier tests left to the collector
	before := liveHeap()
	if _, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 2), src); err != nil {
		t.Fatal(err)
	}
	if after := liveHeap(); after > before+1<<20 {
		t.Errorf("live heap %d B after the run, %d B before: the finished simulation is still reachable", after, before)
	}
}
