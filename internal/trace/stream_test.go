package trace

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCollectFromTraceRoundTrip is the adapter round-trip property:
// Collect(FromTrace(tr), n) reproduces tr exactly, for generated traces
// of several sizes including empty, whatever capacity n suggests.
func TestCollectFromTraceRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 17, 5000} {
		cfg := DefaultGeneratorConfig()
		cfg.Requests = n
		tr := Generate(cfg)
		for _, hint := range []int{0, n / 2, n, 2 * n} {
			got := Collect(FromTrace(tr), hint)
			if got.Len() != tr.Len() {
				t.Fatalf("requests=%d hint=%d: round-trip length %d != %d", n, hint, got.Len(), tr.Len())
			}
			for i := range tr.Requests {
				if got.Requests[i] != tr.Requests[i] {
					t.Fatalf("requests=%d hint=%d: request %d drifted: %+v vs %+v",
						n, hint, i, got.Requests[i], tr.Requests[i])
				}
			}
		}
	}
}

// TestGenerateStreamMatchesGenerate pins that Generate stays a view of
// the one generator: Collect(GenerateStream(cfg)) is bit-identical to
// Generate(cfg) across seeds, sizes, skews, and flavor biases.
// TestMaterializedEqualsStreamAtScale repeats the check at 1M
// requests.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cases := []GeneratorConfig{
		{}, // zero config: both paths must yield an empty trace
		func() GeneratorConfig {
			c := DefaultGeneratorConfig()
			c.Requests = 5000
			return c
		}(),
		{Requests: 2000, Functions: 50, Seed: 1},
		{Requests: 100, Functions: 400, Seed: 2}, // more functions than requests
		{Requests: 3000, Functions: 30, Seed: 3, ZipfExponent: 1.8, FlavorBias: 1},
		{Requests: 3000, Functions: 30, Seed: 4, ZipfExponent: 0.4, FlavorBias: -2},
		{Requests: 1000, Functions: 1, Seed: 5},
		{Requests: 2500, Functions: 80, Seed: 6, ColdStartRate: 0.3, MeanDurationMs: 500},
	}
	for _, cfg := range cases {
		want := Generate(cfg)
		got := Collect(GenerateStream(cfg), 0)
		if got.Len() != want.Len() {
			t.Fatalf("cfg %+v: stream emitted %d requests, Generate %d", cfg, got.Len(), want.Len())
		}
		for i := range want.Requests {
			if got.Requests[i] != want.Requests[i] {
				t.Fatalf("cfg %+v: request %d differs:\nstream:   %+v\ngenerate: %+v",
					cfg, i, got.Requests[i], want.Requests[i])
			}
		}
	}
}

// TestGenerateStreamOrdered pins the Stream contract itself: arrivals
// never move backwards.
func TestGenerateStreamOrdered(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 8000
	s := GenerateStream(cfg)
	prev, ok := s.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	n := 1
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Start < prev.Start {
			t.Fatalf("request %d at %v after %v", n, r.Start, prev.Start)
		}
		prev = r
		n++
	}
	if n != cfg.Requests {
		t.Fatalf("stream yielded %d requests, want %d", n, cfg.Requests)
	}
}

// TestGenerateByFunctionPartition checks that a calibration's
// per-function streams partition the generated trace: each stream
// carries exactly its function's requests, in order, with the
// advertised count, and the calibrated pod total matches the trace's.
func TestGenerateByFunctionPartition(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 4000
	cal := Calibrate(cfg)
	fns, pods := cal.Streams(), cal.Pods()
	tr := Generate(cfg)

	byFn := make(map[int][]Request)
	maxPod := 0
	for _, r := range tr.Requests {
		byFn[r.FnID] = append(byFn[r.FnID], r)
		if r.PodID > maxPod {
			maxPod = r.PodID
		}
	}
	if pods != maxPod {
		t.Fatalf("pod total %d, trace max pod %d", pods, maxPod)
	}
	if len(fns) != cfg.Functions {
		t.Fatalf("got %d function streams, want %d", len(fns), cfg.Functions)
	}
	for _, f := range fns {
		want := byFn[f.FnID()]
		if f.Len() != len(want) {
			t.Fatalf("fn %d: Len %d, trace has %d", f.FnID(), f.Len(), len(want))
		}
		got := Collect(f, f.Len())
		if !reflect.DeepEqual(got.Requests, want) && !(len(want) == 0 && got.Len() == 0) {
			t.Fatalf("fn %d: stream requests differ from trace subset", f.FnID())
		}
	}
}

// TestMergeTieBreak pins Merge's determinism rule: simultaneous
// arrivals come out in source order.
func TestMergeTieBreak(t *testing.T) {
	a := &Trace{Requests: []Request{{FnID: 0, Start: 10}, {FnID: 0, Start: 30}}}
	b := &Trace{Requests: []Request{{FnID: 1, Start: 10}, {FnID: 1, Start: 20}}}
	got := Collect(Merge(FromTrace(a), FromTrace(b)), 0)
	wantFns := []int{0, 1, 1, 0}
	for i, r := range got.Requests {
		if r.FnID != wantFns[i] {
			t.Fatalf("position %d: fn %d, want %d (order %+v)", i, r.FnID, wantFns[i], got.Requests)
		}
	}
}

// TestCollectAllocsFlat pins Collect's presizing: with the expected
// request count as its capacity hint, collecting a generator stream
// allocates the result once, so the allocation count does not grow
// with the trace. Without the hint the slice would regrow, and a pull
// through Next would move a Request to the heap per call.
func TestCollectAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		cfg := DefaultGeneratorConfig()
		cfg.Requests = n
		cal := Calibrate(cfg)
		return testing.AllocsPerRun(2, func() {
			if got := Collect(cal.Stream(), n); got.Len() != n {
				t.Fatalf("collected %d requests, want %d", got.Len(), n)
			}
		})
	}
	small, large := allocs(20_000), allocs(100_000)
	t.Logf("Collect allocations: %.0f at 20k requests, %.0f at 100k", small, large)
	if large > small+100 {
		t.Errorf("Collect allocates %.0f times at 100k requests against %.0f at 20k: not presized", large, small)
	}
}

// countedSource is a generator source whose openings count the pod
// scans they run.
func countedSource(cfg GeneratorConfig, scans *atomic.Int64) Source {
	c := Calibrate(cfg)
	return func() (Stream, error) {
		return WithPodScan(c.merge, func() []PodMeta {
			scans.Add(1)
			return c.AppendPodMetas(make([]PodMeta, 0, c.Pods()), nil)
		}), nil
	}
}

// TestShareScanScansOnce pins ShareScan's contract: sharing runs no
// scan up front, the first PodScan runs the underlying scan, and every
// opening returns that one slice, equal pod for pod to an unshared
// opening's scan, while still streaming its own requests.
func TestShareScanScansOnce(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 5000
	want := GenerateStream(cfg).(PodScanner).PodScan()
	tr := Generate(cfg)
	var scans atomic.Int64
	src := ShareScan(countedSource(cfg, &scans))
	if n := scans.Load(); n != 0 {
		t.Fatalf("sharing ran %d scans before any PodScan", n)
	}
	var first []PodMeta
	for i := 0; i < 3; i++ {
		s, err := src()
		if err != nil {
			t.Fatal(err)
		}
		got := s.(PodScanner).PodScan()
		if !slices.Equal(got, want) {
			t.Fatalf("opening %d: shared scan differs from an unshared opening's", i)
		}
		if i == 0 {
			first = got
		} else if &got[0] != &first[0] {
			t.Fatalf("opening %d scanned a slice of its own", i)
		}
		if !reflect.DeepEqual(Collect(s, cfg.Requests), tr) {
			t.Fatalf("opening %d: requests differ from Generate's", i)
		}
	}
	if n := scans.Load(); n != 1 {
		t.Fatalf("%d underlying scans for three openings, want 1", n)
	}
}

// TestShareScanConcurrent opens and scans a shared source from several
// goroutines at once; run it under -race. Every opening must get the
// one scan.
func TestShareScanConcurrent(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 5000
	var scans atomic.Int64
	src := ShareScan(countedSource(cfg, &scans))
	const openings = 8
	got := make([][]PodMeta, openings)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := src()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = s.(PodScanner).PodScan()
		}()
	}
	wg.Wait()
	if n := scans.Load(); n != 1 {
		t.Fatalf("%d underlying scans for %d concurrent openings, want 1", n, openings)
	}
	for i := range got {
		if len(got[i]) == 0 || &got[i][0] != &got[0][0] {
			t.Fatalf("opening %d did not get the shared scan", i)
		}
	}
}

// TestShareScanLeavesUnscannableSource checks that a source whose
// streams cannot scan comes back as it was: a recorded trace's openings
// stay plain slice streams, and a source that fails to open still fails
// on open.
func TestShareScanLeavesUnscannableSource(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Requests = 200
	tr := Generate(cfg)
	src := SourceOf(tr)
	shared := ShareScan(src)
	if reflect.ValueOf(shared).Pointer() != reflect.ValueOf(src).Pointer() {
		t.Fatal("ShareScan wrapped a source that cannot scan")
	}
	s, err := shared()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(PodScanner); ok {
		t.Fatal("a recorded trace's opening gained a pod scan")
	}
	if !reflect.DeepEqual(Collect(s, tr.Len()), tr) {
		t.Fatal("shared recorded source streams different requests")
	}

	boom := errors.New("boom")
	failing := ShareScan(func() (Stream, error) { return nil, boom })
	if _, err := failing(); !errors.Is(err, boom) {
		t.Fatalf("failing source opened with %v, want %v", err, boom)
	}
}
