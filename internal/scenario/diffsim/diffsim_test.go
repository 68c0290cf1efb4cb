package diffsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// fleetConfig builds a small cluster config for tests.
func fleetConfig(t *testing.T, policy string, prof core.Profile, hosts int) fleet.Config {
	t.Helper()
	pol, err := fleet.NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.Config{
		Hosts:      hosts,
		Host:       fleet.DefaultHostSpec(),
		Policy:     pol,
		Profile:    prof,
		Overcommit: 2,
		Seed:       20260613,
	}
}

// checkExact returns an error naming the first divergent metric unless
// every metric agrees exactly. The oracle sums every float in the
// fleet's order, so agreement is exact by construction; a nonzero
// delta, however far below DefaultTolerance, is a real divergence
// (a summation-order slip in the host fold, for one).
func checkExact(res *Result) error {
	if res.MaxRelDelta != 0 {
		return fmt.Errorf("max rel delta %v (first mismatch %s)", res.MaxRelDelta, res.FirstMismatch(0))
	}
	return nil
}

func scenarioTrace(t *testing.T, name string, requests int) *trace.Trace {
	t.Helper()
	sc, ok := scenario.ByName(name)
	if !ok {
		t.Fatalf("unknown scenario %s", name)
	}
	cfg := scenario.DefaultConfig()
	cfg.Base.Requests = requests
	cfg.Base.Functions = 80
	tr, err := sc.Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestEveryScenarioAgrees is the acceptance-criteria oracle: on every
// shipped scenario, the independent per-host replay must reproduce the
// fleet simulator's billed cost (and every other compared metric)
// exactly.
func TestEveryScenarioAgrees(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := scenarioTrace(t, name, 8000)
			res, rep, err := Verify(fleetConfig(t, "least-loaded", core.AWS(), 8), tr, DefaultTolerance)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Served == 0 {
				t.Fatal("nothing served")
			}
			if err := checkExact(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAgreementAcrossPoliciesAndPlatforms drives the harness through
// every placement policy and each keep-alive regime of Table 2 (freeze-
// resume, scale-down, run-as-usual), which exercise different idle-
// holding and window-sampling paths.
func TestAgreementAcrossPoliciesAndPlatforms(t *testing.T) {
	tr := scenarioTrace(t, "bursty", 6000)
	for _, policy := range fleet.PolicyNames() {
		for _, prof := range []core.Profile{core.AWS(), core.GCP(), core.Azure()} {
			res, _, err := Verify(fleetConfig(t, policy, prof, 6), tr, DefaultTolerance)
			if err == nil {
				err = checkExact(res)
			}
			if err != nil {
				t.Errorf("%s/%s: %v", policy, prof.Name, err)
			}
		}
	}
}

func TestAgreementElasticPool(t *testing.T) {
	tr := scenarioTrace(t, "flash-crowd", 6000)
	cfg := fleetConfig(t, "least-loaded", core.AWS(), 8)
	cfg.Elastic = true
	res, _, err := Verify(cfg, tr, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExact(res); err != nil {
		t.Fatal(err)
	}
}

// TestAgreementRawTrace covers the unshaped generator path, including
// the contention/probe machinery under a deliberately tiny host.
func TestAgreementRawTrace(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 6000
	tr := trace.Generate(gen)
	cfg := fleetConfig(t, "bin-pack", core.AWS(), 2)
	cfg.Host = fleet.HostSpec{VCPU: 2, MemMB: 16384}
	res, rep, err := Verify(cfg, tr, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ContentionDelaySeconds == 0 {
		t.Log("note: no contention induced; probe path unexercised")
	}
	if err := checkExact(res); err != nil {
		t.Fatal(err)
	}
}

// TestDiffDetectsDivergence: the harness must actually fail when the
// two sides disagree — corrupt the fleet report and expect Check to
// name the metric.
func TestDiffDetectsDivergence(t *testing.T) {
	tr := scenarioTrace(t, "steady", 4000)
	cfg := fleetConfig(t, "least-loaded", core.AWS(), 4)
	rep, err := fleet.Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Replay(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep.TotalCost *= 1.02
	res := Diff(rep, agg)
	err = res.Check(DefaultTolerance)
	if err == nil {
		t.Fatal("corrupted report passed verification")
	}
	if !strings.Contains(err.Error(), "total-cost") {
		t.Errorf("error does not name the diverging metric: %v", err)
	}
}

// TestFlashCrowdColdStartExceedsSteady pins the fleet-level acceptance
// behavior at test scale: same request volume, same cluster, higher
// cold-start rate under the flash crowd.
func TestFlashCrowdColdStartExceedsSteady(t *testing.T) {
	rate := func(name string) float64 {
		rep, err := fleet.Simulate(fleetConfig(t, "least-loaded", core.AWS(), 8), scenarioTrace(t, name, 10000))
		if err != nil {
			t.Fatal(err)
		}
		return rep.ColdStartRate()
	}
	steady, flash := rate("steady"), rate("flash-crowd")
	if flash <= steady {
		t.Fatalf("flash-crowd cold rate %.4f not above steady %.4f", flash, steady)
	}
}

func TestReplayRejectsBadConfig(t *testing.T) {
	tr := scenarioTrace(t, "steady", 1000)
	cfg := fleetConfig(t, "least-loaded", core.AWS(), 8)
	cfg.Hosts = 0
	if _, err := Replay(cfg, tr); err == nil {
		t.Fatal("expected config error")
	}
}

// TestVerifyStream runs the differential oracle against the streaming
// pipeline: the streamed fleet report must be reproduced by the
// independent per-host replay of the same source.
func TestVerifyStream(t *testing.T) {
	sc, ok := scenario.ByName("bursty")
	if !ok {
		t.Fatal("bursty scenario missing")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 3000
	res, rep, err := VerifyStream(context.Background(), fleetConfig(t, "least-loaded", core.AWS(), 4), sc.Source(scfg), DefaultTolerance)
	if err != nil {
		t.Fatalf("streamed report failed differential verification: %v", err)
	}
	if rep.Served == 0 {
		t.Fatal("no requests served")
	}
	if err := checkExact(res); err != nil {
		t.Error(err)
	}
}

// TestArrivalWinsSameInstantTie pins the oracle's tie rule on a trace
// built to contain an exact tie, which generated traces almost never
// do: a request arrives at the very instant its pod's first request
// completes. The fleet admits the arrival first (a host runs only
// strictly-earlier events before an arrival), so the two overlap on a
// one-vCPU host and contend; an oracle that let the completion win
// the tie would see no contention and disagree.
func TestArrivalWinsSameInstantTie(t *testing.T) {
	req := func(start time.Duration, cold bool) trace.Request {
		r := trace.Request{FnID: 1, PodID: 1, Start: start, Duration: 50 * time.Millisecond,
			CPUTime: 20 * time.Millisecond, MemUsedMB: 64, AllocCPU: 1, AllocMemMB: 128, ColdStart: cold}
		if cold {
			r.InitDuration = 100 * time.Millisecond
		}
		return r
	}
	// The first request completes at init + duration = 150 ms.
	tr := &trace.Trace{Requests: []trace.Request{req(0, true), req(150*time.Millisecond, false)}}
	cfg := fleetConfig(t, "least-loaded", core.AWS(), 1)
	cfg.Host = fleet.HostSpec{VCPU: 1, MemMB: 4096}
	res, rep, err := Verify(cfg, tr, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ContentionDelaySeconds == 0 {
		t.Fatal("no contention: the fleet did not admit the tied arrival first")
	}
	if err := checkExact(res); err != nil {
		t.Fatal(err)
	}
}

// TestExactTieAgrees replays the fleet's own exact-tie trace
// (fleet.TestSimulateStreamExactTie) through the oracle: two pods'
// requests arrive at the same nanosecond on one host, in the reverse
// of the pods' first-arrival order. The fleet admits them in trace
// order, and the admission order sets each one's contention factor,
// so an oracle that broke the tie any other way would disagree on
// latency and billing. Checked through Verify and through VerifyStream
// at one and three workers.
func TestExactTieAgrees(t *testing.T) {
	const tie = 1000 * time.Millisecond
	tr := &trace.Trace{Requests: []trace.Request{
		{PodID: 1, FnID: 0, Start: 0, Duration: 50 * time.Millisecond,
			CPUTime: 10 * time.Millisecond, AllocCPU: 1, AllocMemMB: 2048,
			MemUsedMB: 100, ColdStart: true, InitDuration: 100 * time.Millisecond},
		{PodID: 2, FnID: 1, Start: 100 * time.Millisecond, Duration: 50 * time.Millisecond,
			CPUTime: 10 * time.Millisecond, AllocCPU: 4, AllocMemMB: 4096,
			MemUsedMB: 100, ColdStart: true, InitDuration: 100 * time.Millisecond},
		{PodID: 2, FnID: 1, Start: tie, Duration: 200 * time.Millisecond,
			CPUTime: 40 * time.Millisecond, AllocCPU: 4, AllocMemMB: 4096, MemUsedMB: 100},
		{PodID: 1, FnID: 0, Start: tie, Duration: 200 * time.Millisecond,
			CPUTime: 40 * time.Millisecond, AllocCPU: 1, AllocMemMB: 2048, MemUsedMB: 100},
	}}
	cfg := fleetConfig(t, "bin-pack", core.AWS(), 2) // both pods land on host 0
	cfg.Host = fleet.HostSpec{VCPU: 4, MemMB: 32768}
	cfg.Seed = 1
	cfg.Workers = 1
	res, rep, err := Verify(cfg, tr, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ContentionDelaySeconds == 0 {
		t.Fatal("test construction broken: the tie never contends, so order is unobservable")
	}
	if err := checkExact(res); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		res, _, err := VerifyStream(context.Background(), cfg, trace.SourceOf(tr), DefaultTolerance)
		if err != nil {
			t.Fatalf("VerifyStream at %d workers: %v", workers, err)
		}
		if err := checkExact(res); err != nil {
			t.Fatalf("VerifyStream at %d workers: %v", workers, err)
		}
	}
}

// TestSparsePodIDsAgree: pod IDs are only labels. A flash-crowd trace
// whose every pod ID p becomes 1_000_000_007 - (p*7919 mod 100003)*1000
// (injective below 100003, since 7919 is a unit mod the prime 100003)
// has IDs far sparser than its pods and in an order unrelated to first
// arrival, so the fleet resolves them through its map index, not its
// dense one, and the oracle's slots do not follow the IDs. The fleet
// must render the report of the original trace at 1 and 3 workers, and
// the oracle must agree with it exactly.
func TestSparsePodIDsAgree(t *testing.T) {
	tr := scenarioTrace(t, "flash-crowd", 20000)
	sparse := &trace.Trace{Requests: slices.Clone(tr.Requests)}
	ids := make(map[int]bool)
	lo, hi := math.MaxInt, math.MinInt
	for i := range sparse.Requests {
		r := &sparse.Requests[i]
		if r.PodID < 0 || r.PodID >= 100003 {
			t.Fatalf("pod ID %d outside the remap's injective range", r.PodID)
		}
		r.PodID = 1_000_000_007 - (r.PodID*7919%100003)*1000
		ids[r.PodID] = true
		lo, hi = min(lo, r.PodID), max(hi, r.PodID)
	}
	if hi-lo+1 == len(ids) {
		t.Fatalf("test construction broken: %d remapped pod IDs are dense", len(ids))
	}
	cfg := fleetConfig(t, "least-loaded", core.AWS(), 8)
	render := func(tr *trace.Trace) []byte {
		t.Helper()
		rep, err := fleet.Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("%d workers: %v", cfg.Workers, err)
		}
		if rep.Served == 0 {
			t.Fatalf("%d workers: nothing served", cfg.Workers)
		}
		var b bytes.Buffer
		rep.WriteText(&b)
		return b.Bytes()
	}
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		if got, want := render(sparse), render(tr); !bytes.Equal(got, want) {
			t.Fatalf("%d workers: report over sparse pod IDs differs from the original:\n%s\nwant:\n%s", workers, got, want)
		}
	}
	res, _, err := VerifyStream(context.Background(), cfg, trace.SourceOf(sparse), DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExact(res); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyStreamCancelStopsOracle: cancelling the context after the
// streamed simulation has finished must stop the oracle too. The source
// cancels on its third opening — the oracle's, after the fleet's
// placement scan and replay — so VerifyStream must return
// context.Canceled and no result instead of replaying to the end.
func TestVerifyStreamCancelStopsOracle(t *testing.T) {
	sc, ok := scenario.ByName("bursty")
	if !ok {
		t.Fatal("bursty scenario missing")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 3000
	src := sc.Source(scfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opens := 0
	cancelling := func() (trace.Stream, error) {
		opens++
		if opens == 3 {
			cancel()
		}
		return src()
	}
	res, _, err := VerifyStream(ctx, fleetConfig(t, "least-loaded", core.AWS(), 4), cancelling, DefaultTolerance)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled verification returned a result (max rel delta %v)", res.MaxRelDelta)
	}
	if opens != 3 {
		t.Fatalf("source opened %d times, want 3 (scan, fleet replay, oracle)", opens)
	}
}

// TestHostPanicFailsVerification: a panic while the oracle replays a
// host fails VerifyStream with an error naming the host and carrying
// the stack, and no result, instead of ending the process; and every
// oracle worker has returned when the call does. The test seam panics
// as a worker starts host 1.
func TestHostPanicFailsVerification(t *testing.T) {
	sc, ok := scenario.ByName("bursty")
	if !ok {
		t.Fatal("bursty scenario missing")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 3000
	var exited atomic.Int64
	hostStartHook = func(h int) {
		if h == 1 {
			panic("injected host fault")
		}
	}
	workerExitHook = func() {
		time.Sleep(20 * time.Millisecond)
		exited.Add(1)
	}
	defer func() { hostStartHook, workerExitHook = nil, nil }()
	for _, workers := range []int{1, 3} {
		exited.Store(0)
		cfg := fleetConfig(t, "least-loaded", core.AWS(), 4)
		cfg.Workers = workers
		res, _, err := VerifyStream(context.Background(), cfg, sc.Source(scfg), DefaultTolerance)
		if err == nil {
			t.Fatalf("workers=%d: a panicking host replay verified", workers)
		}
		for _, want := range []string{"host 1", "injected host fault", "(*oracle).work"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: error does not name %q:\n%v", workers, want, err)
			}
		}
		if res != nil {
			t.Errorf("workers=%d: failed verification returned a result", workers)
		}
		if got := exited.Load(); got != int64(workers) {
			t.Errorf("workers=%d: %d of %d oracle workers had returned when the call did", workers, got, workers)
		}
	}
}

// tamperedScan is a stream whose pod scan is its source's, edited.
type tamperedScan struct {
	trace.Stream
	metas []trace.PodMeta
}

func (s *tamperedScan) PodScan() []trace.PodMeta { return s.metas }

// TestPodScanMismatchFailsVerification: placement reads a source's pod
// scan, and the oracle places from the same scan as the fleet, so a
// scan that disagrees with its own requests would pass unseen unless
// the oracle re-derives the metadata from the stream. A scan with one
// pod's last end or request count off by one (the count moved to the
// next pod, so the total holds and the fleet replays it) must fail
// verification naming that pod.
func TestPodScanMismatchFailsVerification(t *testing.T) {
	sc, ok := scenario.ByName("bursty")
	if !ok {
		t.Fatal("bursty scenario missing")
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 3000
	src := sc.Source(scfg)
	for _, tc := range []struct {
		what   string
		tamper func(metas []trace.PodMeta, k int)
	}{
		{"last end", func(metas []trace.PodMeta, k int) { metas[k].Last++ }},
		{"request count", func(metas []trace.PodMeta, k int) { metas[k].NReqs++; metas[k+1].NReqs-- }},
	} {
		var id int
		tampered := func() (trace.Stream, error) {
			s, err := src()
			if err != nil {
				return nil, err
			}
			metas := slices.Clone(s.(trace.PodScanner).PodScan())
			k := len(metas) / 2
			tc.tamper(metas, k)
			id = metas[k].ID
			return &tamperedScan{Stream: s, metas: metas}, nil
		}
		res, _, err := VerifyStream(context.Background(), fleetConfig(t, "least-loaded", core.AWS(), 4), tampered, DefaultTolerance)
		if err == nil {
			t.Fatalf("%s: a scan with one pod's %s off by one verified", tc.what, tc.what)
		}
		if want := fmt.Sprintf("pod %d disagrees with the pod scan: %s", id, tc.what); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not say %q", tc.what, err, want)
		}
		if res != nil {
			t.Errorf("%s: failed verification returned a result", tc.what)
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled from its
// n-th call on, cancelling a replay at a known poll.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestReplayHostPollsContext: a host's event loop polls its context
// every cancelCheckMask+1 events, so a cancellation mid-host stops it
// within that many events rather than at the end of the host. Host 0's
// interpreter is fed its arrivals one by one, as a worker feeds it.
func TestReplayHostPollsContext(t *testing.T) {
	tr := scenarioTrace(t, "steady", 8000)
	cfg := fleetConfig(t, "least-loaded", core.AWS(), 2)
	pods, _, err := fleet.Place(context.Background(), cfg, trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(context.Background(), &cfg, pods)
	replay0 := func(ctx context.Context) (*host, error) {
		h := newHost(ctx, &cfg, &o.tf, 0, o.pods, o.hostPods[0])
		for i := range tr.Requests {
			r := &tr.Requests[i]
			if ps := o.state[o.slots[r.PodID]]; ps.host == 0 {
				if err := h.arrive(ps.slot, r); err != nil {
					return h, err
				}
			}
		}
		return h, h.finish()
	}
	full, err := replay0(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.served <= 2*(cancelCheckMask+1) {
		t.Fatalf("host 0 served %d requests, too few to cut between polls", full.served)
	}
	// The first poll (event 0) passes, the second (event mask+1)
	// cancels.
	cut, err := replay0(&cancelAfter{Context: context.Background(), n: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled host err = %v, want context.Canceled", err)
	}
	if cut.served > cancelCheckMask+1 {
		t.Fatalf("cancelled host served %d of %d requests, want at most %d", cut.served, full.served, cancelCheckMask+1)
	}
	if _, err := replay(&cancelAfter{Context: context.Background(), n: 2}, cfg, trace.SourceOf(tr)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay err = %v, want context.Canceled", err)
	}
}

// TestReplayWorkerCountIndependence: the oracle replays hosts on
// cfg.Workers goroutines but folds them in host order, so its aggregate
// is identical, to the last float bit, at any worker count — here on a
// faulted, adaptive keep-alive workload, where every host's state
// machine does the most.
func TestReplayWorkerCountIndependence(t *testing.T) {
	tr, horizon := faultTrace(t, "flash-crowd", 8000)
	var want Aggregate
	for i, workers := range []int{1, 3, 0} {
		cfg := deciderConfig(t, keepalive.ModeAdaptive, "least-loaded", core.AWS(), 8)
		cfg.Faults = faultPlan(t, "chaos", cfg.Hosts, horizon, cfg.Seed)
		cfg.Workers = workers
		agg, err := Replay(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if agg.PolicyDecisions == 0 || agg.EvictedSandboxes+agg.KilledRequests+agg.DeferredRequests == 0 {
				t.Fatalf("workload exercised neither deciders nor faults: %+v", agg)
			}
			want = agg
			continue
		}
		if !reflect.DeepEqual(agg, want) {
			t.Errorf("workers=%d aggregate differs from workers=1:\n got %+v\nwant %+v", workers, agg, want)
		}
	}
}

// TestFirstMismatch pins the failure-naming helper: the first metric
// over tolerance (in comparison order) is reported, and agreement
// yields the empty string.
func TestFirstMismatch(t *testing.T) {
	res := &Result{Metrics: []Metric{
		{Name: "served", RelDelta: 0},
		{Name: "cold-starts", RelDelta: 0.5},
		{Name: "total-cost", RelDelta: 0.9},
	}}
	if got := res.FirstMismatch(0.1); got != "cold-starts" {
		t.Errorf("FirstMismatch = %q, want cold-starts", got)
	}
	if got := res.FirstMismatch(1); got != "" {
		t.Errorf("FirstMismatch over loose tolerance = %q, want empty", got)
	}
	if err := res.Check(0.1); err == nil || !strings.Contains(err.Error(), "cold-starts") {
		t.Errorf("Check error should name cold-starts: %v", err)
	}
}
