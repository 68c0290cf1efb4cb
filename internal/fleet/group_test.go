package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"slscost/internal/core"
	"slscost/internal/keepalive"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

// groupVariant is one configuration the group tests mix: every knob an
// optimizer candidate moves, plus the pool size.
type groupVariant struct {
	policy     string
	ttl        time.Duration // negative keeps the platform's window
	overcommit float64
	elastic    bool
	mode       keepalive.Mode
	hosts      int
}

// config builds the variant's cluster configuration.
func (v groupVariant) config(t *testing.T, plan *faults.Plan, workers int) Config {
	t.Helper()
	pol, err := NewPolicy(v.policy)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.AWS()
	if v.ttl >= 0 {
		prof.KeepAlive = prof.KeepAlive.WithTTL(v.ttl)
	}
	cfg := Config{
		Hosts: v.hosts, Host: DefaultHostSpec(), Policy: pol, Profile: prof,
		Workers: workers, Overcommit: v.overcommit, Elastic: v.elastic,
		Faults: plan, Seed: 20260613,
	}
	if v.mode != keepalive.ModeStatic {
		seed := cfg.Seed
		cfg.KeepAlive = &keepalive.Spec{Mode: v.mode, Seed: &seed}
	}
	return cfg
}

// reportJSON is the report's full JSON encoding with the worker count,
// the one field that records how a report was computed, normalized.
func reportJSON(t *testing.T, rep Report) string {
	t.Helper()
	rep.Workers = 1
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSimulateGroupMatchesStream pins SimulateGroup's contract: in a
// group of any size, replayed at 1, 2, 3 or GOMAXPROCS (0) workers,
// each configuration's report is byte-identical to its own one-worker
// SimulateStream replay, which itself matches its three-worker replay.
// The groups mix placement policy, TTL, overcommit, elasticity and
// keep-alive mode; one family shares a host count and replays a chaos
// fault plan, the other mixes host counts without faults. They run on
// steady, flash-crowd and a four-tenant mix, in rotating positions, so
// no configuration can lean on its place in the group or its shard.
func TestSimulateGroupMatchesStream(t *testing.T) {
	families := []struct {
		name     string
		faults   bool
		variants []groupVariant
	}{
		{"same-hosts+chaos", true, []groupVariant{
			{"least-loaded", -1, 2, false, keepalive.ModeStatic, 6},
			{"bin-pack", 30 * time.Second, 1, false, keepalive.ModeAdaptive, 6},
			{"round-robin", 0, 2, true, keepalive.ModeStatic, 6},
			{"random", -1, 3, false, keepalive.ModeBandit, 6},
		}},
		{"mixed-hosts", false, []groupVariant{
			{"least-loaded", -1, 2, false, keepalive.ModeStatic, 6},
			{"bin-pack", 30 * time.Second, 1, true, keepalive.ModeBandit, 4},
			{"round-robin", -1, 2, false, keepalive.ModeAdaptive, 8},
			{"random", 0, 3, false, keepalive.ModeStatic, 3},
		}},
	}
	type workload struct {
		scenario string
		tenants  int
	}
	workloads := []workload{{"steady", 0}, {"flash-crowd", 0}, {"steady", 4}}
	chaos, err := faults.ByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		scs, err := scenario.Subset(w.scenario)
		if err != nil {
			t.Fatal(err)
		}
		scfg := scenario.DefaultConfig()
		scfg.Base.Requests = 4000
		scfg.Base.Seed = 11
		scfg.Tenants = w.tenants
		plan, err := scs[0].Compile(scfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range families {
			t.Run(fmt.Sprintf("%s/tenants=%d/%s", w.scenario, w.tenants, fam.name), func(t *testing.T) {
				var fp *faults.Plan
				if fam.faults {
					fp, err = faults.Compile(&chaos.Spec, fam.variants[0].hosts, scfg.EffectiveHorizon(), 11)
					if err != nil {
						t.Fatal(err)
					}
				}
				want := make([]string, len(fam.variants))
				faulted, decided := false, false
				for i, v := range fam.variants {
					for _, workers := range []int{1, 3} {
						rep, err := SimulateStream(context.Background(), v.config(t, fp, workers), plan.Source())
						if err != nil {
							t.Fatalf("variant %d at %d workers: %v", i, workers, err)
						}
						got := reportJSON(t, rep)
						if workers == 1 {
							want[i] = got
						} else if got != want[i] {
							t.Fatalf("variant %d: SimulateStream differs between 1 and 3 workers", i)
						}
						faulted = faulted || rep.EvictedSandboxes+rep.KilledRequests+rep.DeferredRequests > 0
						decided = decided || rep.PolicyDecisions > 0
					}
				}
				if faulted != fam.faults || !decided {
					t.Fatalf("faults touched the replays: %v (want %v); a decider decided: %v (want true)",
						faulted, fam.faults, decided)
				}
				n := len(fam.variants)
				for size := 1; size <= n; size++ {
					for _, workers := range []int{1, 2, 3, 0} {
						members := make([]int, size)
						cfgs := make([]Config, size)
						for j := range members {
							members[j] = (size - 1 + j) % n
							cfgs[j] = fam.variants[members[j]].config(t, fp, workers)
						}
						reps, err := SimulateGroup(context.Background(), cfgs, plan.Source())
						if err != nil {
							t.Fatalf("group %v at %d workers: %v", members, workers, err)
						}
						for j, m := range members {
							if got := reportJSON(t, reps[j]); got != want[m] {
								t.Errorf("group %v at %d workers: variant %d's report differs from its own replay\ngroup:  %s\nstream: %s",
									members, workers, m, got, want[m])
							}
						}
					}
				}
			})
		}
	}
}

// TestSimulateGroupSharesOnePass pins what a group saves: however many
// configurations it replays, on one worker or sharded over several,
// the source is scanned once and each request pulled once, and the
// configurations' pods are 32-byte records over one shared copy of the
// pod metadata.
func TestSimulateGroupSharesOnePass(t *testing.T) {
	if size := unsafe.Sizeof(pod{}); size > 32 {
		t.Errorf("pod is %d bytes, want at most 32: a group holds one per pod per configuration", size)
	}
	if size := unsafe.Sizeof(sandbox{}); size > 48 {
		t.Errorf("sandbox is %d bytes, want at most 48: every live sandbox of every configuration holds one", size)
	}
	scfg := scenario.DefaultConfig()
	scfg.Base.Requests = 5000
	scs, err := scenario.Subset("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scs[0].Compile(scfg)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, workers := range []int{1, 3} {
		var c pullCounter
		cfgs = []Config{
			streamTestConfig(t, "least-loaded", workers),
			streamTestConfig(t, "bin-pack", workers),
			streamTestConfig(t, "round-robin", workers),
		}
		if _, err := SimulateGroup(context.Background(), cfgs, c.source(plan.Source())); err != nil {
			t.Fatal(err)
		}
		if c.opens != 2 || c.scans != 1 || c.pulls != scfg.Base.Requests {
			t.Errorf("group of %d at %d workers: %d opens, %d scans, %d pulls; want 2 opens, 1 scan, %d pulls",
				len(cfgs), workers, c.opens, c.scans, c.pulls, scfg.Base.Requests)
		}
	}

	s, err := plan.Source()()
	if err != nil {
		t.Fatal(err)
	}
	metas, _, _, err := scanPods(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	tab := podMetas(metas)
	a, b := place(cfgs[0], metas, tab), place(cfgs[1], metas, tab)
	placedApart := false
	for i := range metas {
		if a.pods[i].podMeta != &tab.pods[i] || b.pods[i].podMeta != &tab.pods[i] {
			t.Fatalf("pod %d: the configurations do not share one podMeta", i)
		}
		placedApart = placedApart || a.pods[i].host != b.pods[i].host
	}
	if !placedApart {
		t.Error("least-loaded and bin-pack placed every pod alike; the test would not see shared placement state")
	}
}

// TestSimulateGroupRejects pins SimulateGroup's input contract: an
// empty group, a configuration that fails Validate, configurations
// that disagree on Workers (zero, which means GOMAXPROCS, disagrees
// even with the count it stands for), and nil arguments fail the call
// before the source is opened. A group that agrees on any worker count
// replays.
func TestSimulateGroupRejects(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 500
	opened := 0
	src := func() (trace.Stream, error) {
		opened++
		return trace.GenerateStream(gen), nil
	}
	good := streamTestConfig(t, "least-loaded", 1)
	bad := streamTestConfig(t, "least-loaded", 1)
	bad.Hosts = 0
	for name, cfgs := range map[string][]Config{
		"empty":       nil,
		"invalid":     {good, bad},
		"workers=1,0": {good, streamTestConfig(t, "bin-pack", 0)},
		"workers=3,1": {streamTestConfig(t, "bin-pack", 3), good},
		"workers=0,N": {streamTestConfig(t, "bin-pack", 0), streamTestConfig(t, "bin-pack", runtime.GOMAXPROCS(0))},
	} {
		if _, err := SimulateGroup(context.Background(), cfgs, src); err == nil {
			t.Errorf("%s: group accepted", name)
		}
	}
	if _, err := SimulateGroup(context.Background(), []Config{good}, nil); err == nil {
		t.Error("nil source accepted")
	}
	var nilCtx context.Context
	if _, err := SimulateGroup(nilCtx, []Config{good}, src); err == nil {
		t.Error("nil context accepted")
	}
	if opened != 0 {
		t.Errorf("rejected groups opened the source %d times", opened)
	}
	for _, workers := range []int{0, 3} {
		cfgs := []Config{streamTestConfig(t, "least-loaded", workers), streamTestConfig(t, "bin-pack", workers)}
		if _, err := SimulateGroup(context.Background(), cfgs, src); err != nil {
			t.Errorf("group agreeing on %d workers: %v", workers, err)
		}
	}
}

// TestSimulateGroupCancelSharded pins cancellation of a sharded group:
// cancelling ctx mid-replay returns ctx.Err() within cancelCheckMask+1
// further pulls, and every shard goroutine has returned by the time
// the call does. Each shard's exit is held back a little, so a replay
// that returned without closing its shards' channels, or without
// waiting for them, would return before every shard is counted out.
func TestSimulateGroupCancelSharded(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 200_000
	gen.Seed = 20260613
	var exited atomic.Int64
	shardExitHook = func() {
		time.Sleep(20 * time.Millisecond)
		exited.Add(1)
	}
	defer func() { shardExitHook = nil }()

	for _, workers := range []int{2, 3} {
		exited.Store(0)
		var pulls atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		// The stream has no pod scan, so pass 1 pulls every request once;
		// the cancel lands mid pass 2, with batches in flight.
		trigger := int64(gen.Requests + 50_000)
		src := func() (trace.Stream, error) {
			s, err := trace.GenerateSource(gen)()
			if err != nil {
				return nil, err
			}
			return &cancelAtStream{inner: s, pulls: &pulls, at: trigger, cancel: cancel}, nil
		}
		cfgs := []Config{
			streamTestConfig(t, "least-loaded", workers),
			streamTestConfig(t, "bin-pack", workers),
			streamTestConfig(t, "round-robin", workers),
		}
		done := make(chan error, 1)
		go func() {
			_, err := SimulateGroup(ctx, cfgs, src)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("workers=%d: cancelled group did not return", workers)
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled SimulateGroup: got %v, want context.Canceled", workers, err)
		}
		if got, max := pulls.Load(), trigger+cancelCheckMask+1; got > max {
			t.Errorf("workers=%d: cancelled group pulled %d events, want <= %d", workers, got, max)
		}
		if got := exited.Load(); got != int64(workers) {
			t.Errorf("workers=%d: %d of %d shard goroutines had returned when the call did", workers, got, workers)
		}
	}
}

// TestSimulateGroupConfigFailureIsItsOwn pins the per-configuration
// failure path: a configuration whose cluster serves nothing fails
// alone, inside a *GroupError, while its neighbours' reports are
// returned intact.
func TestSimulateGroupConfigFailureIsItsOwn(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 2000
	src := trace.GenerateSource(gen)
	tiny := streamTestConfig(t, "least-loaded", 1)
	tiny.Host = HostSpec{VCPU: 0.01, MemMB: 1} // fits no pod
	cfgs := []Config{streamTestConfig(t, "least-loaded", 1), tiny}
	reps, err := SimulateGroup(context.Background(), cfgs, src)
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("error %v (%T), want a *GroupError", err, err)
	}
	if ge.Errs[0] != nil || ge.Errs[1] == nil {
		t.Fatalf("per-configuration errors %v, want only configuration 1 failed", ge.Errs)
	}
	want, err := SimulateStream(context.Background(), streamTestConfig(t, "least-loaded", 1), src)
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, reps[0]) != reportJSON(t, want) {
		t.Error("the healthy configuration's report changed beside a failing one")
	}
}

// TestFaultFreeHostHasNoRecoveryHistogram pins the lazy recovery
// histogram: a host that never defers an arrival never builds one.
func TestFaultFreeHostHasNoRecoveryHistogram(t *testing.T) {
	reqs := rampPods(50, 0.5, time.Second)
	hc, pods := testReplay(t, testConfig(t, "least-loaded"), reqs)
	s := newHostSim(hc, 0)
	for i := range pods {
		s.feed(pods[i], &reqs[i])
	}
	if res := s.finish(); res.recovHist != nil {
		t.Error("a fault-free host allocated a recovery histogram")
	}
}
