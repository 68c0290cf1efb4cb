package fleet

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"slscost/internal/core"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// Property: no placement policy ever over-commits a host's flavor
// capacity — at every placement decision, committed vCPU and memory stay
// within the host spec (ISSUE satellite). Exercised by replaying the
// placement pass with invariant checks after every pod.
func TestPlacementNeverOverCommits(t *testing.T) {
	prop := func(seed uint64, hostsRaw uint8, vcpuRaw, memRaw uint8) bool {
		hosts := 1 + int(hostsRaw%16)
		spec := HostSpec{
			VCPU:  1 + float64(vcpuRaw%16),
			MemMB: 1024 * (1 + float64(memRaw%32)),
		}
		cfg := trace.DefaultGeneratorConfig()
		cfg.Requests = 400
		cfg.Seed = seed
		metas, _, _, err := scanPods(context.Background(), trace.GenerateStream(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range PolicyNames() {
			policy, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			c := Config{
				Hosts: hosts, Host: spec, Policy: policy,
				Profile: core.AWS(), Seed: seed,
			}
			// Re-run placement pod by pod, checking the invariant after
			// each commitment (placeAll enforces Fits via the policies;
			// this verifies none of them cheats).
			view, _ := placeAll(c, metas, make([]pod, len(metas)))
			for h, load := range view.Hosts {
				if load.CommittedVCPU > spec.VCPU+capacityEpsilon {
					t.Logf("%s: host %d vCPU %v > %v", name, h, load.CommittedVCPU, spec.VCPU)
					return false
				}
				if load.CommittedMemMB > spec.MemMB+capacityEpsilon {
					t.Logf("%s: host %d mem %v > %v", name, h, load.CommittedMemMB, spec.MemMB)
					return false
				}
				if load.CommittedVCPU < -capacityEpsilon || load.CommittedMemMB < -capacityEpsilon {
					t.Logf("%s: host %d negative commitment %+v", name, h, load)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The mid-stream invariant (not just the final state): instrument a
// stepped replay asserting the running commitment never exceeds capacity
// after any single placement.
func TestPlacementMidStreamInvariant(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig()
	cfg.Requests = 3000
	cfg.Seed = 99
	pods, _, _, err := scanPods(context.Background(), trace.GenerateStream(cfg))
	if err != nil {
		t.Fatal(err)
	}
	spec := HostSpec{VCPU: 4, MemMB: 8192}
	for _, name := range PolicyNames() {
		policy, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		view := View{Hosts: make([]HostLoad, 4)}
		for i := range view.Hosts {
			view.Hosts[i].Spec = spec
		}
		rng := stats.NewRand(1)
		for _, p := range pods {
			// No retirement at all: the worst case for capacity pressure.
			idx := policy.Place(&view, p.VCPU, p.MemMB, rng)
			if idx < 0 {
				continue
			}
			view.Next = (idx + 1) % len(view.Hosts) // as placeAll advances it
			h := &view.Hosts[idx]
			h.CommittedVCPU += p.VCPU
			h.CommittedMemMB += p.MemMB
			h.Sandboxes++
			if h.CommittedVCPU > spec.VCPU+capacityEpsilon ||
				h.CommittedMemMB > spec.MemMB+capacityEpsilon {
				t.Fatalf("%s over-committed host %d: %+v", name, idx, *h)
			}
		}
	}
}

func TestPolicyCharacteristics(t *testing.T) {
	view := func() *View {
		v := &View{Hosts: make([]HostLoad, 3)}
		for i := range v.Hosts {
			v.Hosts[i].Spec = HostSpec{VCPU: 4, MemMB: 8192}
		}
		v.Hosts[0].CommittedVCPU = 3 // nearly full
		v.Hosts[2].CommittedVCPU = 1
		return v
	}

	ll, _ := NewPolicy("least-loaded")
	if got := ll.Place(view(), 1, 512, nil); got != 1 {
		t.Errorf("least-loaded picked host %d, want the empty host 1", got)
	}
	bp, _ := NewPolicy("bin-pack")
	if got := bp.Place(view(), 1, 512, nil); got != 0 {
		t.Errorf("bin-pack picked host %d, want the tightest host 0", got)
	}
	// bin-pack must still skip hosts the flavor no longer fits.
	if got := bp.Place(view(), 2, 512, nil); got != 2 {
		t.Errorf("bin-pack picked host %d for a 2-vCPU flavor, want host 2", got)
	}

	rr, _ := NewPolicy("round-robin")
	seq := []int{0, 1, 2, 0}
	rv := view()
	for i, want := range seq {
		got := rr.Place(rv, 0.5, 256, nil)
		if got != want {
			t.Errorf("round-robin call %d placed on %d, want %d", i, got, want)
		}
		rv.Next = (got + 1) % len(rv.Hosts) // as placeAll advances it
	}

	rnd, _ := NewPolicy("random")
	rng := stats.NewRand(5)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		got := rnd.Place(view(), 0.5, 256, rng)
		if got < 0 || got > 2 {
			t.Fatalf("random placed on %d", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Error("random policy never varied its choice over 100 draws")
	}

	// A flavor too large for every host is rejected by all policies.
	for _, name := range PolicyNames() {
		p, _ := NewPolicy(name)
		if got := p.Place(view(), 64, 512, rng); got != -1 {
			t.Errorf("%s placed an impossible flavor on host %d", name, got)
		}
	}
}

// TestConfigReplaysIdentically: placement is a pure function of
// (config, pods), so one Config value, its policy included, can be
// simulated and placed any number of times with identical results.
// A policy that kept a cursor between calls would resume the second
// run where the first left off.
func TestConfigReplaysIdentically(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	gen.Seed = 17
	tr := trace.Generate(gen)
	for _, name := range PolicyNames() {
		policy, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Hosts: 5, Host: DefaultHostSpec(), Policy: policy,
			Profile: core.AWS(), Workers: 2, Overcommit: 2, Seed: 20260613,
		}
		var reports [2]Report
		var placements [2][]PodAssignment
		for i := range 2 {
			if reports[i], err = Simulate(cfg, tr); err != nil {
				t.Fatal(err)
			}
			if placements[i], _, err = Place(context.Background(), cfg, trace.SourceOf(tr)); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(reports[0], reports[1]) {
			t.Errorf("%s: second simulation of one config differs:\n%s\nvs\n%s",
				name, renderReport(reports[0]), renderReport(reports[1]))
		}
		if !reflect.DeepEqual(placements[0], placements[1]) {
			t.Errorf("%s: second placement of one config differs", name)
		}
	}
}

// TestPlacementAllocatesPerPass pins placement's allocations to the
// pass, not the pod: the policy's view of the active hosts is built
// once, and no policy allocates per call, so placing thousands of pods
// costs a handful of allocations (the host loads, the placer's stream,
// the view and the release heap's growth).
func TestPlacementAllocatesPerPass(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 20000
	metas, _, _, err := scanPods(context.Background(), trace.GenerateStream(gen))
	if err != nil {
		t.Fatal(err)
	}
	pods := make([]pod, len(metas))
	for _, name := range PolicyNames() {
		policy, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		c := Config{Hosts: 16, Host: DefaultHostSpec(), Policy: policy, Profile: core.AWS(), Seed: 1}
		allocs := testing.AllocsPerRun(3, func() { placeAll(c, metas, pods) })
		if allocs > 64 {
			t.Errorf("%s: placing %d pods allocated %.0f times, want a per-pass handful", name, len(metas), allocs)
		}
	}
}

// TestRandomPolicyMatchesFitList pins the random policy's choices to
// the rule it replaced: list the hosts the flavor fits, draw one index
// into the list. Over random views with masked, full and free hosts,
// both consume one draw per placement and pick the same host.
func TestRandomPolicyMatchesFitList(t *testing.T) {
	fitList := func(v *View, vcpu, memMB float64, rng *stats.Rand) int {
		var fit []int
		for i, h := range v.Hosts {
			if h.Fits(vcpu, memMB) {
				fit = append(fit, i)
			}
		}
		if len(fit) == 0 {
			return -1
		}
		return fit[rng.Intn(len(fit))]
	}
	gen := stats.NewRand(11)
	a, b := stats.NewRand(3), stats.NewRand(3)
	rnd, _ := NewPolicy("random")
	for trial := 0; trial < 2000; trial++ {
		v := View{Hosts: make([]HostLoad, 1+gen.Intn(12))}
		for i := range v.Hosts {
			v.Hosts[i] = HostLoad{
				Spec:           HostSpec{VCPU: 4, MemMB: 4096},
				CommittedVCPU:  float64(gen.Intn(5)),
				CommittedMemMB: float64(gen.Intn(5)) * 1024,
				Unavailable:    gen.Intn(5) == 0,
			}
		}
		vcpu, mem := float64(1+gen.Intn(2)), float64(512*(1+gen.Intn(4)))
		if got, want := rnd.Place(&v, vcpu, mem, a), fitList(&v, vcpu, mem, b); got != want {
			t.Fatalf("trial %d: random placed on %d, the fit list on %d", trial, got, want)
		}
	}
}

// TestBuildPodsGrouping checks the pods fleet.Place returns for a
// trace: one assignment per pod of the request scan, in order of first
// arrival, each carrying the scan's metadata and a host in range. A
// walk over the trace confirms that metadata: each pod's request
// count, its first arrival at its cold start, and every request ending
// within the pod's extent.
func TestBuildPodsGrouping(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig()
	cfg.Requests = 2000
	cfg.Seed = 5
	tr := trace.Generate(cfg)
	policy, err := NewPolicy("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 4
	as, _, err := Place(context.Background(), Config{Hosts: hosts, Host: DefaultHostSpec(), Policy: policy, Profile: core.AWS(), Seed: 5}, trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	pods, _, _, err := scanPods(context.Background(), trace.FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != len(pods) {
		t.Fatalf("Place returned %d pods, the scan found %d", len(as), len(pods))
	}
	slot := make(map[int]int, len(as))
	for i, a := range as {
		if a.PodMeta != pods[i] {
			t.Fatalf("assignment %d carries %+v, the scan found %+v", i, a.PodMeta, pods[i])
		}
		if a.Host < -1 || a.Host >= hosts {
			t.Fatalf("pod %d on out-of-range host %d", a.ID, a.Host)
		}
		if i > 0 && as[i-1].First > a.First {
			t.Fatal("pods not sorted by first arrival")
		}
		slot[a.ID] = i
	}
	seen := make([]int, len(as))
	for ri, r := range tr.Requests {
		i, ok := slot[r.PodID]
		if !ok {
			t.Fatalf("request %d's pod %d has no assignment", ri, r.PodID)
		}
		a := &as[i]
		if seen[i] == 0 && (r.Start != a.First || !r.ColdStart) {
			t.Errorf("pod %d first request at %v (cold %v), want a cold start at %v", a.ID, r.Start, r.ColdStart, a.First)
		}
		seen[i]++
		if end := r.Start + r.Turnaround(); end > a.Last {
			t.Errorf("pod %d last %v before request end %v", a.ID, a.Last, end)
		}
	}
	for i, a := range as {
		if seen[i] != a.NReqs {
			t.Errorf("pod %d has %d requests in the trace, its assignment says %d", a.ID, seen[i], a.NReqs)
		}
	}
}
