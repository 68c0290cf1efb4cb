package trace_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/trace"
)

// TestShareScanReadOnlyUnderReplay replays one shared source from
// several goroutines at once, each a sharded fleet replay whose
// placement reads the shared scan, then checks that the published
// slice still equals its copy, so no reader wrote to it, and that every
// report equals the unshared source's. Run it under -race.
func TestShareScanReadOnlyUnderReplay(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 4000
	src := trace.GenerateSource(gen)
	shared := trace.ShareScan(src)
	s, err := shared()
	if err != nil {
		t.Fatal(err)
	}
	pods := s.(trace.PodScanner).PodScan()
	snapshot := slices.Clone(pods)

	var cfgs []fleet.Config
	for _, name := range []string{"least-loaded", "bin-pack", "round-robin"} {
		pol, err := fleet.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, fleet.Config{
			Hosts: 8, Host: fleet.DefaultHostSpec(), Policy: pol, Profile: core.AWS(),
			Workers: 2, Overcommit: 2, Seed: 20260613,
		})
	}
	want := make([]fleet.Report, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = fleet.SimulateStream(context.Background(), cfg, src); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]fleet.Report, len(cfgs))
	var group []fleet.Report
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := fleet.SimulateStream(context.Background(), cfg, shared)
			if err != nil {
				t.Error(err)
			}
			got[i] = rep
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		reps, err := fleet.SimulateGroup(context.Background(), cfgs, shared)
		if err != nil {
			t.Error(err)
		}
		group = reps
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	if !slices.Equal(pods, snapshot) {
		t.Fatal("the shared scan was written after it was published")
	}
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("configuration %d: shared-scan replay differs from the unshared one", i)
		}
		if !reflect.DeepEqual(group[i], want[i]) {
			t.Errorf("configuration %d: shared-scan group replay differs from the unshared one", i)
		}
	}
}
