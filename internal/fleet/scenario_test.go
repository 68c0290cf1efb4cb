package fleet

import (
	"context"
	"testing"

	"slscost/internal/core"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

func scenarioConfig(requests int) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Base.Requests = requests
	cfg.Base.Functions = 50
	return cfg
}

func testFleetConfig(t *testing.T) Config {
	t.Helper()
	pol, err := NewPolicy("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Hosts: 4, Host: DefaultHostSpec(), Policy: pol,
		Profile: core.AWS(), Overcommit: 2, Seed: 11,
	}
}

// TestSimulateScenarioPropagatesErrors replays a scenario source whose
// opening fails, and a valid one under an invalid configuration; both
// must fail the replay.
func TestSimulateScenarioPropagatesErrors(t *testing.T) {
	sc := scenario.Scenario{Name: "broken"} // no shape, no tenants
	if _, err := SimulateStream(context.Background(), testFleetConfig(t), sc.Source(scenarioConfig(100))); err == nil {
		t.Fatal("expected synthesis error")
	}
	good, _ := scenario.ByName("steady")
	bad := testFleetConfig(t)
	bad.Hosts = 0
	if _, err := SimulateStream(context.Background(), bad, good.Source(scenarioConfig(100))); err == nil {
		t.Fatal("expected config error")
	}
}

func TestPlaceMatchesSimulateRejections(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	gen.Seed = 11
	tr := trace.Generate(gen)
	cfg := testFleetConfig(t)
	pods, err := Place(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	total, rejected := 0, 0
	for _, p := range pods {
		total += len(p.Requests)
		if p.Host < 0 {
			rejected += len(p.Requests)
		} else if p.Host >= cfg.Hosts {
			t.Fatalf("pod %d on out-of-range host %d", p.PodID, p.Host)
		}
	}
	if total != tr.Len() {
		t.Fatalf("placement covers %d of %d requests", total, tr.Len())
	}
	rep, err := Simulate(testFleetConfig(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedRequests != rejected {
		t.Errorf("Place rejected %d requests, Simulate %d", rejected, rep.RejectedRequests)
	}
}

func TestShardSeedStable(t *testing.T) {
	if ShardSeed(7, 0) == ShardSeed(7, 1) {
		t.Error("adjacent hosts share a stream seed")
	}
	if ShardSeed(7, 3) != ShardSeed(7, 3) {
		t.Error("shard seed not deterministic")
	}
}
