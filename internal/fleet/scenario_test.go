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
	pods, _, err := Place(context.Background(), cfg, trace.SourceOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	total, rejected := 0, 0
	for _, p := range pods {
		total += p.NReqs
		if p.Host < 0 {
			rejected += p.NReqs
		} else if p.Host >= cfg.Hosts {
			t.Fatalf("pod %d on out-of-range host %d", p.ID, p.Host)
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

// TestPlaceReturnsUnreadOpening: Place hands back an opening of its
// source positioned at the first request, for the caller's second
// pass. A source whose streams list their pods is opened once, and
// that opening comes back unread; a recorded trace, which the scan
// reads to the end, is opened again.
func TestPlaceReturnsUnreadOpening(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	gen.Seed = 11
	tr := trace.Generate(gen)
	for _, tc := range []struct {
		name  string
		src   trace.Source
		opens int
	}{
		{"generator", trace.GenerateSource(gen), 1},
		{"recorded", trace.SourceOf(tr), 2},
	} {
		opens := 0
		counted := func() (trace.Stream, error) {
			opens++
			return tc.src()
		}
		pods, s, err := Place(context.Background(), testFleetConfig(t), counted)
		if err != nil {
			t.Fatal(err)
		}
		if len(pods) == 0 {
			t.Fatalf("%s: no pods placed", tc.name)
		}
		if opens != tc.opens {
			t.Errorf("%s: source opened %d times, want %d", tc.name, opens, tc.opens)
		}
		got := trace.Collect(s, 0)
		if got.Len() != tr.Len() {
			t.Fatalf("%s: the returned opening yields %d of %d requests", tc.name, got.Len(), tr.Len())
		}
		for i := range got.Requests {
			if got.Requests[i] != tr.Requests[i] {
				t.Fatalf("%s: request %d of the returned opening differs:\n got %+v\nwant %+v", tc.name, i, got.Requests[i], tr.Requests[i])
			}
		}
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
