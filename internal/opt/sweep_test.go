package opt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

// testConfig is a small but non-trivial sweep configuration: two
// scenarios whose keep-alive economics genuinely differ, at a volume
// that keeps the whole grid under a second.
func testConfig(t *testing.T, workers int) Config {
	t.Helper()
	scs, err := scenario.Subset("steady", "flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	base := trace.DefaultGeneratorConfig()
	base.Requests = 3000
	base.Seed = 20260613
	return Config{
		Profile:   core.AWS(),
		Hosts:     8,
		Scenarios: scs,
		Scenario:  scenario.Config{Base: base},
		Seed:      20260613,
		Workers:   workers,
	}
}

// testSpace is a 2×2×1 grid (4 candidates).
func testSpace() Space {
	return Space{
		Policies:    []string{"least-loaded", "bin-pack"},
		TTLs:        []time.Duration{PlatformTTL, 30 * time.Second},
		Overcommits: []float64{2},
	}
}

func TestSweepShapeAndOrdering(t *testing.T) {
	sr, err := Sweep(context.Background(), testConfig(t, 2), testSpace())
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Summaries) != 4 || len(sr.Results) != 8 {
		t.Fatalf("sweep: %d summaries, %d results; want 4, 8", len(sr.Summaries), len(sr.Results))
	}
	// Candidate-major, scenario-minor, in enumeration order.
	cands := testSpace().Candidates()
	for i, r := range sr.Results {
		wantCand := cands[i/2]
		wantScen := []string{"steady", "flash-crowd"}[i%2]
		if r.Candidate != wantCand || r.Scenario != wantScen {
			t.Fatalf("result %d = (%s, %s), want (%s, %s)",
				i, r.Candidate.Key(), r.Scenario, wantCand.Key(), wantScen)
		}
		if r.Report.Served == 0 {
			t.Fatalf("result %d served nothing", i)
		}
		if r.Objectives != objectivesOf(r.Report) {
			t.Fatalf("result %d objectives do not match its report", i)
		}
	}
	// The frontier is non-empty and a subset of the summaries.
	fr := sr.Frontier()
	if len(fr) == 0 || len(fr) > len(sr.Summaries) {
		t.Fatalf("frontier size %d of %d summaries", len(fr), len(sr.Summaries))
	}
	// Per-scenario frontier extraction finds both scenarios.
	for _, name := range []string{"steady", "flash-crowd"} {
		rows, ok := sr.FrontierFor(name)
		if !ok || len(rows) == 0 {
			t.Fatalf("FrontierFor(%s): ok=%v rows=%d", name, ok, len(rows))
		}
	}
	if _, ok := sr.FrontierFor("no-such"); ok {
		t.Error("FrontierFor accepted an unknown scenario")
	}
}

// TestSweepWorkerCountIndependence is the load-bearing determinism
// property: the sweep's serialized output — the full CSV grid, the
// JSON document, and the rendered Pareto frontier — is byte-identical
// whatever the worker count. On the 8-slot grid, 1 worker replays the
// slots in pairs that share a scenario, 2 to 4 workers in fours
// sharded over every worker, and 8 workers one by one, so the output is
// also independent of the grouping and the sharding.
func TestSweepWorkerCountIndependence(t *testing.T) {
	type encoded struct{ csv, json, text string }
	encode := func(workers int) encoded {
		sr, err := Sweep(context.Background(), testConfig(t, workers), testSpace())
		if err != nil {
			t.Fatal(err)
		}
		var c, j, x bytes.Buffer
		if err := sr.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := sr.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		sr.WriteText(&x)
		return encoded{c.String(), j.String(), x.String()}
	}
	base := encode(1)
	for _, workers := range []int{2, 3, 4, 8} {
		got := encode(workers)
		if got.csv != base.csv {
			t.Errorf("CSV output differs between 1 and %d workers", workers)
		}
		if got.json != base.json {
			t.Errorf("JSON output differs between 1 and %d workers", workers)
		}
		if got.text != base.text {
			t.Errorf("text output differs between 1 and %d workers", workers)
		}
	}
	// Sanity on the serializations themselves.
	if !strings.HasPrefix(base.csv, "scenario,policy,ttl,overcommit,") {
		t.Errorf("CSV header missing: %q", strings.SplitN(base.csv, "\n", 2)[0])
	}
	if !strings.Contains(base.json, `"frontier"`) {
		t.Error("JSON document has no frontier field")
	}
	if lines := strings.Count(base.csv, "\n"); lines != 1+8 {
		t.Errorf("CSV has %d lines, want header + 8 rows", lines)
	}
}

// TestSweepTTLMovesColdStarts pins the sweep's physics: on the
// flash-crowd scenario, cutting AWS's 300–360 s keep-alive window to
// 30 s must increase the cold-start rate (idle gaps outlive the
// window) — the trade the Pareto frontier exists to expose.
func TestSweepTTLMovesColdStarts(t *testing.T) {
	sr, err := Sweep(context.Background(), testConfig(t, 0), testSpace())
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Result)
	for _, r := range sr.Results {
		if r.Scenario == "flash-crowd" {
			byKey[r.Candidate.Key()] = r
		}
	}
	long := byKey["least-loaded ttl=platform oc=2"]
	short := byKey["least-loaded ttl=30s oc=2"]
	if long.Report.Served == 0 || short.Report.Served == 0 {
		t.Fatalf("missing sweep cells: %+v", byKey)
	}
	if short.Objectives.ColdStartRate <= long.Objectives.ColdStartRate {
		t.Errorf("30s TTL cold rate %.4f not above platform-window rate %.4f",
			short.Objectives.ColdStartRate, long.Objectives.ColdStartRate)
	}
}

func TestSweepRejectsBadInputs(t *testing.T) {
	cfg := testConfig(t, 1)
	if _, err := Sweep(context.Background(), cfg, Space{}); err == nil {
		t.Error("empty space did not fail")
	}
	bad := cfg
	bad.Profile = core.Profile{}
	if _, err := Sweep(context.Background(), bad, testSpace()); err == nil {
		t.Error("invalid profile did not fail")
	}
	bad = cfg
	bad.Workers = -1
	if _, err := Sweep(context.Background(), bad, testSpace()); err == nil {
		t.Error("negative workers did not fail")
	}
}

// TestSweepOnResultOrder pins the streaming-row contract: OnResult
// receives every evaluation exactly once, in grid order, for any
// worker count — the property the daemon's NDJSON row stream and the
// byte-identical CI smoke rely on.
func TestSweepOnResultOrder(t *testing.T) {
	var want []ResultRow
	for _, workers := range []int{1, 4} {
		cfg := testConfig(t, workers)
		var rows []ResultRow
		cfg.OnResult = func(r Result) { rows = append(rows, r.Row()) }
		sr, err := Sweep(context.Background(), cfg, testSpace())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(sr.Results) {
			t.Fatalf("workers=%d: %d rows emitted, want %d", workers, len(rows), len(sr.Results))
		}
		for i, r := range sr.Results {
			if rows[i] != r.Row() {
				t.Fatalf("workers=%d: row %d = %+v, want %+v (grid order)", workers, i, rows[i], r.Row())
			}
		}
		if want == nil {
			want = rows
		} else {
			for i := range want {
				if rows[i] != want[i] {
					t.Fatalf("row %d differs between worker counts", i)
				}
			}
		}
	}
}

// TestSweepPlanner pins the plan-compilation contract: the planner
// hook is consulted exactly once per scenario per sweep, and a cached
// plan produces the byte-identical sweep a fresh compilation does.
func TestSweepPlanner(t *testing.T) {
	cfg := testConfig(t, 2)
	baseline, err := Sweep(context.Background(), cfg, testSpace())
	if err != nil {
		t.Fatal(err)
	}

	cache := make(map[string]*scenario.Plan)
	calls := 0
	cfg.Planner = func(sc scenario.Scenario, scfg scenario.Config) (*scenario.Plan, error) {
		calls++
		if p, ok := cache[sc.Name]; ok {
			return p, nil
		}
		p, err := sc.Compile(scfg)
		if err != nil {
			return nil, err
		}
		cache[sc.Name] = p
		return p, nil
	}
	// Two sweeps through the same cache: the second reuses both plans.
	for pass := 0; pass < 2; pass++ {
		sr, err := Sweep(context.Background(), cfg, testSpace())
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := sr.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := baseline.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("pass %d: planner-backed sweep differs from direct compilation", pass)
		}
	}
	if calls != 4 {
		t.Fatalf("planner consulted %d times, want 4 (once per scenario per sweep)", calls)
	}
	if len(cache) != 2 {
		t.Fatalf("cache holds %d plans, want 2", len(cache))
	}
}

// TestSweepRangeShardsConcatenateToFullGrid pins the shard primitive
// distributed sweeps stand on: disjoint covering ranges, evaluated
// independently (even with different worker counts), concatenate to
// exactly Sweep's Results slice, and AssembleSweep folds them into a
// byte-identical sweep document.
func TestSweepRangeShardsConcatenateToFullGrid(t *testing.T) {
	cfg := testConfig(t, 2)
	space := testSpace()
	full, err := Sweep(context.Background(), cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.GridSize(space)
	if total != len(full.Results) {
		t.Fatalf("GridSize = %d, Sweep produced %d results", total, len(full.Results))
	}
	// Uneven shard boundaries that split a candidate's scenarios across
	// shards, evaluated with differing worker counts. Boundary 3 also
	// splits the pair {1, 3} the full sweep replays together.
	bounds := []int{0, 3, 4, total}
	var merged []Result
	for i := 0; i+1 < len(bounds); i++ {
		scfg := testConfig(t, 1+i)
		var streamed []Result
		scfg.OnResult = func(r Result) { streamed = append(streamed, r) }
		part, err := SweepRange(context.Background(), scfg, space, bounds[i], bounds[i+1])
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(part) {
			t.Fatalf("shard [%d,%d): %d streamed rows, %d results", bounds[i], bounds[i+1], len(streamed), len(part))
		}
		for k := range part {
			if streamed[k].Row() != part[k].Row() {
				t.Fatalf("shard [%d,%d): OnResult order diverges at %d", bounds[i], bounds[i+1], k)
			}
		}
		merged = append(merged, part...)
	}
	for i := range merged {
		if merged[i].Candidate != full.Results[i].Candidate ||
			merged[i].Scenario != full.Results[i].Scenario ||
			merged[i].Objectives != full.Results[i].Objectives {
			t.Fatalf("merged result %d differs from Sweep's", i)
		}
	}
	got, err := AssembleSweep(testConfig(t, 2), space, merged)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := full.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("AssembleSweep document differs from Sweep's")
	}

	// Out-of-grid ranges and short result slices are rejected.
	if _, err := SweepRange(context.Background(), testConfig(t, 1), space, 0, total+1); err == nil {
		t.Error("out-of-grid range did not fail")
	}
	if _, err := SweepRange(context.Background(), testConfig(t, 1), space, -1, 0); err == nil {
		t.Error("negative range did not fail")
	}
	if _, err := AssembleSweep(testConfig(t, 1), space, merged[:total-1]); err == nil {
		t.Error("partial grid assembled")
	}
}

// TestSweepErrorAggregatesGridIndices is the regression test for the
// first-error-only failure path: when several evaluations fail, the
// sweep returns a *SweepError naming every failed grid index, so a
// distributed coordinator can tell exactly which cells (not just the
// lowest one) went bad. The failure is provoked by a fault plan
// compiled for the default pool while half the grid pins a different
// host count — those evaluations fail at fleet validation. At one and
// two workers the 4-slot grid replays in pairs (sharded over both
// workers at two) that put each failing candidate beside a healthy
// one, which must not fail with it.
func TestSweepErrorAggregatesGridIndices(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testSweepErrorIndices(t, workers)
		})
	}
}

func testSweepErrorIndices(t *testing.T, workers int) {
	cfg := testConfig(t, workers)
	prof, err := faults.ByName("crashes")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Compile(&prof.Spec, cfg.Hosts, cfg.Scenario.EffectiveHorizon(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	space := testSpace()
	space.Policies = []string{"least-loaded"}
	space.TTLs = []time.Duration{PlatformTTL}
	space.Hosts = []int{cfg.Hosts, cfg.Hosts / 2} // second candidate mismatches the plan
	_, err = Sweep(context.Background(), cfg, space)
	if err == nil {
		t.Fatal("mismatched fault plan did not fail")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SweepError: %v", err, err)
	}
	// Candidate 1 (hosts=cfg.Hosts/2) fails on both scenarios: grid
	// indices 2 and 3.
	want := []int{2, 3}
	got := se.Indices()
	if len(got) != len(want) {
		t.Fatalf("failed indices %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("failed indices %v, want %v", got, want)
		}
	}
	for _, f := range se.Failed {
		if f.Scenario == "" || f.Err == nil {
			t.Fatalf("indexed error missing detail: %+v", f)
		}
	}
	if !strings.Contains(err.Error(), "grid index 2") || !strings.Contains(err.Error(), "grid index 3") {
		t.Errorf("error text does not name both indices: %v", err)
	}
}

// TestSweepCancelled pins prompt cancellation: a sweep whose context
// is cancelled mid-run returns context.Canceled, and a pre-cancelled
// context never evaluates anything.
func TestSweepCancelled(t *testing.T) {
	cfg := testConfig(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	cfg.OnResult = func(Result) {
		n++
		if n == 2 {
			cancel()
		}
	}
	if _, err := Sweep(ctx, cfg, testSpace()); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	cfg2 := testConfig(t, 2)
	cfg2.OnResult = func(Result) { t.Error("evaluation ran under a pre-cancelled context") }
	if _, err := Sweep(pre, cfg2, testSpace()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancel: got %v, want context.Canceled", err)
	}
}

// TestGroupSlotsPairScenarios pins the dispatch and grouping rule. A
// range whose every scenario has a slot per worker replays one group
// at a time, sharded over every worker, in groups of up to maxGroup ×
// workers slots; a range with fewer slots of a scenario than workers
// replays side by side at one worker per group, in pairs while that
// still leaves every worker a group. Either way no more than maxGroup
// × workers configurations are live at once, and groups come out
// ordered by their lowest slot, the order the pool dispatches them in.
// Sweep rows keep Report.Workers at 1 whatever the shard count.
func TestGroupSlotsPairScenarios(t *testing.T) {
	for _, tc := range []struct {
		start, n, nScen, workers int
		pool, shards             int
		want                     string
	}{
		{0, 8, 2, 1, 1, 1, "[[0 2] [1 3] [4 6] [5 7]]"},
		{0, 8, 2, 4, 1, 4, "[[0 2 4 6] [1 3 5 7]]"},
		{0, 8, 2, 8, 8, 1, "[[0] [1] [2] [3] [4] [5] [6] [7]]"},
		{0, 48, 2, 2, 1, 2, "fours"},
		{3, 4, 2, 2, 1, 2, "[[0 2] [1 3]]"},
		{0, 5, 2, 2, 1, 2, "[[0 2 4] [1 3]]"},
		{0, 3, 2, 1, 1, 1, "[[0 2] [1]]"},
		{0, 3, 3, 1, 1, 1, "[[0] [1] [2]]"},
		{1, 5, 1, 2, 1, 2, "[[0 1 2 3] [4]]"},
		{0, 3, 2, 2, 2, 1, "[[0] [1] [2]]"}, // a scenario with fewer slots than workers
		{0, 2, 2, 4, 4, 1, "[[0] [1]]"},     // refinement's evalMean: one slot per scenario
		{5, 1, 2, 4, 4, 1, "[[0]]"},         // a one-slot distributed shard
		{0, 6, 2, 4, 4, 1, "[[0] [1] [2] [3] [4] [5]]"},
		{0, 12, 2, 4, 1, 4, "[[0 2 4 6 8 10] [1 3 5 7 9 11]]"},
	} {
		pool, shards, size := dispatch(tc.n, tc.nScen, tc.workers)
		if pool != tc.pool || shards != tc.shards {
			t.Errorf("%+v: %d groups at a time over %d shards each, want %d over %d", tc, pool, shards, tc.pool, tc.shards)
		}
		got := groupSlots(tc.start, tc.n, tc.nScen, size)
		if tc.want == "fours" {
			for _, g := range got {
				if len(g) != 4 {
					t.Errorf("%+v: group %v, want every group four slots", tc, g)
				}
			}
			continue
		}
		if s := fmt.Sprint(got); s != tc.want {
			t.Errorf("%+v: groups %s, want %s", tc, s, tc.want)
		}
	}

	// Over every small range shape: groups never exceed maxGroup ×
	// workers slots, a sharded group is the only one in flight, and a
	// range with fewer slots of a scenario than workers runs its groups
	// one worker each.
	for workers := 1; workers <= 5; workers++ {
		for nScen := 1; nScen <= 3; nScen++ {
			for n := 1; n <= 30; n++ {
				pool, shards, size := dispatch(n, nScen, workers)
				if shards > 1 && pool != 1 {
					t.Errorf("n=%d nScen=%d workers=%d: %d sharded groups in flight at once", n, nScen, workers, pool)
				}
				if pool*shards > workers {
					t.Errorf("n=%d nScen=%d workers=%d: %d groups over %d shards oversubscribe the pool", n, nScen, workers, pool, shards)
				}
				if n/nScen < workers && shards != 1 {
					t.Errorf("n=%d nScen=%d workers=%d: scenarios have fewer slots than workers, yet groups run over %d shards", n, nScen, workers, shards)
				}
				for _, g := range groupSlots(0, n, nScen, size) {
					if len(g) > maxGroup*workers {
						t.Errorf("n=%d nScen=%d workers=%d: group of %d slots", n, nScen, workers, len(g))
					}
					if pool*len(g) > maxGroup*workers {
						t.Errorf("n=%d nScen=%d workers=%d: %d groups of %d configurations live at once", n, nScen, workers, pool, len(g))
					}
				}
			}
		}
	}

	sr, err := Sweep(context.Background(), testConfig(t, 2), testSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sr.Results {
		if r.Report.Workers != 1 {
			t.Fatalf("%s on %s: row reports %d workers, want 1", r.Candidate.Key(), r.Scenario, r.Report.Workers)
		}
	}
}
