package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"slscost/internal/trace"
)

// smallConfig keeps synthesis fast for unit tests.
func smallConfig(requests int) Config {
	cfg := DefaultConfig()
	cfg.Base.Requests = requests
	cfg.Base.Functions = 60
	return cfg
}

func TestCatalogScenariosSynthesize(t *testing.T) {
	for _, sc := range Catalog() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			tr, err := sc.Trace(smallConfig(5000))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 5000 {
				t.Fatalf("got %d requests, want 5000", tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < tr.Len(); i++ {
				if tr.Requests[i].Start < tr.Requests[i-1].Start {
					t.Fatalf("trace not sorted at %d", i)
				}
			}
		})
	}
}

func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	for _, want := range []string{"steady", "diurnal", "flash-crowd", "bursty", "ramp", "multi-tenant"} {
		if _, ok := ByName(want); !ok {
			t.Errorf("scenario %q missing from catalog", want)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown scenario resolved")
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	steady, _ := ByName("steady")
	cases := []struct {
		name string
		sc   Scenario
		cfg  Config
	}{
		{"no shape", Scenario{Name: "x"}, smallConfig(100)},
		{"zero requests", steady, func() Config { c := smallConfig(100); c.Base.Requests = 0; return c }()},
		{"negative tenants", steady, func() Config { c := smallConfig(100); c.Tenants = -1; return c }()},
		{"negative horizon", steady, func() Config { c := smallConfig(100); c.Horizon = -time.Hour; return c }()},
		{"tenant without shape", Mix("m", Tenant{Name: "a", Weight: 1}), smallConfig(100)},
		{"nan weight", Mix("m", Tenant{Name: "a", Weight: math.NaN(), Shape: Steady{}}), smallConfig(100)},
		{"bad base", steady, func() Config {
			c := smallConfig(100)
			c.Base.MeanDurationMs = math.Inf(1)
			return c
		}()},
		{"more tenants than functions", steady, func() Config {
			c := smallConfig(100)
			c.Base.Functions = 3
			c.Tenants = 8
			return c
		}()},
	}
	for _, c := range cases {
		if _, err := c.sc.Trace(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestCompileRejectsHugeTenantFanOut: a fan-out far past the function
// budget fails with the budget named before any tenant is allocated
// (2^50 tenants cannot be; the allocation would panic).
func TestCompileRejectsHugeTenantFanOut(t *testing.T) {
	steady, _ := ByName("steady")
	cfg := smallConfig(100)
	cfg.Tenants = 1 << 50
	if _, err := steady.Compile(cfg); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("Compile = %v, want the function budget named", err)
	}
}

func TestShapesAreSaneAndPeriodic(t *testing.T) {
	shapes := []Shape{
		Steady{},
		Diurnal{Cycles: 2, Trough: 0.1},
		FlashCrowd{At: 0.4, Width: 0.05, Baseline: 0.1, Magnitude: 10},
		Ramp{From: 0.2, To: 2},
		NewParetoBursts(1, 10, 1.3, 0.05),
		Overlay{Parts: []Shape{Steady{}, Diurnal{Trough: 0.5}}},
		Shifted{Shape: Diurnal{Trough: 0.2}, Phase: 0.25},
	}
	for _, s := range shapes {
		if s.Name() == "" {
			t.Errorf("%T: empty name", s)
		}
		for i := 0; i < 101; i++ {
			x := float64(i) / 101
			r := s.Rate(x)
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				t.Errorf("%s.Rate(%v) = %v", s.Name(), x, r)
			}
		}
		if m := meanRate(s); m <= 0 {
			t.Errorf("%s: mean rate %v", s.Name(), m)
		}
	}
}

func TestShiftedRotatesPhase(t *testing.T) {
	d := Diurnal{Cycles: 1, Trough: 0}
	s := Shifted{Shape: d, Phase: 0.25}
	if got, want := s.Rate(0.25), d.Rate(0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("shifted rate %v, want %v", got, want)
	}
}

func TestTenantFanOutSplitsFunctionsAndPods(t *testing.T) {
	cfg := smallConfig(6000)
	cfg.Tenants = 3
	sc, _ := ByName("steady")
	tr, err := sc.Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 6000 {
		t.Fatalf("got %d requests", tr.Len())
	}
	// Tenants must own disjoint function-ID ranges covering the budget.
	maxFn := 0
	for _, r := range tr.Requests {
		if r.FnID > maxFn {
			maxFn = r.FnID
		}
	}
	if maxFn >= cfg.Base.Functions {
		t.Errorf("function id %d exceeds budget %d", maxFn, cfg.Base.Functions)
	}
	// Pods must not be shared between functions (remap collision check).
	podFn := map[int]int{}
	for _, r := range tr.Requests {
		if fn, ok := podFn[r.PodID]; ok && fn != r.FnID {
			t.Fatalf("pod %d shared by functions %d and %d", r.PodID, fn, r.FnID)
		} else {
			podFn[r.PodID] = r.FnID
		}
	}
}

func TestMultiTenantScenarioHasTenantDiversity(t *testing.T) {
	sc, _ := ByName("multi-tenant")
	if len(sc.Tenants) < 3 {
		t.Fatalf("multi-tenant scenario has %d tenants", len(sc.Tenants))
	}
	names := make([]string, len(sc.Tenants))
	for i, tn := range sc.Tenants {
		names[i] = tn.Name
	}
	if strings.Join(names, ",") != "api,web,batch" {
		t.Errorf("tenant names %v", names)
	}
}

func TestAutoHorizonScalesWithDensity(t *testing.T) {
	cfg := Config{Base: trace.GeneratorConfig{Requests: 1_000_000, Functions: 400}}
	h := cfg.horizon()
	if h < time.Hour || h > 48*time.Hour {
		t.Errorf("auto horizon %v out of expected band", h)
	}
	small := Config{Base: trace.GeneratorConfig{Requests: 100, Functions: 400}}
	if small.horizon() != 30*time.Minute {
		t.Errorf("small-workload horizon %v, want clamp to 30m", small.horizon())
	}
	fixed := Config{Horizon: 2 * time.Hour}
	if fixed.horizon() != 2*time.Hour {
		t.Errorf("explicit horizon not honored: %v", fixed.horizon())
	}
}

func TestSubset(t *testing.T) {
	// Empty argument list is the whole catalog.
	all, err := Subset()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Catalog()) {
		t.Fatalf("Subset() = %d scenarios, want %d", len(all), len(Catalog()))
	}
	// Selection preserves catalog order regardless of argument order.
	got, err := Subset("bursty", "diurnal")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "diurnal" || got[1].Name != "bursty" {
		t.Errorf("Subset(bursty, diurnal) = %v, want catalog order [diurnal bursty]", names(got))
	}
	// Unknown and duplicate names are hard errors.
	if _, err := Subset("diurnal", "no-such"); err == nil {
		t.Error("Subset with unknown name did not fail")
	}
	if _, err := Subset("diurnal", "diurnal"); err == nil {
		t.Error("Subset with duplicate name did not fail")
	}
}

// names projects scenario names for test failure messages.
func names(scs []Scenario) []string {
	out := make([]string, len(scs))
	for i, s := range scs {
		out[i] = s.Name
	}
	return out
}
