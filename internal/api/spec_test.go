package api

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"slscost/internal/keepalive"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

func TestDecodeJobSpec(t *testing.T) {
	tests := []struct {
		name    string
		body    string
		wantErr string // substring; "" means success
	}{
		{"minimal", `{"method":"fleet.simulate","seed":7}`, ""},
		{"with params", `{"method":"opt.sweep","seed":1,"params":{"requests":1000}}`, ""},
		{"missing seed", `{"method":"fleet.simulate"}`, "explicit seed"},
		{"unknown field", `{"method":"fleet.simulate","seed":7,"sead":8}`, "unknown field"},
		{"no namespace", `{"method":"simulate","seed":7}`, "not namespace.method"},
		{"uppercase method", `{"method":"Fleet.Simulate","seed":7}`, "not namespace.method"},
		{"trailing garbage", `{"method":"fleet.simulate","seed":7}{}`, "trailing data"},
		{"not json", `hello`, "decoding job spec"},
		{"wrong seed type", `{"method":"fleet.simulate","seed":"7"}`, "decoding job spec"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := DecodeJobSpec([]byte(tc.body))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("DecodeJobSpec: %v", err)
				}
				if spec.Seed == nil {
					t.Fatal("decoded spec has nil seed")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("DecodeJobSpec error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshaled %s, want \"1m30s\"", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"2h45m"`), &d); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != 2*time.Hour+45*time.Minute {
		t.Fatalf("unmarshaled %v", time.Duration(d))
	}
	if err := json.Unmarshal([]byte(`90`), &d); err == nil {
		t.Fatal("numeric duration should be rejected")
	}
	if err := json.Unmarshal([]byte(`"soon"`), &d); err == nil {
		t.Fatal("unparsable duration should be rejected")
	}
}

func TestPlanKey(t *testing.T) {
	base := trace.DefaultGeneratorConfig()
	base.Requests = 1000
	base.Seed = 42
	cfg := scenario.Config{Base: base, Tenants: 1}

	if k1, k2 := PlanKey("steady", cfg), PlanKey("steady", cfg); k1 != k2 {
		t.Fatalf("identical configs key differently:\n%s\n%s", k1, k2)
	}
	if PlanKey("steady", cfg) == PlanKey("flash-crowd", cfg) {
		t.Fatal("scenario name not part of the key")
	}
	seeded := cfg
	seeded.Base.Seed = 43
	if PlanKey("steady", cfg) == PlanKey("steady", seeded) {
		t.Fatal("generator seed not part of the key")
	}
	horizoned := cfg
	horizoned.Horizon = time.Hour
	if PlanKey("steady", cfg) == PlanKey("steady", horizoned) {
		t.Fatal("horizon not part of the key")
	}
	tenanted := cfg
	tenanted.Tenants = 4
	if PlanKey("steady", cfg) == PlanKey("steady", tenanted) {
		t.Fatal("tenant fan-out not part of the key")
	}
}

// TestPlanKeyIgnoresKeepAliveSpec pins the cache-sharing contract: the
// keep-alive decider spec acts inside the simulation and cannot change
// the synthesized trace, so specs differing only in keep-alive mode
// must resolve to the same compiled-plan key (a static and an adaptive
// job over the same workload share one plan).
func TestPlanKeyIgnoresKeepAliveSpec(t *testing.T) {
	p := SimulateParams{Requests: 1000}
	_, _, plain, err := SimulateConfigs(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	p.KeepAlive = &keepalive.Spec{Mode: keepalive.ModeAdaptive}
	_, _, adaptive, err := SimulateConfigs(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if PlanKey("steady", plain) != PlanKey("steady", adaptive) {
		t.Fatal("keep-alive spec fragmented the plan cache key")
	}
}

// TestSimulateConfigsKeepAlive: the spec is wired through with the job
// seed inherited when absent, and a bad spec is rejected before any
// run starts.
func TestSimulateConfigsKeepAlive(t *testing.T) {
	p := SimulateParams{KeepAlive: &keepalive.Spec{Mode: keepalive.ModeBandit}}
	fc, _, _, err := SimulateConfigs(p, 123)
	if err != nil {
		t.Fatal(err)
	}
	if fc.KeepAlive == nil || fc.KeepAlive.Mode != keepalive.ModeBandit {
		t.Fatalf("spec not wired through: %+v", fc.KeepAlive)
	}
	if fc.KeepAlive.Seed == nil || *fc.KeepAlive.Seed != 123 {
		t.Errorf("spec seed = %v, want inherited job seed 123", fc.KeepAlive.Seed)
	}
	if p.KeepAlive.Seed != nil {
		t.Error("SimulateConfigs mutated the caller's spec")
	}
	own := uint64(9)
	p.KeepAlive = &keepalive.Spec{Mode: keepalive.ModeAdaptive, Seed: &own}
	if fc, _, _, err = SimulateConfigs(p, 123); err != nil {
		t.Fatal(err)
	}
	if *fc.KeepAlive.Seed != 9 {
		t.Errorf("explicit spec seed overridden: %d", *fc.KeepAlive.Seed)
	}
	p.KeepAlive = &keepalive.Spec{Mode: "thermostat"}
	if _, _, _, err := SimulateConfigs(p, 123); err == nil {
		t.Error("bad keep-alive spec accepted")
	}
}

func TestSimulateConfigsDefaults(t *testing.T) {
	fc, sc, scfg, err := SimulateConfigs(SimulateParams{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	// The zero params must resolve to the fleetsim CLI defaults, so a
	// remote run with no overrides reproduces the CLI's default run.
	if fc.Hosts != 32 || fc.Overcommit != 2 || fc.Seed != 99 {
		t.Fatalf("unexpected fleet config: %+v", fc)
	}
	if fc.Profile.Name != "aws-lambda" {
		t.Fatalf("default platform = %q", fc.Profile.Name)
	}
	if sc.Name != "steady" {
		t.Fatalf("default scenario = %q", sc.Name)
	}
	if scfg.Base.Requests != 200000 || scfg.Base.Seed != 99 || scfg.Tenants != 1 {
		t.Fatalf("unexpected scenario config: %+v", scfg)
	}
}

func u64(v uint64) *uint64 { return &v }

// refusesField checks that DecodeParams refuses simulate params on the
// named unknown field.
func refusesField(t *testing.T, params, field string) {
	t.Helper()
	var p SimulateParams
	err := DecodeParams(json.RawMessage(params), &p)
	if err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
		t.Errorf("%s: decode error %v, want the unknown field %q", params, err, field)
	}
}

// TestDecodeParamsSpecs: the fault and keep-alive specs a job carries
// decode through DecodeParams, the one decoder of job params, to the
// specs they spell. A keep-alive spec that configures its mode (the
// histogram, fallback and exploration settings older specs carried)
// is refused on the unknown field: each mode has one calibration.
func TestDecodeParamsSpecs(t *testing.T) {
	keepAlive := []struct {
		in   string
		want keepalive.Spec
	}{
		{`{"mode":"static"}`, keepalive.Spec{Mode: keepalive.ModeStatic}},
		{`{"mode":"adaptive","seed":7}`, keepalive.Spec{Mode: keepalive.ModeAdaptive, Seed: u64(7)}},
		{`{"mode":"bandit","seed":1}`, keepalive.Spec{Mode: keepalive.ModeBandit, Seed: u64(1)}},
	}
	for _, tc := range keepAlive {
		var p SimulateParams
		if err := DecodeParams(json.RawMessage(`{"keepalive":`+tc.in+`}`), &p); err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(*p.KeepAlive, tc.want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.in, *p.KeepAlive, tc.want)
		}
		if _, _, _, err := SimulateConfigs(p, 1); err != nil {
			t.Errorf("%s: %v", tc.in, err)
		}
	}
	refusesField(t, `{"keepalive":{"mode":"adaptive","seed":7,"max_idle":"90m","bin_width":"30s","fallback":"5m"}}`, "max_idle")
	refusesField(t, `{"keepalive":{"mode":"bandit","seed":1,"epsilon":0.25,"cold_cost":120}}`, "epsilon")
	var p SimulateParams
	if err := DecodeParams(json.RawMessage(`{"faults":{"crash":{"rate":2,"restart":"90s"},"storm":{"at":0.5}}}`), &p); err != nil {
		t.Fatal(err)
	}
	if c := p.Faults.Crash; c.Rate != 2 || time.Duration(c.Restart) != 90*time.Second || p.Faults.Storm.At != 0.5 {
		t.Fatalf("decoded %+v", p.Faults)
	}
}

// TestDecodeParamsRejectsMalformedSpecs pins the strictness of job
// params all the way down the fault and keep-alive specs they carry:
// unknown fields, trailing data, numeric or malformed durations and a
// spec that is not an object are decode errors.
func TestDecodeParamsRejectsMalformedSpecs(t *testing.T) {
	cases := []struct{ name, params string }{
		{"faults unknown field", `{"faults":{"crash":{"rate":2,"restart":"90s","typo":1}}}`},
		{"faults trailing data", `{"faults":{"storm":{"at":0.5}}}{"faults":{"storm":{"at":0.6}}}`},
		{"faults numeric duration", `{"faults":{"crash":{"rate":2,"restart":90}}}`},
		{"faults malformed duration", `{"faults":{"crash":{"rate":2,"restart":"ninety"}}}`},
		{"faults array", `{"faults":[]}`},
		{"keepalive unknown field", `{"keepalive":{"mode":"static","ttl":"60s"}}`},
		{"keepalive trailing data", `{"keepalive":{"mode":"static"}} {}`},
		{"keepalive not json", `{"keepalive":mode=adaptive}`},
		{"keepalive array", `{"keepalive":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p SimulateParams
			if err := DecodeParams(json.RawMessage(tc.params), &p); err == nil {
				t.Fatalf("accepted %s", tc.params)
			}
		})
	}
}

// TestSimulateConfigsRejectsBadSpecs: specs that decode but do not
// validate fail to resolve. A fault spec's rejection is a typed
// *faults.SpecError naming the field, through the resolver as on its
// own; an adaptive keep-alive spec without a seed is accepted on
// purpose, because it inherits the job's. A keep-alive spec that
// carries a per-mode setting is refused before that, by DecodeParams.
func TestSimulateConfigsRejectsBadSpecs(t *testing.T) {
	resolve := func(params string) error {
		var p SimulateParams
		if err := DecodeParams(json.RawMessage(params), &p); err != nil {
			t.Fatalf("%s: %v", params, err)
		}
		_, _, _, err := SimulateConfigs(p, 1)
		return err
	}
	for _, tc := range []struct{ params, field string }{
		{`{"faults":{"crash":{"rate":-3}}}`, "crash.rate"},
		{`{"faults":{"drains":[{"from":0.1,"to":0.6},{"from":0.5,"to":0.9}]}}`, "drains[1]"},
	} {
		var se *faults.SpecError
		if err := resolve(tc.params); !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("%s: error %v, want a *faults.SpecError on %s", tc.params, err, tc.field)
		}
	}
	for _, params := range []string{
		`{"keepalive":{"mode":"thompson","seed":1}}`,
		`{"keepalive":{"seed":1}}`,
	} {
		if err := resolve(params); err == nil {
			t.Errorf("%s: resolved", params)
		}
	}
	refusesField(t, `{"keepalive":{"mode":"static","epsilon":0.1}}`, "epsilon")
	refusesField(t, `{"keepalive":{"mode":"adaptive","max_idle":"ninety minutes"}}`, "max_idle")
	refusesField(t, `{"keepalive":{"mode":"bandit","epsilon":1.5}}`, "epsilon")
	if err := resolve(`{"keepalive":{"mode":"adaptive"}}`); err != nil {
		t.Errorf("adaptive spec without a seed: %v", err)
	}
}

// TestResolversCapHosts pins MaxHosts in both resolvers: a pool at the
// limit resolves, with a fault plan compiled for it, and a larger one
// fails with the limit named before any per-host allocation. Without
// the check 2^50 hosts resolve, and with faults they panic compiling
// the plan.
func TestResolversCapHosts(t *testing.T) {
	chaos, err := faults.ByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*faults.Spec{nil, &chaos.Spec} {
		fc, _, _, err := SimulateConfigs(SimulateParams{Hosts: MaxHosts, Faults: spec}, 1)
		if err != nil {
			t.Fatalf("simulate at the limit: %v", err)
		}
		if spec != nil && fc.Faults.Hosts() != MaxHosts {
			t.Fatalf("fault plan compiled for %d hosts", fc.Faults.Hosts())
		}
		if _, _, err := SweepConfigs(SweepParams{Hosts: MaxHosts, Faults: spec}, 1); err != nil {
			t.Fatalf("sweep at the limit: %v", err)
		}
		for _, hosts := range []int{MaxHosts + 1, 1 << 50} {
			if _, _, _, err := SimulateConfigs(SimulateParams{Hosts: hosts, Faults: spec}, 1); err == nil ||
				!strings.Contains(err.Error(), "limit") {
				t.Errorf("simulate with %d hosts: %v, want the limit named", hosts, err)
			}
			if _, _, err := SweepConfigs(SweepParams{Hosts: hosts, Faults: spec}, 1); err == nil ||
				!strings.Contains(err.Error(), "limit") {
				t.Errorf("sweep with %d hosts: %v, want the limit named", hosts, err)
			}
		}
	}
}

func TestSimulateConfigsRejects(t *testing.T) {
	tests := []struct {
		name string
		p    SimulateParams
		want string
	}{
		{"platform", SimulateParams{Platform: "nope"}, "unknown platform"},
		{"policy", SimulateParams{Policy: "nope"}, "unknown placement policy"},
		{"scenario", SimulateParams{Scenario: "nope"}, "unknown scenario"},
		{"overcommit", SimulateParams{Overcommit: 0.5}, "below 1"},
		{"tenants", SimulateParams{Tenants: -1}, "below 1"},
		{"horizon", SimulateParams{Horizon: Duration(-time.Second)}, "negative"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := SimulateConfigs(tc.p, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSweepConfigsRejects: the sweep resolver runs the checks the
// simulate resolver runs on the params they share.
func TestSweepConfigsRejects(t *testing.T) {
	tests := []struct {
		name string
		p    SweepParams
		want string
	}{
		{"platform", SweepParams{Platform: "nope"}, "unknown platform"},
		{"hosts", SweepParams{Hosts: -1}, "below 1"},
		{"requests", SweepParams{Requests: -1}, "negative request count"},
		{"tenants", SweepParams{Tenants: -1}, "below 1"},
		{"horizon", SweepParams{Horizon: Duration(-time.Second)}, "negative"},
		{"host_vcpu", SweepParams{HostVCPU: -1}, "non-positive host capacity"},
		{"host_mem_mb", SweepParams{HostMemMB: -1}, "non-positive host capacity"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := SweepConfigs(tc.p, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSweepConfigs(t *testing.T) {
	cfg, space, err := SweepConfigs(SweepParams{
		Scenarios:   []string{"steady"},
		Requests:    5000,
		Policies:    []string{"least-loaded"},
		TTLs:        []string{"platform", "60s"},
		Overcommits: []float64{1},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Scenarios) != 1 || cfg.Scenarios[0].Name != "steady" {
		t.Fatalf("scenarios = %+v", cfg.Scenarios)
	}
	if cfg.Seed != 7 || cfg.Scenario.Base.Seed != 7 || cfg.Scenario.Base.Requests != 5000 {
		t.Fatalf("unexpected config: %+v", cfg)
	}
	if len(space.Policies) != 1 || len(space.TTLs) != 2 || len(space.Overcommits) != 1 {
		t.Fatalf("unexpected space: %+v", space)
	}
	if _, _, err := SweepConfigs(SweepParams{Scenarios: []string{"nope"}}, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, _, err := SweepConfigs(SweepParams{TTLs: []string{"soon"}}, 1); err == nil {
		t.Fatal("unparsable TTL accepted")
	}
	// The keep-alive mode axis passes through; garbage modes fail at
	// space validation inside opt, before any evaluation runs.
	_, space, err = SweepConfigs(SweepParams{KeepAliveModes: []string{"static", "adaptive"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.KeepAliveModes) != 2 {
		t.Fatalf("keep-alive modes not wired: %+v", space.KeepAliveModes)
	}
	if err := space.Validate(); err != nil {
		t.Fatal(err)
	}
	_, space, err = SweepConfigs(SweepParams{KeepAliveModes: []string{"thermostat"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Validate(); err == nil {
		t.Fatal("unknown keep-alive mode survived space validation")
	}
}
