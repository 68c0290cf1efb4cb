package fleet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"slscost/internal/core"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

// Golden-report regression tests: fixed-seed simulations rendered with
// WriteText and compared byte-for-byte against committed fixtures. Any
// refactor that changes a report — intentionally or not — fails loudly
// here; intentional changes regenerate the fixtures with
//
//	go test ./internal/fleet -run TestGoldenReports -update
var update = flag.Bool("update", false, "rewrite golden report fixtures")

// goldenCases pins one configuration per distinct code path: the
// default fixed fleet, a memory-retaining keep-alive profile under
// bin-pack, and an autoscaled pool. The policy is carried by name.
// Workers is set explicitly so the fixture does not depend on
// GOMAXPROCS (the report is identical for any worker count; only the
// printed worker line would vary).
type goldenCase struct {
	name   string
	policy string
	cfg    Config
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "aws_least_loaded", policy: "least-loaded",
			cfg: Config{
				Hosts: 4, Host: DefaultHostSpec(), Profile: core.AWS(),
				Workers: 2, Overcommit: 2, Seed: 7,
			},
		},
		{
			name: "gcp_bin_pack", policy: "bin-pack",
			cfg: Config{
				Hosts: 4, Host: DefaultHostSpec(), Profile: core.GCP(),
				Workers: 2, Overcommit: 2, Seed: 7,
			},
		},
		{
			name: "azure_elastic_round_robin", policy: "round-robin",
			cfg: Config{
				Hosts: 6, Host: DefaultHostSpec(), Profile: core.Azure(),
				Workers: 2, Overcommit: 2, Seed: 7, Elastic: true,
			},
		},
	}
}

func TestGoldenReports(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	gen.Seed = 7
	tr := trace.Generate(gen)

	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			pol, err := NewPolicy(c.policy)
			if err != nil {
				t.Fatal(err)
			}
			c.cfg.Policy = pol
			rep, err := Simulate(c.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rep.WriteText(&buf)

			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drifted from fixture %s (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s",
					path, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenFaultReports pins the fault-injected report rendering the
// same way: two catalog fault profiles over catalog scenario traces,
// compared byte-for-byte (recovery quantiles, availability, and the
// eviction tallies included). Regenerate with -update.
func TestGoldenFaultReports(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		profile  string
		policy   string
		prof     core.Profile
	}{
		{name: "faults_diurnal_crashes", scenario: "diurnal",
			profile: "crashes", policy: "least-loaded", prof: core.AWS()},
		{name: "faults_flash_crowd_chaos", scenario: "flash-crowd",
			profile: "chaos", policy: "bin-pack", prof: core.GCP()},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sc, ok := scenario.ByName(c.scenario)
			if !ok {
				t.Fatalf("unknown scenario %s", c.scenario)
			}
			scfg := scenario.DefaultConfig()
			scfg.Base.Requests = 3000
			scfg.Base.Seed = 7
			tr, err := sc.Trace(scfg)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := NewPolicy(c.policy)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Hosts: 4, Host: DefaultHostSpec(), Policy: pol, Profile: c.prof,
				Workers: 2, Overcommit: 2, Seed: 7,
			}
			fp, err := faults.ByName(c.profile)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Faults, err = faults.Compile(&fp.Spec, cfg.Hosts, scfg.EffectiveHorizon(), cfg.Seed); err != nil {
				t.Fatal(err)
			}
			rep, err := Simulate(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.EvictedSandboxes+rep.KilledRequests+rep.DeferredRequests+rep.FaultMaskedPods == 0 {
				t.Fatalf("profile %s perturbed nothing; the fixture would pin a fault-free run", c.profile)
			}
			var buf bytes.Buffer
			rep.WriteText(&buf)

			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drifted from fixture %s (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s",
					path, buf.Bytes(), want)
			}
		})
	}
}
