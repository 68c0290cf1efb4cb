package opt

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/trace"
)

func TestDefaultSpaceEnumerates24Candidates(t *testing.T) {
	s := DefaultSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cands := s.Candidates()
	if len(cands) != 24 || len(cands) != s.Size() {
		t.Fatalf("DefaultSpace: %d candidates, Size()=%d, want 24", len(cands), s.Size())
	}
	// Enumeration is policy-major and deterministic; keys are unique.
	seen := make(map[string]bool)
	for _, c := range cands {
		if seen[c.Key()] {
			t.Fatalf("duplicate candidate key %q", c.Key())
		}
		seen[c.Key()] = true
		if err := c.Validate(); err != nil {
			t.Errorf("candidate %s invalid: %v", c.Key(), err)
		}
	}
	if cands[0].Policy != fleet.PolicyNames()[0] || cands[0].KeepAliveTTL != PlatformTTL {
		t.Errorf("first candidate = %+v, want first policy at platform TTL", cands[0])
	}
}

func TestSpaceValidateRejectsGarbage(t *testing.T) {
	bad := []Space{
		{},
		{Policies: []string{"least-loaded"}, TTLs: []time.Duration{PlatformTTL}},
		{Policies: []string{"no-such"}, TTLs: []time.Duration{PlatformTTL}, Overcommits: []float64{1}},
		{Policies: []string{"least-loaded"}, TTLs: []time.Duration{PlatformTTL}, Overcommits: []float64{0.5}},
		// Duplicate knob values would evaluate the same candidates twice;
		// time.Minute vs 60s is the value-level duplicate the string
		// flags can't catch.
		{Policies: []string{"least-loaded", "least-loaded"}, TTLs: []time.Duration{PlatformTTL}, Overcommits: []float64{1}},
		{Policies: []string{"least-loaded"}, TTLs: []time.Duration{60 * time.Second, time.Minute}, Overcommits: []float64{1}},
		{Policies: []string{"least-loaded"}, TTLs: []time.Duration{PlatformTTL}, Overcommits: []float64{2, 2}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("space %d validated but should not have: %+v", i, s)
		}
	}
}

func TestCandidateKeyDistinguishesKnobs(t *testing.T) {
	base := Candidate{Policy: "bin-pack", KeepAliveTTL: PlatformTTL, Overcommit: 1}
	variants := []Candidate{
		{Policy: "random", KeepAliveTTL: PlatformTTL, Overcommit: 1},
		{Policy: "bin-pack", KeepAliveTTL: 0, Overcommit: 1},
		{Policy: "bin-pack", KeepAliveTTL: 60 * time.Second, Overcommit: 1},
		{Policy: "bin-pack", KeepAliveTTL: PlatformTTL, Overcommit: 2},
		{Policy: "bin-pack", KeepAliveTTL: PlatformTTL, Overcommit: 1, Hosts: 8},
		{Policy: "bin-pack", KeepAliveTTL: PlatformTTL, Overcommit: 1, Elastic: true},
	}
	for _, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("candidate %+v key %q collides with base", v, v.Key())
		}
	}
	if !strings.Contains(base.Key(), "ttl=platform") {
		t.Errorf("platform-TTL key %q does not say so", base.Key())
	}
}

func TestParseTTLs(t *testing.T) {
	got, err := ParseTTLs([]string{"platform", "0s", "5m"})
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{PlatformTTL, 0, 5 * time.Minute}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ParseTTLs[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"nope", "-5s", "12"} {
		if _, err := ParseTTLs([]string{bad}); err == nil {
			t.Errorf("ParseTTLs(%q) did not fail", bad)
		}
	}
}

func TestFleetConfigAppliesKnobs(t *testing.T) {
	cfg := Config{Profile: core.AWS(), Hosts: 16}.withDefaults()
	c := Candidate{Policy: "round-robin", KeepAliveTTL: 90 * time.Second, Overcommit: 1.5, Hosts: 4, Elastic: true}
	fc, err := c.fleetConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Hosts != 4 || !fc.Elastic || fc.Overcommit != 1.5 || fc.Workers != 1 {
		t.Errorf("fleetConfig = %+v, want candidate knobs applied with Workers=1", fc)
	}
	if fc.Profile.KeepAlive.MinWindow != 90*time.Second || fc.Profile.KeepAlive.MaxWindow != 90*time.Second {
		t.Errorf("TTL override not applied: window [%v, %v]",
			fc.Profile.KeepAlive.MinWindow, fc.Profile.KeepAlive.MaxWindow)
	}
	// Platform TTL keeps the profile's own window.
	c.KeepAliveTTL = PlatformTTL
	c.Hosts = 0
	fc, err = c.fleetConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Profile.KeepAlive != core.AWS().KeepAlive {
		t.Errorf("platform TTL changed the keep-alive policy: %+v", fc.Profile.KeepAlive)
	}
	if fc.Hosts != 16 {
		t.Errorf("Hosts=0 did not inherit the sweep default: %d", fc.Hosts)
	}
	// Evaluations built from one candidate are interchangeable: the
	// same configuration evaluated twice, and a second configuration
	// built from the candidate, render byte-identical reports. A fixed
	// pool of five hosts makes round-robin's cursor matter.
	c = Candidate{Policy: "round-robin", KeepAliveTTL: PlatformTTL, Overcommit: 1.5, Hosts: 5}
	if fc, err = c.fleetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	fc2, err := c.fleetConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	tr := trace.Generate(gen)
	var texts []string
	for _, f := range []fleet.Config{fc, fc, fc2} {
		rep, err := fleet.Simulate(f, tr)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		rep.WriteText(&b)
		texts = append(texts, b.String())
	}
	for i, text := range texts[1:] {
		if text != texts[0] {
			t.Errorf("evaluation %d of one candidate differs:\n%s\nvs\n%s", i+1, text, texts[0])
		}
	}
}
