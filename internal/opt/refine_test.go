package opt

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func TestRefineImprovesOrHoldsScore(t *testing.T) {
	cfg := testConfig(t, 0)
	start := Candidate{Policy: "least-loaded", KeepAliveTTL: 30 * time.Second, Overcommit: 2}
	rr, err := Refine(context.Background(), cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Score > 1+1e-12 {
		t.Errorf("refinement ended worse than its start: score %.6f", rr.Score)
	}
	if rr.Evaluations != 1+len(rr.Steps) {
		t.Errorf("evaluations %d != 1 start + %d steps", rr.Evaluations, len(rr.Steps))
	}
	for _, st := range rr.Steps {
		if st.Candidate.KeepAliveTTL < 0 || st.Candidate.Overcommit < 1 {
			t.Errorf("probe escaped its bounds: %s", st.Candidate.Key())
		}
		if st.Coordinate != "ttl" && st.Coordinate != "overcommit" {
			t.Errorf("unknown coordinate %q", st.Coordinate)
		}
	}
	// The trajectory renders without exploding.
	var buf bytes.Buffer
	rr.WriteText(&buf)
	if buf.Len() == 0 {
		t.Error("empty refinement rendering")
	}
}

func TestRefineResolvesPlatformTTL(t *testing.T) {
	cfg := testConfig(t, 0)
	rr, err := Refine(context.Background(), cfg, Candidate{Policy: "least-loaded", KeepAliveTTL: PlatformTTL, Overcommit: 2})
	if err != nil {
		t.Fatal(err)
	}
	// AWS window is 300–360 s; the resolved start is its midpoint.
	if rr.Start.Candidate.KeepAliveTTL != 330*time.Second {
		t.Errorf("start TTL resolved to %v, want 330s", rr.Start.Candidate.KeepAliveTTL)
	}
}

func TestRefineDeterministicAcrossWorkers(t *testing.T) {
	start := Candidate{Policy: "bin-pack", KeepAliveTTL: 60 * time.Second, Overcommit: 1.5}
	run := func(workers int) string {
		rr, err := Refine(context.Background(), testConfig(t, workers), start)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rr.WriteText(&buf)
		return buf.String()
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("refinement trajectory differs between 1 and 8 workers:\n%s\nvs\n%s", a, b)
	}
}

// TestRefineConfigValidation checks Refine validates its configuration
// and start before evaluating anything.
func TestRefineConfigValidation(t *testing.T) {
	cfg := testConfig(t, 1)
	if _, err := Refine(context.Background(), cfg, Candidate{Policy: "no-such", Overcommit: 1}); err == nil {
		t.Error("unknown policy did not fail")
	}
	cfg.Hosts = -1
	if _, err := Refine(context.Background(), cfg, Candidate{Policy: "least-loaded", Overcommit: 1}); err == nil {
		t.Error("negative host count did not fail")
	}
}
