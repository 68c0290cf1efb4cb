package fleet

import (
	"context"
	"testing"

	"slscost/internal/core"
	"slscost/internal/keepalive"
	"slscost/internal/trace"
)

// Tests for the keep-alive decision layer's fleet wiring: adaptive and
// bandit runs must be worker-count independent and stream==materialized
// exactly like static ones, and an explicit static spec must be
// indistinguishable from no spec at all.

func deciderTestConfig(t *testing.T, mode keepalive.Mode, workers int) Config {
	t.Helper()
	pol, err := NewPolicy("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Hosts: 4, Host: DefaultHostSpec(), Policy: pol,
		Profile: core.AWS(), Workers: workers, Overcommit: 2, Seed: 7,
	}
	seed := cfg.Seed
	cfg.KeepAlive = &keepalive.Spec{Mode: mode, Seed: &seed}
	return cfg
}

func deciderTestTrace() *trace.Trace {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 3000
	gen.Seed = 7
	return trace.Generate(gen)
}

// TestAdaptiveWorkerIndependence: adaptive and bandit reports are
// identical for 1, 4, and 8 workers — the decider streams are keyed by
// (seed, host, function), never by scheduling.
func TestAdaptiveWorkerIndependence(t *testing.T) {
	tr := deciderTestTrace()
	for _, mode := range []keepalive.Mode{keepalive.ModeAdaptive, keepalive.ModeBandit} {
		t.Run(string(mode), func(t *testing.T) {
			base, err := Simulate(deciderTestConfig(t, mode, 1), tr)
			if err != nil {
				t.Fatal(err)
			}
			if base.PolicyDecisions == 0 || base.PolicyFunctions == 0 {
				t.Fatalf("%s run made no decisions: %+v", mode, base)
			}
			for _, workers := range []int{4, 8} {
				rep, err := Simulate(deciderTestConfig(t, mode, workers), tr)
				if err != nil {
					t.Fatal(err)
				}
				rep.Workers = base.Workers // the only field allowed to differ
				if rep != base {
					t.Errorf("%s report differs at %d workers:\n%+v\nvs 1 worker:\n%+v", mode, workers, rep, base)
				}
			}
		})
	}
}

// TestAdaptiveStreamMatchesMaterialized: the replay runs the decider
// state machines identically whether fed a materialized trace
// (Simulate) or a source (SimulateStream).
func TestAdaptiveStreamMatchesMaterialized(t *testing.T) {
	tr := deciderTestTrace()
	for _, mode := range []keepalive.Mode{keepalive.ModeAdaptive, keepalive.ModeBandit} {
		t.Run(string(mode), func(t *testing.T) {
			batch, err := Simulate(deciderTestConfig(t, mode, 2), tr)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := SimulateStream(context.Background(), deciderTestConfig(t, mode, 2), trace.SourceOf(tr))
			if err != nil {
				t.Fatal(err)
			}
			if stream != batch {
				t.Errorf("%s stream report differs from batch:\n%+v\nvs\n%+v", mode, stream, batch)
			}
		})
	}
}

// TestStaticSpecMatchesNilSpec: an explicit static spec is the legacy
// path — same struct, same rendered bytes as no spec at all.
func TestStaticSpecMatchesNilSpec(t *testing.T) {
	tr := deciderTestTrace()
	cfg := deciderTestConfig(t, keepalive.ModeStatic, 2)
	withSpec, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg = deciderTestConfig(t, keepalive.ModeStatic, 2)
	cfg.KeepAlive = nil
	without, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if withSpec != without {
		t.Errorf("static spec report differs from nil spec:\n%+v\nvs\n%+v", withSpec, without)
	}
	if withSpec.KeepAliveMode != "static" || withSpec.PolicyDecisions != 0 {
		t.Errorf("static run carries decider telemetry: %+v", withSpec)
	}
}

// TestDeciderSpecValidatedByConfig: a bad spec is rejected at
// Config.Validate, before any host runs.
func TestDeciderSpecValidatedByConfig(t *testing.T) {
	cfg := deciderTestConfig(t, keepalive.ModeAdaptive, 1)
	cfg.KeepAlive.Seed = nil
	if _, err := Simulate(cfg, deciderTestTrace()); err == nil {
		t.Error("seedless adaptive spec accepted")
	}
}
