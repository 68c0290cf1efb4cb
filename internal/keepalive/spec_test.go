package keepalive

import (
	"testing"
	"time"
)

func u64(v uint64) *uint64   { return &v }
func f64(v float64) *float64 { return &v }

// TestSpecValidate pins the spec's own checks, which every caller
// (the job api, fleet.Config.Validate) relies on: the specs the job
// api decodes from JSON pass, and a bad or empty mode, a missing seed,
// a knob that belongs to another mode, a bad duration, and an
// out-of-range epsilon or cold cost are all rejected.
func TestSpecValidate(t *testing.T) {
	accepted := []Spec{
		{Mode: ModeStatic},
		{Mode: ModeAdaptive, Seed: u64(7)},
		{Mode: ModeAdaptive, Seed: u64(7), MaxIdle: "90m", BinWidth: "30s", Fallback: "5m"},
		{Mode: ModeBandit, Seed: u64(1), Epsilon: f64(0.25), ColdCost: f64(120)},
	}
	for _, s := range accepted {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	rejected := []struct {
		name string
		spec Spec
	}{
		{"bad-mode", Spec{Mode: "thompson", Seed: u64(1)}},
		{"empty-mode", Spec{Seed: u64(1)}},
		// Through the job api an adaptive spec without a seed inherits
		// the job's; on its own it is rejected.
		{"adaptive-missing-seed", Spec{Mode: ModeAdaptive}},
		{"bandit-missing-seed", Spec{Mode: ModeBandit}},
		{"static-with-histogram-knobs", Spec{Mode: ModeStatic, BinWidth: "15s"}},
		{"static-with-bandit-knobs", Spec{Mode: ModeStatic, Epsilon: f64(0.1)}},
		{"adaptive-with-bandit-knobs", Spec{Mode: ModeAdaptive, Seed: u64(1), Epsilon: f64(0.1)}},
		{"bandit-with-histogram-knobs", Spec{Mode: ModeBandit, Seed: u64(1), MaxIdle: "1h"}},
		{"unparseable-duration", Spec{Mode: ModeAdaptive, Seed: u64(1), MaxIdle: "ninety minutes"}},
		{"negative-duration", Spec{Mode: ModeAdaptive, Seed: u64(1), Fallback: "-5m"}},
		{"zero-bin-width", Spec{Mode: ModeAdaptive, Seed: u64(1), BinWidth: "0s"}},
		{"max-below-bin", Spec{Mode: ModeAdaptive, Seed: u64(1), MaxIdle: "5s", BinWidth: "10s"}},
		{"epsilon-above-one", Spec{Mode: ModeBandit, Seed: u64(1), Epsilon: f64(1.5)}},
		{"negative-epsilon", Spec{Mode: ModeBandit, Seed: u64(1), Epsilon: f64(-0.1)}},
		{"negative-cold-cost", Spec{Mode: ModeBandit, Seed: u64(1), ColdCost: f64(-3)}},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil {
				t.Errorf("accepted %+v", tc.spec)
			}
		})
	}
}

func TestNewDeciderPerMode(t *testing.T) {
	// Static mode has no decider: a nil spec and an explicit static one
	// are both errors.
	var nilSpec *Spec
	if d, err := nilSpec.NewDecider(AWS, 1); err == nil {
		t.Fatalf("nil spec built decider %v", d.Name())
	}
	if d, err := (&Spec{Mode: ModeStatic}).NewDecider(GCP, 1); err == nil {
		t.Fatalf("static spec built decider %v", d.Name())
	}

	// Adaptive defaults its fallback to the base policy's midpoint.
	ad, err := (&Spec{Mode: ModeAdaptive, Seed: u64(7)}).NewDecider(AWS, FunctionSeed(7, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if w := ad.Window(1); w != 330*time.Second {
		t.Errorf("untrained adaptive window = %v, want AWS midpoint 330s", w)
	}

	// An explicit fallback overrides the midpoint.
	ad, err = (&Spec{Mode: ModeAdaptive, Seed: u64(7), Fallback: "42s"}).NewDecider(AWS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w := ad.Window(1); w != 42*time.Second {
		t.Errorf("untrained adaptive window = %v, want explicit 42s", w)
	}

	bd, err := (&Spec{Mode: ModeBandit, Seed: u64(7)}).NewDecider(AWS, FunctionSeed(7, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if bd.Name() != "bandit" {
		t.Errorf("bandit decider name = %q", bd.Name())
	}
}
