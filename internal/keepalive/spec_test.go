package keepalive_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"slscost/internal/api"
	"slscost/internal/keepalive"
)

func u64(v uint64) *uint64 { return &v }

// decodeSpec decodes a keep-alive spec where the job api does: as the
// "keepalive" member of simulate params, through api.DecodeParams.
func decodeSpec(spec string) (*keepalive.Spec, error) {
	var p api.SimulateParams
	if err := api.DecodeParams(json.RawMessage(`{"keepalive":`+spec+`}`), &p); err != nil {
		return nil, err
	}
	return p.KeepAlive, nil
}

// TestSpecValidate pins which keep-alive specs a job can carry. Each
// mode with its seed decodes and passes Validate, which every caller
// (the job api, fleet.Config.Validate) relies on. A bad or empty mode
// and a missing seed fail Validate. A spec that tries to configure a
// mode (histogram shape, fallback window, bandit exploration) fails
// decoding on the unknown field: each mode runs with one calibration.
func TestSpecValidate(t *testing.T) {
	for _, s := range []string{
		`{"mode":"static"}`,
		`{"mode":"adaptive","seed":7}`,
		`{"mode":"bandit","seed":1}`,
	} {
		spec, err := decodeSpec(s)
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	invalid := []struct{ name, spec string }{
		{"bad-mode", `{"mode":"thompson","seed":1}`},
		{"empty-mode", `{"seed":1}`},
		// Through the job api an adaptive spec without a seed inherits
		// the job's; on its own it is rejected.
		{"adaptive-missing-seed", `{"mode":"adaptive"}`},
		{"bandit-missing-seed", `{"mode":"bandit"}`},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := decodeSpec(tc.spec)
			if err != nil {
				t.Fatalf("%s failed to decode: %v", tc.spec, err)
			}
			if err := spec.Validate(); err == nil {
				t.Errorf("accepted %s", tc.spec)
			}
		})
	}
	configured := []struct{ name, spec, field string }{
		{"static-with-histogram-knobs", `{"mode":"static","bin_width":"15s"}`, "bin_width"},
		{"static-with-bandit-knobs", `{"mode":"static","epsilon":0.1}`, "epsilon"},
		{"adaptive-with-bandit-knobs", `{"mode":"adaptive","seed":1,"epsilon":0.1}`, "epsilon"},
		{"bandit-with-histogram-knobs", `{"mode":"bandit","seed":1,"max_idle":"1h"}`, "max_idle"},
		{"unparseable-duration", `{"mode":"adaptive","seed":1,"max_idle":"ninety minutes"}`, "max_idle"},
		{"negative-duration", `{"mode":"adaptive","seed":1,"fallback":"-5m"}`, "fallback"},
		{"zero-bin-width", `{"mode":"adaptive","seed":1,"bin_width":"0s"}`, "bin_width"},
		{"max-below-bin", `{"mode":"adaptive","seed":1,"max_idle":"5s","bin_width":"10s"}`, "max_idle"},
		{"epsilon-above-one", `{"mode":"bandit","seed":1,"epsilon":1.5}`, "epsilon"},
		{"negative-epsilon", `{"mode":"bandit","seed":1,"epsilon":-0.1}`, "epsilon"},
		{"negative-cold-cost", `{"mode":"bandit","seed":1,"cold_cost":-3}`, "cold_cost"},
	}
	for _, tc := range configured {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSpec(tc.spec)
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
				t.Errorf("%s: decode error %v, want the unknown field %q", tc.spec, err, tc.field)
			}
		})
	}
}

func TestNewDeciderPerMode(t *testing.T) {
	// Static mode has no decider: a nil spec and an explicit static one
	// are both errors.
	var nilSpec *keepalive.Spec
	if d, err := nilSpec.NewDecider(keepalive.AWS, 1); err == nil {
		t.Fatalf("nil spec built decider %v", d.Name())
	}
	if d, err := (&keepalive.Spec{Mode: keepalive.ModeStatic}).NewDecider(keepalive.GCP, 1); err == nil {
		t.Fatalf("static spec built decider %v", d.Name())
	}

	// Adaptive falls back to the base policy's midpoint.
	ad, err := (&keepalive.Spec{Mode: keepalive.ModeAdaptive, Seed: u64(7)}).NewDecider(keepalive.AWS, keepalive.FunctionSeed(7, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if w := ad.Window(1); w != 330*time.Second {
		t.Errorf("untrained adaptive window = %v, want AWS midpoint 330s", w)
	}

	bd, err := (&keepalive.Spec{Mode: keepalive.ModeBandit, Seed: u64(7)}).NewDecider(keepalive.AWS, keepalive.FunctionSeed(7, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if bd.Name() != "bandit" {
		t.Errorf("bandit decider name = %q", bd.Name())
	}
}
