package keepalive

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func u64(v uint64) *uint64   { return &v }
func f64(v float64) *float64 { return &v }

func decodeSpec(t *testing.T, s string) (*Spec, error) {
	t.Helper()
	return DecodeSpec(strings.NewReader(s))
}

func TestDecodeSpecAccepts(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{`{"mode":"static"}`, Spec{Mode: ModeStatic}},
		{`{"mode":"adaptive","seed":7}`, Spec{Mode: ModeAdaptive, Seed: u64(7)}},
		{`{"mode":"adaptive","seed":7,"max_idle":"90m","bin_width":"30s","fallback":"5m"}`,
			Spec{Mode: ModeAdaptive, Seed: u64(7), MaxIdle: "90m", BinWidth: "30s", Fallback: "5m"}},
		{`{"mode":"bandit","seed":1,"epsilon":0.25,"cold_cost":120}`,
			Spec{Mode: ModeBandit, Seed: u64(1), Epsilon: f64(0.25), ColdCost: f64(120)}},
	}
	for _, tc := range cases {
		got, err := decodeSpec(t, tc.in)
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.in, *got, tc.want)
		}
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"unknown-field", `{"mode":"static","ttl":"60s"}`},
		{"trailing-data", `{"mode":"static"} {}`},
		{"bad-mode", `{"mode":"thompson","seed":1}`},
		{"empty-mode", `{"seed":1}`},
		{"adaptive-missing-seed", `{"mode":"adaptive"}`},
		{"bandit-missing-seed", `{"mode":"bandit"}`},
		{"static-with-histogram-knobs", `{"mode":"static","bin_width":"15s"}`},
		{"static-with-bandit-knobs", `{"mode":"static","epsilon":0.1}`},
		{"adaptive-with-bandit-knobs", `{"mode":"adaptive","seed":1,"epsilon":0.1}`},
		{"bandit-with-histogram-knobs", `{"mode":"bandit","seed":1,"max_idle":"1h"}`},
		{"unparseable-duration", `{"mode":"adaptive","seed":1,"max_idle":"ninety minutes"}`},
		{"negative-duration", `{"mode":"adaptive","seed":1,"fallback":"-5m"}`},
		{"zero-bin-width", `{"mode":"adaptive","seed":1,"bin_width":"0s"}`},
		{"max-below-bin", `{"mode":"adaptive","seed":1,"max_idle":"5s","bin_width":"10s"}`},
		{"epsilon-above-one", `{"mode":"bandit","seed":1,"epsilon":1.5}`},
		{"negative-cold-cost", `{"mode":"bandit","seed":1,"cold_cost":-3}`},
		{"not-json", `mode=adaptive`},
	}
	for _, tc := range cases {
		if _, err := decodeSpec(t, tc.in); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.in)
		}
	}
}

func TestDecodeSpecSizeCap(t *testing.T) {
	huge := `{"mode":"static","max_idle":"` + strings.Repeat(" ", maxSpecBytes) + `"}`
	if _, err := DecodeSpec(strings.NewReader(huge)); err == nil {
		t.Error("oversized spec accepted")
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

// FuzzDecodePolicySpec hardens the wire decoder: no input may panic
// it, and every accepted spec must round-trip (marshal → decode →
// equal) so the canonical form the plan cache and sweep keys see is
// stable.
func FuzzDecodePolicySpec(f *testing.F) {
	f.Add([]byte(`{"mode":"static"}`))
	f.Add([]byte(`{"mode":"adaptive","seed":7}`))
	f.Add([]byte(`{"mode":"adaptive","seed":7,"max_idle":"90m","bin_width":"30s","fallback":"5m"}`))
	f.Add([]byte(`{"mode":"bandit","seed":1,"epsilon":0.25,"cold_cost":120}`))
	f.Add([]byte(`{"mode":"thompson"}`))
	f.Add([]byte(`{"mode":"static"} {}`))
	f.Add([]byte(`{"mode":"adaptive","seed":1,"bin_width":"-1s"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %v", err)
		}
		s2, err := DecodeSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("round-trip decode failed: %v\nspec: %s", err, out)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round-trip changed spec: %+v vs %+v", s, s2)
		}
	})
}
