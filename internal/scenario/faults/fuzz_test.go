package faults_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"slscost/internal/api"
	"slscost/internal/scenario/faults"
)

// FuzzDecodeFaultSpec throws arbitrary bytes at the fault spec where
// the job api decodes it: as the "faults" member of simulate params,
// through api.DecodeParams and api.SimulateConfigs. It checks the
// invariants there: no panic, a spec the resolver accepts re-validates
// (NaN/negative rates and overlapping drain windows can never slip
// through) and compiles into a fleet config that passes its own
// Validate, and accepted params survive a marshal/decode round trip
// with the spec's JSON form unchanged. (An explicit empty drain list
// decodes as given and marshals as absent, as omitempty says, so it is
// the JSON form, not the Go value, that must survive.) api's
// FuzzResolveParams mutates whole params; this target keeps the
// mutator on the spec's bytes.
func FuzzDecodeFaultSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"crash":{"rate":3,"restart":"2m"}}`))
	f.Add([]byte(`{"preempt":{"rate":2,"notice":"2m","restart":"1m"}}`))
	f.Add([]byte(`{"az_outage":{"zones":4,"zone":1,"at":0.45,"duration":"5m"}}`))
	f.Add([]byte(`{"drains":[{"from":0.2,"to":0.7,"grace":"1m","restart":"30s"}]}`))
	f.Add([]byte(`{"storm":{"at":0.5}}`))
	f.Add([]byte(`{"crash":{"rate":-1,"restart":"2m"}}`))
	f.Add([]byte(`{"crash":{"rate":1e308,"restart":"2m"}}`))
	f.Add([]byte(`{"drains":[{"from":0.1,"to":0.6},{"from":0.5,"to":0.9}]}`))
	f.Add([]byte(`{"drains":[{"from":0.1,"to":0.5},{"from":2.2,"to":2.4}]}`))
	f.Add([]byte(`{"az_outage":{"zones":0,"zone":0,"at":0,"duration":"0s"}}`))
	f.Add([]byte(`{"storm":{"at":0.5}}{"storm":{"at":0.6}}`))
	f.Add([]byte(`{"unknown_axis":true}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := resolveFaults(t, append(append([]byte(`{"faults":`), data...), '}'))
		if !ok || p.Faults == nil {
			return
		}
		if err := p.Faults.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v", err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted params do not re-marshal: %v", err)
		}
		again, ok := resolveFaults(t, b)
		if !ok {
			t.Fatalf("re-marshaled params %s no longer resolve", b)
		}
		if want, got := specJSON(t, p.Faults), specJSON(t, again.Faults); !bytes.Equal(want, got) {
			t.Fatalf("round trip changed the spec: %s vs %s", want, got)
		}
	})
}

// resolveFaults decodes params and resolves them with a fixed job
// seed, reporting whether both accepted them. A fleet config the
// resolver accepts must pass its own Validate.
func resolveFaults(t *testing.T, params []byte) (api.SimulateParams, bool) {
	var p api.SimulateParams
	if api.DecodeParams(params, &p) != nil {
		return p, false
	}
	fc, _, _, err := api.SimulateConfigs(p, 7)
	if err != nil {
		return p, false
	}
	if err := fc.Validate(); err != nil {
		t.Fatalf("accepted fleet config fails validation: %v", err)
	}
	return p, true
}

// specJSON marshals a fault spec.
func specJSON(t *testing.T, s *faults.Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("accepted spec does not marshal: %v", err)
	}
	return b
}
