package keepalive_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"slscost/internal/api"
)

// FuzzDecodePolicySpec throws arbitrary bytes at the keep-alive spec
// where the job api decodes it: as the "keepalive" member of simulate
// params, through api.DecodeParams and api.SimulateConfigs. No input
// may panic either; a spec the resolver accepts yields a fleet config
// that passes its own Validate (a spec without a seed inherits the job
// seed there); and accepted params survive a marshal/decode round trip
// with the spec unchanged, so the canonical form sweep keys see is
// stable. A spec that configures a mode (the histogram, fallback and
// exploration settings older specs carried) is refused as an unknown
// field; those seeds exercise the refusal. api's FuzzResolveParams
// mutates whole params; this target keeps the mutator on the spec's
// bytes.
func FuzzDecodePolicySpec(f *testing.F) {
	f.Add([]byte(`{"mode":"static"}`))
	f.Add([]byte(`{"mode":"adaptive","seed":7}`))
	f.Add([]byte(`{"mode":"adaptive","seed":7,"max_idle":"90m","bin_width":"30s","fallback":"5m"}`))
	f.Add([]byte(`{"mode":"bandit","seed":1,"epsilon":0.25,"cold_cost":120}`))
	f.Add([]byte(`{"mode":"thompson"}`))
	f.Add([]byte(`{"mode":"static"} {}`))
	f.Add([]byte(`{"mode":"adaptive","seed":1,"bin_width":"-1s"}`))
	f.Add([]byte(`{"mode":"bandit","seed":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := resolveKeepAlive(t, append(append([]byte(`{"keepalive":`), data...), '}'))
		if !ok || p.KeepAlive == nil {
			return
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted params failed to marshal: %v", err)
		}
		again, ok := resolveKeepAlive(t, b)
		if !ok {
			t.Fatalf("re-marshaled params %s no longer resolve", b)
		}
		if !reflect.DeepEqual(p.KeepAlive, again.KeepAlive) {
			t.Fatalf("round trip changed the spec: %+v vs %+v", *p.KeepAlive, *again.KeepAlive)
		}
	})
}

// resolveKeepAlive decodes params and resolves them with a fixed job
// seed, reporting whether both accepted them. A fleet config the
// resolver accepts must pass its own Validate.
func resolveKeepAlive(t *testing.T, params []byte) (api.SimulateParams, bool) {
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
