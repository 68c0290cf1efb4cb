package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"testing"

	"slscost/internal/scenario/faults"
)

// FuzzDecodeJobSpec throws arbitrary bytes at the spec decoder — the
// daemon's first contact with untrusted input — and checks its
// invariants: no panic, and anything accepted is well-formed (shaped
// method name, explicit seed) and survives a marshal/decode round
// trip with the same method and seed.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Add([]byte(`{"method":"fleet.simulate","seed":7}`))
	f.Add([]byte(`{"method":"opt.sweep","seed":0,"params":{"requests":1000,"scenarios":["steady"]}}`))
	f.Add([]byte(`{"method":"scenario.verify","seed":18446744073709551615,"params":{"tolerance":1e-6}}`))
	f.Add([]byte(`{"method":"fleet.simulate"}`))
	f.Add([]byte(`{"method":"","seed":1}`))
	f.Add([]byte(`{"method":"a.b","seed":1,"params":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"method":"fleet.simulate","seed":7}{"method":"fleet.simulate","seed":8}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		if !methodNameRE.MatchString(spec.Method) {
			t.Fatalf("accepted malformed method %q", spec.Method)
		}
		if spec.Seed == nil {
			t.Fatal("accepted spec without a seed")
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-marshal: %v", err)
		}
		again, err := DecodeJobSpec(b)
		if err != nil {
			t.Fatalf("re-marshaled spec %s no longer decodes: %v", b, err)
		}
		if again.Method != spec.Method || *again.Seed != *spec.Seed {
			t.Fatalf("round trip changed the spec: %+v vs %+v", spec, again)
		}
	})
}

// FuzzResolveParams throws arbitrary bytes at the path every job's
// params take: DecodeParams into SimulateParams and into SweepParams,
// the two resolvers, and opt.Space.Validate. Nothing may panic or size
// an allocation from an unchecked number; every configuration a
// resolver accepts passes its own Validate; a space that validates
// enumerates exactly Size candidates; and params that resolve,
// re-marshaled and decoded again, resolve to the same bytes.
//
// The first seeds are the fault and keep-alive specs the job api
// decodes inside params, each wrapped as the params object that
// carries it.
func FuzzResolveParams(f *testing.F) {
	for _, s := range []string{
		// Fault specs.
		`{"faults":{}}`,
		`{"faults":{"crash":{"rate":3,"restart":"2m"}}}`,
		`{"faults":{"preempt":{"rate":2,"notice":"2m","restart":"1m"}}}`,
		`{"faults":{"az_outage":{"zones":4,"zone":1,"at":0.45,"duration":"5m"}}}`,
		`{"faults":{"drains":[{"from":0.2,"to":0.7,"grace":"1m","restart":"30s"}]}}`,
		`{"faults":{"storm":{"at":0.5}}}`,
		`{"faults":{"crash":{"rate":-1,"restart":"2m"}}}`,
		`{"faults":{"crash":{"rate":1e308,"restart":"2m"}}}`,
		`{"faults":{"drains":[{"from":0.1,"to":0.6},{"from":0.5,"to":0.9}]}}`,
		`{"faults":{"drains":[{"from":0.1,"to":0.5},{"from":2.2,"to":2.4}]}}`,
		`{"faults":{"az_outage":{"zones":0,"zone":0,"at":0,"duration":"0s"}}}`,
		`{"faults":{"storm":{"at":0.5}}}{"faults":{"storm":{"at":0.6}}}`,
		`{"faults":{"unknown_axis":true}}`,
		`{"faults":[]}`,
		// Keep-alive decider specs.
		`{"keepalive":{"mode":"static"}}`,
		`{"keepalive":{"mode":"adaptive","seed":7}}`,
		`{"keepalive":{"mode":"adaptive","seed":7,"max_idle":"90m","bin_width":"30s","fallback":"5m"}}`,
		`{"keepalive":{"mode":"bandit","seed":1,"epsilon":0.25,"cold_cost":120}}`,
		`{"keepalive":{"mode":"thompson"}}`,
		`{"keepalive":{"mode":"static"}} {}`,
		`{"keepalive":{"mode":"adaptive","seed":1,"bin_width":"-1s"}}`,
		// Whole params, and the sizes that must fail on a limit.
		``,
		`{}`,
		`{"platform":"gcp-cloud-run","policy":"bin-pack","hosts":8,"requests":5000,"scenario":"flash-crowd","tenants":3,"horizon":"2h","overcommit":1.5,"elastic":true}`,
		`{"scenario":"raw","faults":{}}`,
		`{"scenarios":["steady","diurnal"],"policies":["random","bin-pack"],"ttls":["platform","60s"],"overcommits":[1,2],"keepalive_modes":["static","adaptive"]}`,
		`{"hosts":1125899906842624}`,
		`{"hosts":4096,"faults":{"crash":{"rate":10000}}}`,
		`{"tenants":1125899906842624,"requests":-1}`,
		`{"ttls":["1s","2s","3s"],"overcommits":[1,1,1],"keepalive_modes":["static","static"]}`,
		`{"keepalive":{"mode":"bandit","seed":1}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sim SimulateParams
		if DecodeParams(data, &sim) == nil {
			if got := resolveSimulate(t, sim); got != nil {
				if again := resolveSimulate(t, remarshal(t, sim)); !bytes.Equal(got, again) {
					t.Fatalf("simulate params resolve differently after a round trip:\n%s\n%s", got, again)
				}
			}
		}
		var sw SweepParams
		if DecodeParams(data, &sw) == nil {
			if got := resolveSweep(t, sw); got != nil {
				if again := resolveSweep(t, remarshal(t, sw)); !bytes.Equal(got, again) {
					t.Fatalf("sweep params resolve differently after a round trip:\n%s\n%s", got, again)
				}
			}
		}
	})
}

// fuzzSeed is the job seed FuzzResolveParams resolves every spec with.
// The helpers below run on every exec, so they skip t.Helper, whose
// stack walk cost a sixth of one.
const fuzzSeed = 7

// remarshal round-trips decoded params through their JSON form.
func remarshal[P any](t *testing.T, p P) P {
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("decoded params do not marshal: %v", err)
	}
	var again P
	if err := DecodeParams(b, &again); err != nil {
		t.Fatalf("re-marshaled params %s no longer decode: %v", b, err)
	}
	return again
}

// resolveSimulate runs SimulateConfigs on p and renders what it
// resolved to, or returns nil when p does not resolve. An accepted
// configuration must pass its own Validate.
func resolveSimulate(t *testing.T, p SimulateParams) []byte {
	fc, sc, scfg, err := SimulateConfigs(p, fuzzSeed)
	if err != nil {
		return nil
	}
	if err := fc.Validate(); err != nil {
		t.Fatalf("accepted fleet config fails validation: %v", err)
	}
	if err := scfg.Base.Validate(); err != nil {
		t.Fatalf("accepted generator config fails validation: %v", err)
	}
	if sc.Name != "" {
		if err := sc.Validate(scfg); err != nil {
			t.Fatalf("accepted scenario config fails validation: %v", err)
		}
	}
	return render(t, struct {
		Policy   string
		Fleet    any
		Faults   uint64
		Scenario string
		Config   any
	}{fc.Policy.Name(), fc, planDigest(fc.Faults), sc.Name, scfg})
}

// resolveSweep runs SweepConfigs on p and renders what it resolved
// to, or returns nil when p does not resolve. An accepted optimizer
// configuration must pass its own Validate; a space that validates
// must enumerate exactly Size candidates.
func resolveSweep(t *testing.T, p SweepParams) []byte {
	cfg, space, err := SweepConfigs(p, fuzzSeed)
	if err != nil {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("accepted sweep config fails validation: %v", err)
	}
	if space.Validate() == nil {
		if n := len(space.Candidates()); n != space.Size() {
			t.Fatalf("space enumerates %d candidates, Size says %d", n, space.Size())
		}
	}
	names := make([]string, len(cfg.Scenarios))
	for i, sc := range cfg.Scenarios {
		names[i] = sc.Name
	}
	return render(t, struct {
		Profile   any
		Host      any
		Hosts     int
		Scenarios []string
		Scenario  any
		Seed      uint64
		Faults    uint64
		Space     any
	}{cfg.Profile, cfg.Host, cfg.Hosts, names, cfg.Scenario, cfg.Seed, planDigest(cfg.Faults), space})
}

// planDigest hashes a fault plan's per-host schedules, which its JSON
// form does not show. A hash rather than the events themselves keeps a
// plan of 2^20 events cheap enough to resolve four times per input.
func planDigest(p *faults.Plan) uint64 {
	if p == nil {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for host := range p.Hosts() {
		evs := p.HostEvents(host)
		word(uint64(len(evs)))
		for _, ev := range evs {
			word(uint64(ev.At))
			word(uint64(ev.Kind))
		}
	}
	return h.Sum64()
}

// render marshals a resolution.
func render(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("resolution does not marshal: %v", err)
	}
	return b
}
