package api

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/opt"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

// This file is the wire vocabulary of the job API: the JobSpec
// envelope POST /v1/jobs accepts, the per-namespace parameter shapes,
// strict decoding for all of them, and the spec canonicalization that
// keys the daemon's compiled-plan cache. The CLI's -remote mode builds
// these same types from its flags, so a spec the CLI submits and a
// spec a test submits cannot drift apart.

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "1h30m") — the JSON form of every duration-valued parameter.
type Duration time.Duration

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"90s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// JobSpec is the body of POST /v1/jobs: which namespaced method to
// run, the explicit per-job seed every submission must carry (results
// are reproducible functions of spec and seed, so an accidental
// implicit seed would silently make two "identical" jobs diverge),
// and the method's own parameters.
type JobSpec struct {
	// Method is the namespace-qualified method name ("opt.sweep").
	Method string `json:"method"`
	// Seed drives trace generation and simulation. The pointer makes
	// omission detectable: a spec without a seed is rejected rather
	// than defaulted.
	Seed *uint64 `json:"seed"`
	// Params is the method-specific parameter object, decoded by the
	// method itself (SimulateParams or SweepParams for the built-ins).
	Params json.RawMessage `json:"params,omitempty"`
}

// maxSpecBytes bounds how large a spec body the server reads.
const maxSpecBytes = 1 << 20

// DecodeJobSpec strictly decodes a JobSpec: unknown fields, trailing
// garbage, a malformed method name, and a missing seed are all
// errors. Params content is left for the method to validate.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("api: decoding job spec: %w", err)
	}
	if dec.More() {
		return JobSpec{}, fmt.Errorf("api: job spec has trailing data")
	}
	if !methodNameRE.MatchString(spec.Method) {
		return JobSpec{}, fmt.Errorf("api: job spec method %q is not namespace.method shaped", spec.Method)
	}
	if spec.Seed == nil {
		return JobSpec{}, fmt.Errorf("api: job spec needs an explicit seed")
	}
	return spec, nil
}

// SimulateParams parameterizes fleet.simulate and scenario.verify:
// one cluster replay of one scenario. Zero values take the defaults
// DefaultSimulateParams lists, which are also the fleetsim flag
// defaults, so an empty params object is the CLI's default run.
type SimulateParams struct {
	// Platform is the billing/serving profile name (default
	// "aws-lambda").
	Platform string `json:"platform,omitempty"`
	// Policy is the placement policy (default "least-loaded").
	Policy string `json:"policy,omitempty"`
	// Hosts is the cluster size (default 32).
	Hosts int `json:"hosts,omitempty"`
	// Requests is the synthesized trace size (default 200000).
	Requests int `json:"requests,omitempty"`
	// Scenario names the workload scenario (default "steady"); "raw"
	// bypasses the shaping layer.
	Scenario string `json:"scenario,omitempty"`
	// Tenants fans the scenario into N phase-shifted tenants.
	Tenants int `json:"tenants,omitempty"`
	// Horizon is the scenario shape period; zero auto-scales.
	Horizon Duration `json:"horizon,omitempty"`
	// Overcommit is the CPU oversubscription ratio (default 2).
	Overcommit float64 `json:"overcommit,omitempty"`
	// Elastic autoscale the active host pool.
	Elastic bool `json:"elastic,omitempty"`
	// HostVCPU/HostMemMB shape each host (defaults
	// fleet.DefaultHostSpec).
	HostVCPU  float64 `json:"host_vcpu,omitempty"`
	HostMemMB float64 `json:"host_mem_mb,omitempty"`
	// Faults, when present, is the fault-injection spec compiled into a
	// per-host schedule keyed to the scenario horizon and the job seed.
	// Incompatible with the "raw" scenario (a raw trace carries no
	// horizon to key schedules to).
	Faults *faults.Spec `json:"faults,omitempty"`
	// KeepAlive, when present, selects the per-function keep-alive
	// decision layer (keepalive.Spec). Absent or static is the legacy
	// static window. A spec without its own seed inherits the job seed,
	// keeping "results are a function of spec and seed" true for the
	// decider streams too.
	KeepAlive *keepalive.Spec `json:"keepalive,omitempty"`
}

// DefaultSimulateParams returns the parameters an empty params object
// resolves to.
func DefaultSimulateParams() SimulateParams { return SimulateParams{}.withDefaults() }

// withDefaults resolves the zero values to the defaults.
func (p SimulateParams) withDefaults() SimulateParams {
	if p.Platform == "" {
		p.Platform = "aws-lambda"
	}
	if p.Policy == "" {
		p.Policy = "least-loaded"
	}
	if p.Hosts == 0 {
		p.Hosts = 32
	}
	if p.Requests == 0 {
		p.Requests = 200000
	}
	if p.Scenario == "" {
		p.Scenario = "steady"
	}
	if p.Tenants == 0 {
		p.Tenants = 1
	}
	if p.Overcommit == 0 {
		p.Overcommit = 2
	}
	if p.HostVCPU == 0 {
		p.HostVCPU = fleet.DefaultHostSpec().VCPU
	}
	if p.HostMemMB == 0 {
		p.HostMemMB = fleet.DefaultHostSpec().MemMB
	}
	return p
}

// SweepParams parameterizes opt.sweep and opt.pareto: a policy grid
// over a set of scenarios. Zero values take the fleetsim -sweep
// defaults (the full catalog, opt.DefaultSpace's knob lists).
type SweepParams struct {
	// Platform is the profile name (default "aws-lambda").
	Platform string `json:"platform,omitempty"`
	// Hosts is the default pool size per evaluation (default
	// opt.DefaultHosts).
	Hosts int `json:"hosts,omitempty"`
	// Requests is the per-scenario request volume (default 200000).
	Requests int `json:"requests,omitempty"`
	// Scenarios restricts the sweep to named catalog scenarios; empty
	// means the full catalog.
	Scenarios []string `json:"scenarios,omitempty"`
	// Tenants and Horizon shape the scenario synthesis.
	Tenants int      `json:"tenants,omitempty"`
	Horizon Duration `json:"horizon,omitempty"`
	// Policies, TTLs, Overcommits override the default grid; TTL
	// entries are duration strings or "platform".
	Policies    []string  `json:"policies,omitempty"`
	TTLs        []string  `json:"ttls,omitempty"`
	Overcommits []float64 `json:"overcommits,omitempty"`
	// HostVCPU/HostMemMB shape each host.
	HostVCPU  float64 `json:"host_vcpu,omitempty"`
	HostMemMB float64 `json:"host_mem_mb,omitempty"`
	// Faults, when present, injects the same compiled fault schedule
	// into every evaluation of the sweep.
	Faults *faults.Spec `json:"faults,omitempty"`
	// KeepAliveModes adds the keep-alive decision mode as a sweep axis
	// ("static", "adaptive", "bandit"); empty keeps the grid static
	// only, exactly as before the axis existed.
	KeepAliveModes []string `json:"keepalive_modes,omitempty"`
}

// MaxHosts is the largest host pool a job may ask for. Both resolvers
// check it before anything is sized by the host count: the fault
// compiler, the placement pass and the oracle all allocate per host.
// It is 64 times the largest pool in use (64 hosts).
const MaxHosts = 4096

// resolve checks what SimulateParams shares with SweepParams, defaults
// applied, and the scenario configuration it yields against each of
// scs (none for a raw trace). Only then does it compile the fault spec
// for p.Hosts hosts, so nothing is sized from an unchecked number. It
// returns the shared part of the fleet configuration (pool, host
// shape, platform, fault plan, seed) and the scenario configuration.
func (p SimulateParams) resolve(seed uint64, scs []scenario.Scenario) (fleet.Config, scenario.Config, error) {
	fail := func(err error) (fleet.Config, scenario.Config, error) { return fleet.Config{}, scenario.Config{}, err }
	prof, ok := core.ProfileByName(p.Platform)
	switch {
	case !ok:
		return fail(fmt.Errorf("unknown platform %q", p.Platform))
	case p.Hosts < 1:
		return fail(fmt.Errorf("hosts %d below 1", p.Hosts))
	case p.Hosts > MaxHosts:
		return fail(fmt.Errorf("hosts %d above the limit of %d", p.Hosts, MaxHosts))
	case p.Tenants < 1:
		return fail(fmt.Errorf("tenants %d below 1", p.Tenants))
	case p.Horizon < 0:
		return fail(fmt.Errorf("horizon %v negative", time.Duration(p.Horizon)))
	}
	host := fleet.HostSpec{VCPU: p.HostVCPU, MemMB: p.HostMemMB}
	if err := host.Validate(); err != nil {
		return fail(err)
	}
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = p.Requests
	gen.Seed = seed
	if err := gen.Validate(); err != nil {
		return fail(err)
	}
	scfg := scenario.Config{Base: gen, Horizon: time.Duration(p.Horizon), Tenants: p.Tenants}
	for _, sc := range scs {
		if err := sc.Validate(scfg); err != nil {
			return fail(err)
		}
	}
	plan, err := faults.Compile(p.Faults, p.Hosts, scfg.EffectiveHorizon(), seed)
	if err != nil {
		return fail(err)
	}
	return fleet.Config{Hosts: p.Hosts, Host: host, Profile: prof, Faults: plan, Seed: seed}, scfg, nil
}

// DecodeParams strictly decodes a raw params object into dst: unknown
// fields and trailing data are errors. A nil or empty params is the
// all-defaults object. Every method decodes its params through it.
func DecodeParams(raw json.RawMessage, dst any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("api: decoding params: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("api: params have trailing data")
	}
	return nil
}

// planKeyDoc is the canonical serialized form a plan-cache key hashes
// over: the scenario name plus every scenario.Config field that
// affects compilation. Struct-literal marshaling gives a stable field
// order, so equal workloads canonicalize to equal keys byte-for-byte.
type planKeyDoc struct {
	Scenario string                `json:"scenario"`
	Base     trace.GeneratorConfig `json:"base"`
	Horizon  int64                 `json:"horizon_ns"`
	Tenants  int                   `json:"tenants"`
}

// PlanKey canonicalizes the workload-defining part of a job spec into
// the compiled-plan cache key. Two specs that synthesize the same
// workload — same scenario, generator configuration (seed included),
// horizon, and tenant fan-out — produce the same key regardless of
// everything else in the spec (policy, hosts, TTL grid...), which is
// exactly the sharing the cache wants: cluster knobs don't change the
// trace, so they must not fragment the cache. The keep-alive decider
// spec is deliberately absent for the same reason: deciders act at
// pod-expiry time inside the simulation and cannot affect the
// synthesized trace, so a static and an adaptive job over the same
// workload share one compiled plan.
func PlanKey(scenarioName string, scfg scenario.Config) string {
	b, err := json.Marshal(planKeyDoc{
		Scenario: scenarioName,
		Base:     scfg.Base,
		Horizon:  int64(scfg.Horizon),
		Tenants:  scfg.Tenants,
	})
	if err != nil {
		// Every field is a number or string; Marshal cannot fail.
		return "unkeyable:" + scenarioName
	}
	return string(b)
}

// SimulateConfigs resolves SimulateParams into the fleet and scenario
// configurations a run needs. It is the one resolver: the daemon and
// every fleetsim mode go through it, so remote and in-process runs
// agree. The fleet Config it returns passes Validate; its Workers is
// left at zero (GOMAXPROCS), which never affects results.
func SimulateConfigs(p SimulateParams, seed uint64) (fleet.Config, scenario.Scenario, scenario.Config, error) {
	fail := func(err error) (fleet.Config, scenario.Scenario, scenario.Config, error) {
		return fleet.Config{}, scenario.Scenario{}, scenario.Config{}, err
	}
	p = p.withDefaults()
	var scs []scenario.Scenario
	if p.Scenario != "raw" {
		sc, ok := scenario.ByName(p.Scenario)
		if !ok {
			return fail(fmt.Errorf("unknown scenario %q (have %s, or raw)", p.Scenario, strings.Join(scenario.Names(), ", ")))
		}
		scs = []scenario.Scenario{sc}
	} else if p.Faults != nil {
		return fail(fmt.Errorf("faults need a scenario horizon to key schedules to; not usable with scenario \"raw\""))
	}
	fc, scfg, err := p.resolve(seed, scs)
	if err != nil {
		return fail(err)
	}
	if fc.Policy, err = fleet.NewPolicy(p.Policy); err != nil {
		return fail(err)
	}
	fc.Overcommit, fc.Elastic = p.Overcommit, p.Elastic
	if p.KeepAlive != nil {
		spec := *p.KeepAlive // the caller's spec stays untouched
		if spec.Seed == nil {
			spec.Seed = &seed
		}
		fc.KeepAlive = &spec
	}
	if err := fc.Validate(); err != nil {
		return fail(err)
	}
	var sc scenario.Scenario
	if len(scs) > 0 {
		sc = scs[0]
	}
	return fc, sc, scfg, nil
}

// SweepConfigs resolves SweepParams into the optimizer configuration
// and candidate space: the one resolver the daemon, the distributed
// coordinator and fleetsim -sweep share. The params it shares with
// SimulateParams take the same defaults and checks, on the sweep's
// default pool. The opt Config's Workers is left at zero (GOMAXPROCS);
// the space is left for opt to validate.
func SweepConfigs(p SweepParams, seed uint64) (opt.Config, opt.Space, error) {
	scs, err := scenario.Subset(p.Scenarios...)
	if err != nil {
		return opt.Config{}, opt.Space{}, err
	}
	fc, scfg, err := SimulateParams{
		Platform: p.Platform, Hosts: cmp.Or(p.Hosts, opt.DefaultHosts), Requests: p.Requests, Tenants: p.Tenants,
		Horizon: p.Horizon, HostVCPU: p.HostVCPU, HostMemMB: p.HostMemMB, Faults: p.Faults,
	}.withDefaults().resolve(seed, scs)
	if err != nil {
		return opt.Config{}, opt.Space{}, err
	}
	space := opt.DefaultSpace()
	if len(p.Policies) > 0 {
		space.Policies = p.Policies
	}
	if len(p.TTLs) > 0 {
		if space.TTLs, err = opt.ParseTTLs(p.TTLs); err != nil {
			return opt.Config{}, opt.Space{}, err
		}
	}
	if len(p.Overcommits) > 0 {
		space.Overcommits = p.Overcommits
	}
	if len(p.KeepAliveModes) > 0 {
		space.KeepAliveModes = p.KeepAliveModes
	}
	cfg := opt.Config{
		Profile:   fc.Profile,
		Host:      fc.Host,
		Hosts:     p.Hosts, // zero keeps opt's default, the pool the fault plan was compiled for
		Scenarios: scs,
		Scenario:  scfg,
		Faults:    fc.Faults,
		Seed:      seed,
	}
	return cfg, space, nil
}
