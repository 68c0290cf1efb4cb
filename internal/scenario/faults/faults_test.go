package faults

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func dur2(t *testing.T, s string) Duration {
	t.Helper()
	v, err := time.ParseDuration(s)
	if err != nil {
		t.Fatal(err)
	}
	return Duration(v)
}

// TestValidateRejectsMalformedSpecs pins the typed-rejection contract:
// every malformed spec fails with a *SpecError naming the offending
// field, so API callers can surface the exact knob to fix.
func TestValidateRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string
	}{
		{"nan crash rate", Spec{Crash: &CrashSpec{Rate: math.NaN()}}, "crash.rate"},
		{"negative crash rate", Spec{Crash: &CrashSpec{Rate: -1}}, "crash.rate"},
		{"infinite crash rate", Spec{Crash: &CrashSpec{Rate: math.Inf(1)}}, "crash.rate"},
		{"absurd crash rate", Spec{Crash: &CrashSpec{Rate: maxRate * 2}}, "crash.rate"},
		{"negative restart", Spec{Crash: &CrashSpec{Rate: 1, Restart: -1}}, "crash.restart"},
		{"negative preempt rate", Spec{Preempt: &PreemptSpec{Rate: -0.5}}, "preempt.rate"},
		{"negative notice", Spec{Preempt: &PreemptSpec{Rate: 1, Notice: -1}}, "preempt.notice"},
		{"zoneless outage", Spec{AZOutage: &AZOutageSpec{Zones: 0}}, "az_outage.zones"},
		{"zone out of range", Spec{AZOutage: &AZOutageSpec{Zones: 3, Zone: 3}}, "az_outage.zone"},
		{"nan outage instant", Spec{AZOutage: &AZOutageSpec{Zones: 3, Zone: 1, At: math.NaN()}}, "az_outage.at"},
		{"inverted drain", Spec{Drains: []DrainSpec{{From: 0.7, To: 0.2}}}, "drains[0]"},
		{"empty drain", Spec{Drains: []DrainSpec{{From: 0.5, To: 0.5}}}, "drains[0]"},
		{"self-overlapping drain", Spec{Drains: []DrainSpec{{From: 0.1, To: 1.3}}}, "drains[0]"},
		{"nan drain bound", Spec{Drains: []DrainSpec{{From: math.NaN(), To: 0.5}}}, "drains[0].from"},
		{"overlapping drains", Spec{Drains: []DrainSpec{
			{From: 0.1, To: 0.5}, {From: 0.4, To: 0.8}}}, "drains[1]"},
		{"period-wrapped overlap", Spec{Drains: []DrainSpec{
			{From: 0.1, To: 0.5}, {From: 2.2, To: 2.4}}}, "drains[1]"},
		{"nan storm", Spec{Storm: &StormSpec{At: math.NaN()}}, "storm.at"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Validate = %v, want *SpecError", err)
			}
			if se.Field != c.field {
				t.Fatalf("rejected field %q, want %q (err: %v)", se.Field, c.field, err)
			}
		})
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec must validate: %v", err)
	}
	if err := (&Spec{}).Validate(); err != nil {
		t.Errorf("empty spec must validate: %v", err)
	}
	// Adjacent (touching, non-overlapping) drains are legal.
	ok := Spec{Drains: []DrainSpec{{From: 0.1, To: 0.5}, {From: 0.5, To: 0.8}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("adjacent drains must validate: %v", err)
	}
}

// TestCompileIsPure pins determinism: the same (spec, hosts, horizon,
// seed) compiles to the identical plan, a different seed moves the
// rate-driven events, and worker counts never enter the signature at
// all — the plan is fixed before any replay begins.
func TestCompileIsPure(t *testing.T) {
	spec := &Spec{
		Crash:   &CrashSpec{Rate: 3, Restart: dur2(t, "2m")},
		Preempt: &PreemptSpec{Rate: 2, Notice: dur2(t, "2m"), Restart: dur2(t, "1m")},
	}
	const hosts, seed = 8, 42
	horizon := 4 * time.Hour
	a, err := Compile(spec, hosts, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec, hosts, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Empty() {
		t.Fatal("rate-3 crash axis compiled to an empty plan")
	}
	for h := 0; h < hosts; h++ {
		if !reflect.DeepEqual(a.HostEvents(h), b.HostEvents(h)) {
			t.Fatalf("host %d schedules differ across identical compiles", h)
		}
		if !reflect.DeepEqual(a.ClosedWindows(h), b.ClosedWindows(h)) {
			t.Fatalf("host %d windows differ across identical compiles", h)
		}
	}
	c, err := Compile(spec, hosts, horizon, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for h := 0; h < hosts; h++ {
		if !reflect.DeepEqual(a.HostEvents(h), c.HostEvents(h)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change left every host schedule untouched")
	}
}

// TestPeriodShiftIdentity is the metamorphic property the Spec doc
// promises: shifting every scheduled instant by whole horizon periods
// wraps back to the identical plan. The instants are dyadic fractions
// (k/2^n) so the shift itself is exact in float64 — an instant like
// 0.2 already differs from 2.2-2 before the spec reaches the compiler.
func TestPeriodShiftIdentity(t *testing.T) {
	base := &Spec{
		AZOutage: &AZOutageSpec{Zones: 4, Zone: 1, At: 0.4375, Duration: dur2(t, "5m")},
		Drains:   []DrainSpec{{From: 0.25, To: 0.75, Grace: dur2(t, "1m"), Restart: dur2(t, "30s")}},
		Storm:    &StormSpec{At: 0.65625},
	}
	shifted := &Spec{
		AZOutage: &AZOutageSpec{Zones: 4, Zone: 1, At: 3.4375, Duration: dur2(t, "5m")},
		Drains:   []DrainSpec{{From: -1.75, To: -1.25, Grace: dur2(t, "1m"), Restart: dur2(t, "30s")}},
		Storm:    &StormSpec{At: -2.34375},
	}
	const hosts, seed = 6, 7
	horizon := 2 * time.Hour
	a, err := Compile(base, hosts, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(shifted, hosts, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < hosts; h++ {
		if !reflect.DeepEqual(a.HostEvents(h), b.HostEvents(h)) {
			t.Fatalf("host %d: period-shifted spec compiled a different schedule\nbase:    %v\nshifted: %v",
				h, a.HostEvents(h), b.HostEvents(h))
		}
	}
}

// TestZeroRateSpecCompilesEmpty pins the no-op identity every consumer
// leans on: a spec whose axes are present but zero-rate schedules
// nothing, and Empty() treats it exactly like a nil plan.
func TestZeroRateSpecCompilesEmpty(t *testing.T) {
	spec := &Spec{
		Crash:   &CrashSpec{Rate: 0, Restart: dur2(t, "2m")},
		Preempt: &PreemptSpec{Rate: 0, Notice: dur2(t, "2m")},
	}
	if spec.Enabled() {
		t.Fatal("zero-rate spec reports Enabled")
	}
	p, err := Compile(spec, 4, time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() || p.Events() != 0 {
		t.Fatalf("zero-rate spec compiled %d events", p.Events())
	}
	nilPlan, err := Compile(nil, 4, time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nilPlan != nil || !nilPlan.Empty() {
		t.Fatal("nil spec must compile to a nil (empty) plan")
	}
}

// TestCompileEventBudget pins maxEvents: a plan expected to hold it
// exactly compiles, and one expected to hold more is refused before
// any event is generated. Without the check the refused plans are
// small (about 2^20 events) or cannot be allocated at all (2^50 hosts
// panic on the per-host slice), never a real huge allocation.
func TestCompileEventBudget(t *testing.T) {
	// n disjoint drain windows; each schedules four events per host.
	drains := func(n int) []DrainSpec {
		out := make([]DrainSpec, n)
		for i := range out {
			from := float64(i) / float64(2*n)
			out[i] = DrainSpec{From: from, To: from + 1/float64(4*n)}
		}
		return out
	}
	const hosts = 4096
	if n := expectedEvents(&Spec{Drains: drains(64)}, hosts); n != maxEvents {
		t.Fatalf("64 drains over %d hosts expect %v events, want the budget %d", hosts, n, maxEvents)
	}
	p, err := Compile(&Spec{Drains: drains(64)}, hosts, time.Hour, 1)
	if err != nil {
		t.Fatalf("plan at the budget: %v", err)
	}
	if p.Events() != maxEvents {
		t.Fatalf("plan at the budget holds %d events, want %d", p.Events(), maxEvents)
	}
	over := []struct {
		name  string
		spec  Spec
		hosts int
	}{
		{"one drain more", Spec{Drains: drains(65)}, hosts},
		{"crash rate", Spec{Crash: &CrashSpec{Rate: maxEvents/128 + 1}}, 64},
		{"preempt rate", Spec{Preempt: &PreemptSpec{Rate: maxEvents/256 + 1}}, 64},
		{"storm over 2^50 hosts", Spec{Storm: &StormSpec{At: 0.5}}, 1 << 50},
	}
	for _, c := range over {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(&c.spec, c.hosts, time.Hour, 1)
			if err == nil || !strings.Contains(err.Error(), "limit") {
				t.Fatalf("Compile = %v, want the event limit named", err)
			}
		})
	}
}

// TestUnavailableWindows pins the placement-masking semantics on a
// hand-computable schedule: a one-host drain whose window, kill, and
// restore instants are all known in closed form.
func TestUnavailableWindows(t *testing.T) {
	spec := &Spec{Drains: []DrainSpec{{From: 0.25, To: 0.75, Grace: dur2(t, "1m"), Restart: dur2(t, "30s")}}}
	horizon := time.Hour
	p, err := Compile(spec, 1, horizon, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := 15 * time.Minute // 0.25 * 1h, host 0 of 1 drains at the window start
	end := start + 90*time.Second
	ws := p.ClosedWindows(0)
	if len(ws) != 1 || ws[0] != (Window{From: start, To: end}) {
		t.Fatalf("windows = %v, want [{%v %v}]", ws, start, end)
	}
	for _, c := range []struct {
		t    time.Duration
		want bool
	}{
		{start - time.Nanosecond, false},
		{start, true},
		{start + time.Minute, true},
		{end - time.Nanosecond, true},
		{end, false}, // the restore instant accepts again
	} {
		if got := p.UnavailableAt(0, c.t); got != c.want {
			t.Errorf("UnavailableAt(0, %v) = %v, want %v", c.t, got, c.want)
		}
	}
	if p.UnavailableAt(1, start) || p.UnavailableAt(-1, start) {
		t.Error("out-of-range hosts must never mask")
	}
}

// TestCatalog pins that every named profile is valid, enabled, and
// compiles to a non-empty plan — a catalog entry that injects nothing
// would silently turn the fault acceptance suite into a no-op.
func TestCatalog(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("catalog has %d profiles, want at least 5", len(names))
	}
	for _, name := range names {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Description == "" {
			t.Errorf("%s: no description", name)
		}
		if err := p.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !p.Spec.Enabled() {
			t.Errorf("%s: catalog profile injects nothing", name)
		}
		plan, err := Compile(&p.Spec, 8, 4*time.Hour, 99)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if plan.Empty() {
			t.Errorf("%s: compiled to an empty plan", name)
		}
	}
	if _, err := ByName("no-such-profile"); err == nil {
		t.Error("unknown profile name must error")
	}
}
