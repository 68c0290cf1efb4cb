package scenario

import (
	"testing"

	"slscost/internal/trace"
)

// TestStreamMatchesTrace pins that Trace stays a view of the one
// synthesis pipeline: for every catalog scenario (and a fanned-out
// multi-tenant derivation), Collect(Stream(cfg)) is bit-identical to
// Trace(cfg).
func TestStreamMatchesTrace(t *testing.T) {
	for _, sc := range Catalog() {
		for _, tenants := range []int{1, 3} {
			cfg := DefaultConfig()
			cfg.Base.Requests = 4000
			cfg.Tenants = tenants
			want, err := sc.Trace(cfg)
			if err != nil {
				t.Fatalf("%s tenants=%d: Trace: %v", sc.Name, tenants, err)
			}
			s, err := sc.Stream(cfg)
			if err != nil {
				t.Fatalf("%s tenants=%d: Stream: %v", sc.Name, tenants, err)
			}
			got := trace.Collect(s, cfg.Base.Requests)
			if got.Len() != want.Len() {
				t.Fatalf("%s tenants=%d: stream emitted %d requests, Trace %d",
					sc.Name, tenants, got.Len(), want.Len())
			}
			for i := range want.Requests {
				if got.Requests[i] != want.Requests[i] {
					t.Fatalf("%s tenants=%d: request %d differs:\nstream: %+v\ntrace:  %+v",
						sc.Name, tenants, i, got.Requests[i], want.Requests[i])
				}
			}
		}
	}
}

// TestStreamValidatesInput pins that Stream rejects the same malformed
// configurations Trace does, with an error rather than a panic.
func TestStreamValidatesInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Base.Requests = 0
	if _, err := (Scenario{Name: "x", Shape: Steady{}}).Stream(cfg); err == nil {
		t.Error("zero requests: expected error")
	}
	cfg = DefaultConfig()
	if _, err := (Scenario{Name: "x"}).Stream(cfg); err == nil {
		t.Error("shapeless scenario: expected error")
	}
}

// TestStreamOrdered pins the trace.Stream ordering contract on the
// scenario path, where re-timing replaces every arrival.
func TestStreamOrdered(t *testing.T) {
	sc, ok := ByName("multi-tenant")
	if !ok {
		t.Fatal("multi-tenant scenario missing")
	}
	cfg := DefaultConfig()
	cfg.Base.Requests = 5000
	s, err := sc.Stream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev, ok := s.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if r.Start < prev.Start {
			t.Fatalf("arrival %v after %v", r.Start, prev.Start)
		}
		prev = r
	}
}

// TestPlanMatchesSource pins the compiled-plan contract: a Plan's
// openings emit the bit-identical sequence the scenario's own Source
// emits for the same Config, and repeated openings of one plan are
// identical to each other — the properties that make a daemon-cached
// plan indistinguishable from a fresh compilation.
func TestPlanMatchesSource(t *testing.T) {
	sc, ok := ByName("flash-crowd")
	if !ok {
		t.Fatal("flash-crowd missing from catalog")
	}
	cfg := DefaultConfig()
	cfg.Base.Requests = 4000
	cfg.Base.Seed = 20260613
	cfg.Tenants = 2

	plan, err := sc.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name() != sc.Name {
		t.Fatalf("plan name %q, want %q", plan.Name(), sc.Name)
	}
	open := func(src trace.Source) []trace.Request {
		s, err := src()
		if err != nil {
			t.Fatal(err)
		}
		var out []trace.Request
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			out = append(out, r)
		}
		return out
	}
	want := open(sc.Source(cfg))
	for pass := 0; pass < 2; pass++ {
		got := open(plan.Source())
		if len(got) != len(want) {
			t.Fatalf("opening %d: %d requests, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("opening %d: request %d = %+v, want %+v", pass, i, got[i], want[i])
			}
		}
	}
}
