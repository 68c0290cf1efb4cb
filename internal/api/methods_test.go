package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"slscost/internal/fleet"
	"slscost/internal/trace"
)

// nextOnly hides every optional fast path of the stream it wraps.
type nextOnly struct{ trace.Stream }

// scanOnly offers a pod scan but no NextInto.
type scanOnly struct {
	nextOnly
	trace.PodScanner
}

// TestCountingSourceMirrorsFastPaths checks that the progress wrapper
// neither hides nor adds a fast path: each opened stream offers
// NextInto and PodScan exactly when the wrapped stream does.
func TestCountingSourceMirrorsFastPaths(t *testing.T) {
	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 100
	scanned := trace.GenerateStream(gen)
	for _, tc := range []struct {
		name       string
		s          trace.Stream
		into, scan bool
	}{
		{"next only", nextOnly{scanned}, false, false},
		{"into", trace.FromTrace(trace.Generate(gen)), true, false},
		{"scan", scanOnly{nextOnly{scanned}, scanned.(trace.PodScanner)}, false, true},
		{"into and scan", scanned, true, true},
	} {
		rt := &Runtime{}
		s, err := rt.countingSource(func() (trace.Stream, error) { return tc.s, nil })()
		if err != nil {
			t.Fatal(err)
		}
		_, into := s.(trace.IntoStream)
		_, scan := s.(trace.PodScanner)
		if into != tc.into || scan != tc.scan {
			t.Errorf("%s: wrapper has NextInto %v, PodScan %v; want %v, %v", tc.name, into, scan, tc.into, tc.scan)
		}
	}
}

// TestSimulateJobPullsOnce runs a fleet.simulate job on a scenario plan
// through the daemon. The progress wrapper forwards the plan's pod scan,
// so the placement pass reports its total in one scan event and pulls
// nothing; the replay pulls every request once. The report stays
// byte-identical to the in-process run.
func TestSimulateJobPullsOnce(t *testing.T) {
	const seed, requests = 5, 2 * progressEvery
	params := SimulateParams{Scenario: "flash-crowd", Requests: requests, Tenants: 4, Hosts: 8}
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, ServerConfig{})
	_, events, _ := runStreamedJob(t, c, JobSpec{Method: "fleet.simulate", Seed: seedp(seed), Params: raw})

	var progress []string
	var report json.RawMessage
	for _, ev := range events {
		switch ev.Type {
		case EventProgress:
			progress = append(progress, fmt.Sprintf("%s %d", ev.Phase, ev.Requests))
		case EventReport:
			report = ev.Report
		}
	}
	want := []string{
		fmt.Sprintf("scan %d", requests),
		fmt.Sprintf("replay %d", progressEvery),
		fmt.Sprintf("replay %d", 2*progressEvery),
	}
	if !slices.Equal(progress, want) {
		t.Fatalf("progress events %q, want %q", progress, want)
	}

	fc, sc, scfg, err := SimulateConfigs(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Compile(scfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.SimulatePlanStream(context.Background(), fc, plan)
	if err != nil {
		t.Fatal(err)
	}
	if local := marshalRaw(rep); !bytes.Equal(report, local) {
		t.Fatalf("daemon report differs from the in-process run:\ndaemon:     %s\nin-process: %s", report, local)
	}
}
