package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"slscost/internal/fleet"
	"slscost/internal/scenario"
	"slscost/internal/trace"
)

// TestCountingSourceKeepsFastPaths opens the progress wrapper over the
// source of every workload a simulate job can name, raw and each
// catalog scenario, and checks the stream keeps both fast paths, so
// the placement pass scans pods instead of pulling requests. A stream
// without them is refused.
func TestCountingSourceKeepsFastPaths(t *testing.T) {
	rt := &Runtime{Seed: 3}
	for _, name := range append([]string{"raw"}, scenario.Names()...) {
		_, src, _, err := rt.simulateSource(SimulateParams{Scenario: name, Requests: 1000}.withDefaults())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := rt.countingSource(src)()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, into := s.(trace.IntoStream)
		_, scan := s.(trace.PodScanner)
		if !into || !scan {
			t.Errorf("%s: wrapped stream has NextInto %v, PodScan %v; want both", name, into, scan)
		}
	}

	gen := trace.DefaultGeneratorConfig()
	gen.Requests = 100
	if _, err := rt.countingSource(trace.SourceOf(trace.Generate(gen)))(); err == nil {
		t.Fatal("wrapped a stream without a pod scan")
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
	rep, err := fleet.SimulateStream(context.Background(), fc, plan.Source())
	if err != nil {
		t.Fatal(err)
	}
	rep.Scenario = plan.Name()
	if local := marshalRaw(rep); !bytes.Equal(report, local) {
		t.Fatalf("daemon report differs from the in-process run:\ndaemon:     %s\nin-process: %s", report, local)
	}
}
