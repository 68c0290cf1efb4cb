package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"slscost/internal/api"
	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/trace"
)

func TestRunGeneratedTrace(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-hosts", "8", "-requests", "3000", "-policy", "least-loaded"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet: 8 hosts, policy least-loaded", "cost:", "latency ms:", "makespan:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// The acceptance-criteria invariant at CLI level: the same seed prints
// the same report for any worker count (only the worker line differs).
func TestRunWorkerCountIndependentOutput(t *testing.T) {
	report := func(workers string) string {
		var out bytes.Buffer
		err := run([]string{"-hosts", "4", "-requests", "2000", "-workers", workers}, &out)
		if err != nil {
			t.Fatal(err)
		}
		s := out.String()
		// Strip the timing line and the worker count, which legitimately vary.
		s = regexp.MustCompile(`(?m)^simulated.*$`).ReplaceAllString(s, "")
		return regexp.MustCompile(`\d+ workers`).ReplaceAllString(s, "W workers")
	}
	if a, b := report("1"), report("4"); a != b {
		t.Errorf("reports differ between 1 and 4 workers:\n%s\nvs\n%s", a, b)
	}
}

// writeTraceCSV writes an n-request generated trace to a temporary CSV
// file and returns its path.
func writeTraceCSV(t *testing.T, n int) string {
	t.Helper()
	cfg := trace.DefaultGeneratorConfig()
	cfg.Requests = n
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteCSV(f, trace.Generate(cfg)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReplayCSV(t *testing.T) {
	path := writeTraceCSV(t, 1500)
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-hosts", "4", "-platform", "gcp-cloud-run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replaying 1500 requests") {
		t.Errorf("missing replay banner:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "platform gcp-cloud-run") {
		t.Errorf("missing platform name:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad policy", []string{"-policy", "nope"}},
		{"bad platform", []string{"-platform", "nope"}},
		{"missing trace", []string{"-trace", filepath.Join(t.TempDir(), "missing.csv")}},
		{"zero hosts", []string{"-hosts", "0"}},
		{"negative hosts", []string{"-hosts", "-4"}},
		{"zero requests", []string{"-requests", "0"}},
		{"zero host vcpu", []string{"-host-vcpu", "0"}},
		{"NaN host vcpu", []string{"-host-vcpu", "NaN"}},
		{"zero host mem", []string{"-host-mem", "0"}},
		{"empty platform", []string{"-platform", ""}},
		{"empty policy", []string{"-policy", ""}},
		{"fractional overcommit", []string{"-overcommit", "0.5"}},
		{"zero overcommit", []string{"-overcommit", "0"}},
		{"bad scenario", []string{"-scenario", "nope"}},
		{"empty scenario", []string{"-scenario", ""}},
		{"zero tenants", []string{"-tenants", "0"}},
		{"negative tenants", []string{"-tenants", "-2"}},
		{"negative horizon", []string{"-horizon", "-1h"}},
		{"unparsable horizon", []string{"-horizon", "soon"}},
		{"trace with scenario", []string{"-trace", "t.csv", "-scenario", "flash-crowd"}},
		{"trace with tenants", []string{"-trace", "t.csv", "-tenants", "2"}},
		{"trace with horizon", []string{"-trace", "t.csv", "-horizon", "1h"}},
		{"raw with tenants", []string{"-scenario", "raw", "-tenants", "2"}},
		{"raw with horizon", []string{"-scenario", "raw", "-horizon", "1h"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err == nil {
				t.Errorf("%v: expected error", c.args)
			}
		})
	}
}

func TestRunScenarioModes(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "flash-crowd", "-hosts", "4", "-requests", "2000"},
		{"-scenario", "raw", "-hosts", "4", "-requests", "2000"},
		{"-scenario", "multi-tenant", "-hosts", "4", "-requests", "2000"},
		{"-scenario", "diurnal", "-tenants", "3", "-horizon", "2h", "-hosts", "4", "-requests", "2000"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if args[1] == "raw" {
			if !strings.Contains(out.String(), "streaming 2000-request synthetic trace") {
				t.Errorf("%v: missing raw banner:\n%s", args, out.String())
			}
			continue
		}
		if !strings.Contains(out.String(), "scenario trace") ||
			!strings.Contains(out.String(), "scenario: "+args[1]) {
			t.Errorf("%v: missing scenario banner/report line:\n%s", args, out.String())
		}
	}
}

// TestRunVerify exercises the CLI's differential-replay path: the
// fleet report must be reproduced by the independent per-host replay.
func TestRunVerify(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scenario", "bursty", "-hosts", "4", "-requests", "2000", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "differential replay: report verified") {
		t.Errorf("missing verification verdict:\n%s", out.String())
	}
}

// TestRunFlashCrowdColderThanSteady pins the CLI-level acceptance
// behavior: at equal request count, the flash-crowd scenario reports a
// higher cold-start percentage than steady.
func TestRunFlashCrowdColderThanSteady(t *testing.T) {
	cold := func(scenario string) float64 {
		var out bytes.Buffer
		if err := run([]string{"-scenario", scenario, "-hosts", "8", "-requests", "8000"}, &out); err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`cold starts: ([\d.]+)%`).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no cold-start line in output:\n%s", out.String())
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	steady, flash := cold("steady"), cold("flash-crowd")
	if flash <= steady {
		t.Errorf("flash-crowd cold rate %.2f%% not above steady %.2f%%", flash, steady)
	}
}

// TestRunFlagConflictMessages pins the satellite contract on conflict
// handling: the error names every conflicting flag explicitly, so the
// fix is readable off the message.
func TestRunFlagConflictMessages(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		wantFlags []string
	}{
		{"trace+scenario", []string{"-trace", "t.csv", "-scenario", "flash-crowd"}, []string{"-scenario"}},
		{"trace+tenants+horizon", []string{"-trace", "t.csv", "-tenants", "2", "-horizon", "1h"},
			[]string{"-tenants", "-horizon"}},
		{"raw+tenants", []string{"-scenario", "raw", "-tenants", "2"}, []string{"-tenants"}},
		{"raw+horizon", []string{"-scenario", "raw", "-horizon", "1h"}, []string{"-horizon"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil {
				t.Fatalf("%v: expected conflict error", c.args)
			}
			for _, f := range c.wantFlags {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("%v: error %q does not name %s", c.args, err, f)
				}
			}
		})
	}
}

// TestRunStreamMatchesMaterialized checks the CLI's one replay path
// against the library's materialized views: for a scenario, the raw
// generator and a tenant mix, the printed report is the one
// fleet.SimulateScenario (fleet.Simulate over trace.Generate, for raw)
// renders for the same resolved configuration.
func TestRunStreamMatchesMaterialized(t *testing.T) {
	for _, scenarioName := range []string{"flash-crowd", "raw", "multi-tenant"} {
		var out bytes.Buffer
		args := []string{"-scenario", scenarioName, "-hosts", "4", "-requests", "3000", "-seed", "9"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		fc, sc, scfg, err := api.SimulateConfigs(api.SimulateParams{Scenario: scenarioName, Hosts: 4, Requests: 3000}, 9)
		if err != nil {
			t.Fatal(err)
		}
		var rep fleet.Report
		if scenarioName == "raw" {
			rep, err = fleet.Simulate(fc, trace.Generate(scfg.Base))
		} else {
			rep, _, err = fleet.SimulateScenario(fc, sc, scfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		rep.WriteText(&want)
		if got := reportBlock(t, out.String()); got != want.String() {
			t.Errorf("%v: CLI report differs from the materialized view:\nCLI:\n%s\nview:\n%s", args, got, want.String())
		}
	}
}

// TestRunStreamVerify checks that -verify replays the same stream as
// a plain run: its report block is byte-identical to the plain run's,
// and the oracle's verdict follows, for a scenario and for a replayed
// CSV trace.
func TestRunStreamVerify(t *testing.T) {
	for _, base := range [][]string{
		{"-scenario", "diurnal", "-hosts", "4", "-requests", "2000"},
		{"-trace", writeTraceCSV(t, 1500), "-hosts", "4"},
	} {
		var plain, verified bytes.Buffer
		if err := run(base, &plain); err != nil {
			t.Fatalf("%v: %v", base, err)
		}
		if err := run(append([]string{"-verify"}, base...), &verified); err != nil {
			t.Fatalf("-verify %v: %v", base, err)
		}
		got, want := reportBlock(t, verified.String()), reportBlock(t, plain.String())
		if !strings.HasPrefix(got, want) {
			t.Errorf("%v: -verify report differs from the plain run:\n%s\nvs\n%s", base, got, want)
		}
		if !strings.HasSuffix(got, "differential replay: report verified\n") {
			t.Errorf("%v: missing verification verdict:\n%s", base, got)
		}
	}
}

// reportBlock returns a run's output from the report's first line on,
// dropping the banner and timing lines above it.
func reportBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "fleet:")
	if i < 0 {
		t.Fatalf("output has no report block:\n%s", out)
	}
	return out[i:]
}

// TestRunSweepModes exercises the policy-optimization modes end to
// end at a small scale: grid text, Pareto text, CSV, JSON, and the
// refinement trajectory.
func TestRunSweepModes(t *testing.T) {
	base := []string{"-hosts", "4", "-requests", "2000", "-scenario", "bursty",
		"-sweep-policies", "least-loaded,bin-pack", "-sweep-ttls", "platform,60s",
		"-sweep-overcommits", "2"}
	runArgs := func(args ...string) string {
		var out bytes.Buffer
		if err := run(append(args, base...), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}

	text := runArgs("-sweep")
	for _, want := range []string{"sweep: 4 configs x 1 scenarios", "pareto frontier:", "ttl=platform", "ttl=60s"} {
		if !strings.Contains(text, want) {
			t.Errorf("-sweep output missing %q:\n%s", want, text)
		}
	}
	pareto := runArgs("-pareto")
	if !strings.Contains(pareto, "pareto frontier over 4 configs") || !strings.Contains(pareto, "bursty:") {
		t.Errorf("-pareto output missing frontier sections:\n%s", pareto)
	}
	csvOut := runArgs("-sweep", "-format", "csv")
	if !strings.HasPrefix(csvOut, "scenario,policy,ttl,overcommit,") || strings.Count(csvOut, "\n") != 1+4 {
		t.Errorf("-format csv: want header + 4 rows:\n%s", csvOut)
	}
	frontierCSV := runArgs("-pareto", "-format", "csv")
	if !strings.HasPrefix(frontierCSV, "policy,ttl,overcommit,") {
		t.Errorf("-pareto -format csv: bad header:\n%s", frontierCSV)
	}
	jsonOut := runArgs("-sweep", "-format", "json")
	var doc map[string]any
	if err := json.Unmarshal([]byte(jsonOut), &doc); err != nil {
		t.Fatalf("-format json is not valid JSON: %v\n%s", err, jsonOut)
	}
	for _, key := range []string{"candidates", "frontier", "results"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("JSON document missing %q", key)
		}
	}
	refined := runArgs("-sweep", "-refine")
	if !strings.Contains(refined, "refine:") || !strings.Contains(refined, "best:") {
		t.Errorf("-refine output missing trajectory:\n%s", refined)
	}
}

// TestRunSweepDeterministicAcrossWorkers is the CLI half of the
// acceptance criterion: -sweep output is byte-identical between
// -workers 1 and -workers 8 (no normalization at all).
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	sweepOut := func(workers string) string {
		var out bytes.Buffer
		args := []string{"-sweep", "-hosts", "4", "-requests", "2000", "-scenario", "flash-crowd",
			"-workers", workers}
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := sweepOut("1"), sweepOut("8"); a != b {
		t.Errorf("-sweep output differs between 1 and 8 workers:\n%s\nvs\n%s", a, b)
	}
}

// TestRunSweepErrorsAndConflicts pins the sweep-mode flag contract.
func TestRunSweepErrorsAndConflicts(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		wantInErr string
	}{
		{"sweep with policy", []string{"-sweep", "-policy", "bin-pack"}, "-policy"},
		{"sweep with overcommit", []string{"-sweep", "-overcommit", "2"}, "-overcommit"},
		{"sweep with elastic", []string{"-sweep", "-elastic"}, "-elastic"},
		{"sweep with trace", []string{"-sweep", "-trace", "t.csv"}, "-trace"},
		{"sweep with verify", []string{"-sweep", "-verify"}, "-verify"},
		{"pareto with policy", []string{"-pareto", "-policy", "bin-pack"}, "-policy"},
		{"sweep of raw", []string{"-sweep", "-scenario", "raw"}, "raw"},
		{"refine without sweep", []string{"-refine"}, "-refine"},
		{"format without sweep", []string{"-format", "csv"}, "-format"},
		{"sweep-ttls without sweep", []string{"-sweep-ttls", "60s"}, "-sweep-ttls"},
		{"bad ttl", []string{"-sweep", "-sweep-ttls", "whenever"}, "whenever"},
		{"bad overcommit list", []string{"-sweep", "-sweep-overcommits", "a,b"}, "overcommit"},
		{"sub-1 overcommit", []string{"-sweep", "-sweep-overcommits", "0.5"}, "below 1"},
		{"duplicate ttl", []string{"-sweep", "-sweep-ttls", "60s,1m"}, "twice"},
		{"bad sweep policy", []string{"-sweep", "-sweep-policies", "nope", "-hosts", "4", "-requests", "2000"}, "nope"},
		{"refine with csv", []string{"-sweep", "-refine", "-format", "csv"}, "-refine"},
		{"bad format", []string{"-sweep", "-format", "xml"}, "xml"},
		{"distribute without sweep", []string{"-distribute", "2"}, "-distribute"},
		{"negative distribute", []string{"-sweep", "-distribute", "-1"}, "negative"},
		{"listen without distribute", []string{"-sweep", "-listen", "127.0.0.1:0"}, "-listen"},
		{"checkpoint-dir without distribute", []string{"-sweep", "-checkpoint-dir", "d"}, "-checkpoint-dir"},
		{"distribute with refine", []string{"-sweep", "-distribute", "2", "-refine"}, "-refine"},
		{"distribute bad format", []string{"-sweep", "-distribute", "2", "-format", "xml"}, "xml"},
		{"connect without worker", []string{"-connect", "localhost:9"}, "-connect"},
		{"worker without connect", []string{"-worker"}, "-connect"},
		{"worker with workload flag", []string{"-worker", "-connect", "localhost:9", "-sweep"}, "-sweep"},
		{"remote distribute", []string{"-sweep", "-remote", "localhost:9", "-format", "json", "-distribute", "2"}, "-distribute"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil {
				t.Fatalf("%v: expected error", c.args)
			}
			if !strings.Contains(err.Error(), c.wantInErr) {
				t.Errorf("%v: error %q does not mention %q", c.args, err, c.wantInErr)
			}
		})
	}
}

// TestDistributedCLIByteIdentity is the CLI half of the distributed
// acceptance gate: the real binary (built here because the test
// binary cannot re-exec itself as a -worker) run with -distribute 4
// -verify prints bytes identical to the in-process sweep. -verify
// additionally makes the binary itself compare the merged result
// against an in-process run before printing.
func TestDistributedCLIByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "fleetsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base := []string{"-sweep", "-hosts", "4", "-requests", "2000", "-scenario", "bursty",
		"-sweep-policies", "least-loaded,bin-pack", "-sweep-ttls", "platform,60s",
		"-sweep-overcommits", "2", "-format", "json"}
	runBin := func(extra ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, append(append([]string(nil), base...), extra...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", extra, err, stderr.String())
		}
		return stdout.Bytes()
	}
	want := runBin()
	got := runBin("-distribute", "4", "-verify")
	if !bytes.Equal(got, want) {
		t.Fatalf("-distribute 4 output differs from in-process sweep:\n%s\nvs\n%s", got, want)
	}
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "slscost v"+core.Version) {
		t.Fatalf("-version printed %q", out.String())
	}
}

// TestExitCode pins the process exit-code contract: verification
// mismatches get their own code, however deeply wrapped.
func TestExitCode(t *testing.T) {
	vf := &verifyFailure{errors.New("metric disagrees")}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"generic failure", errors.New("boom"), 1},
		{"verify failure", vf, exitVerifyFailed},
		{"wrapped verify failure", fmt.Errorf("outer: %w", vf), exitVerifyFailed},
		{"flag error", errors.New("flag provided but not defined"), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exitCode(c.err); got != c.want {
				t.Fatalf("exitCode(%v) = %d, want %d", c.err, got, c.want)
			}
		})
	}
	if exitVerifyFailed == 1 {
		t.Fatal("exitVerifyFailed must be distinct from the generic failure code")
	}
}

// startRemoteDaemon mounts the API server on httptest for the -remote
// tests.
func startRemoteDaemon(t *testing.T) string {
	t.Helper()
	srv := api.NewServer(api.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
		hs.Close()
	})
	return hs.URL
}

// TestRunRemoteSweepMatchesLocal checks the -remote sweep path prints
// the exact JSON document the in-process run prints for the same
// seed and flags.
func TestRunRemoteSweepMatchesLocal(t *testing.T) {
	addr := startRemoteDaemon(t)
	args := []string{"-sweep", "-format", "json", "-hosts", "4", "-requests", "2000",
		"-scenario", "flash-crowd", "-sweep-policies", "least-loaded",
		"-sweep-ttls", "platform,60s", "-sweep-overcommits", "1", "-seed", "77"}

	var local bytes.Buffer
	if err := run(args, &local); err != nil {
		t.Fatal(err)
	}
	var remote bytes.Buffer
	if err := run(append([]string{"-remote", addr}, args...), &remote); err != nil {
		t.Fatal(err)
	}
	got := remote.String()
	i := strings.IndexByte(got, '\n') // drop the "submitted ... job" line
	if i < 0 || !strings.HasPrefix(got, "submitted opt.sweep job ") {
		t.Fatalf("remote output missing submission line:\n%s", got)
	}
	if got[i+1:] != local.String() {
		t.Fatalf("remote sweep document differs from local:\nremote:\n%s\nlocal:\n%s", got[i+1:], local.String())
	}
}

// TestRunRemoteSimulateAndVerify checks the remote report matches the
// local report block, and remote verification succeeds.
func TestRunRemoteSimulateAndVerify(t *testing.T) {
	addr := startRemoteDaemon(t)
	base := []string{"-hosts", "4", "-requests", "2000", "-seed", "11"}

	var local bytes.Buffer
	if err := run(base, &local); err != nil {
		t.Fatal(err)
	}
	var remote bytes.Buffer
	if err := run(append([]string{"-remote", addr}, base...), &remote); err != nil {
		t.Fatal(err)
	}
	// The local run prefixes banner and timing lines; the report block
	// itself ("fleet: ..." on) must match byte for byte.
	want := reportBlock(t, local.String())
	if !strings.HasSuffix(remote.String(), want) {
		t.Fatalf("remote report differs from local:\nremote:\n%s\nlocal block:\n%s", remote.String(), want)
	}

	var vout bytes.Buffer
	if err := run(append([]string{"-remote", addr, "-verify"}, base...), &vout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vout.String(), "differential replay: report verified") {
		t.Fatalf("remote -verify output:\n%s", vout.String())
	}
}

// TestRunRemoteConflicts pins the -remote flag contract.
func TestRunRemoteConflicts(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		wantInErr string
	}{
		{"remote with trace", []string{"-remote", "x:1", "-trace", "t.csv"}, "-trace"},
		{"remote with workers", []string{"-remote", "x:1", "-workers", "2"}, "-workers"},
		{"remote sweep with refine", []string{"-remote", "x:1", "-sweep", "-refine"}, "-refine"},
		{"remote sweep text format", []string{"-remote", "x:1", "-sweep"}, "-format json"},
		// An explicit zero must fail before the daemon is dialed, not
		// run with the daemon's default in its place (the address is
		// closed, so a dial would fail without naming the flag).
		{"remote zero hosts", []string{"-remote", "127.0.0.1:1", "-hosts", "0"}, "-hosts"},
		{"remote zero requests", []string{"-remote", "127.0.0.1:1", "-requests", "0"}, "-requests"},
		{"remote zero host vcpu", []string{"-remote", "127.0.0.1:1", "-host-vcpu", "0"}, "-host-vcpu"},
		{"remote zero host mem", []string{"-remote", "127.0.0.1:1", "-host-mem", "0"}, "-host-mem"},
		{"remote sweep zero hosts", []string{"-remote", "127.0.0.1:1", "-sweep", "-format", "json", "-hosts", "0"}, "-hosts"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.wantInErr) {
				t.Fatalf("run(%v) error = %v, want substring %q", c.args, err, c.wantInErr)
			}
		})
	}
}
