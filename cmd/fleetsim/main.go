// Command fleetsim replays a serverless request trace through a
// simulated multi-host cluster (internal/fleet) and prints the
// cluster-wide cost, latency, and utilization report.
//
// Usage:
//
//	fleetsim -hosts 32 -requests 1000000 -policy least-loaded
//	fleetsim -scenario flash-crowd -hosts 32 -requests 1000000
//	fleetsim -trace trace.csv -platform gcp-cloud-run -policy bin-pack
//
// The -scenario flag picks a workload scenario from the
// internal/scenario catalog (diurnal troughs, flash crowds, heavy-tail
// bursts, tenant mixes); "raw" bypasses the scenario layer and replays
// the unshaped generator output. -verify cross-checks the report
// against the independent differential replay (internal/scenario/
// diffsim) before printing it.
//
// -faults injects a named fault profile from the internal/scenario/
// faults catalog — host crashes, spot preemptions, AZ outages,
// rolling-deploy drains, correlated cold-start storms. The profile
// compiles into a per-host schedule keyed to the seed and the scenario
// horizon, replayed identically by single runs, sweeps, and the
// differential replay:
//
//	fleetsim -scenario diurnal -faults chaos -verify
//
// -keepalive selects the per-function keep-alive decision layer
// (internal/keepalive): "static" replays the platform's fixed window
// distribution (the default, byte-identical to every run before the
// flag existed), "adaptive" learns a per-function TTL from a windowed
// idle-gap histogram, and "bandit" runs an epsilon-greedy choice over
// the static policy catalog with regret tracked against realized cost.
// All three verify under -verify — the differential oracle replays the
// identical decider state machines:
//
//	fleetsim -scenario diurnal -keepalive adaptive -verify
//	fleetsim -scenario bursty -keepalive bandit
//
// A single run streams its workload through the cluster simulator: a
// generated or shaped workload is synthesized lazily and host shards
// simulate concurrently with generation, so memory stays bounded by
// the pod count instead of the request count, -requests in the
// hundreds of millions included, -verify too (the oracle streams the
// workload again).
// The printed latency line (mean/p50/p95/p99/max) and the p99
// contention slowdown are read from fixed logarithmic histograms
// (stats.LogHist) merged across hosts: mean and max are exact,
// percentiles carry ~2.2% bucket resolution, and no per-request
// samples are ever retained.
//
// The flags resolve through the api.SimulateParams or api.SweepParams
// document a -remote run submits to the daemon, so local, remote and
// distributed runs share one resolver and one set of defaults.
//
// -sweep switches from single-run replay to policy optimization
// (internal/opt): a grid of placement policy × keep-alive TTL ×
// overcommit configurations is evaluated concurrently against every
// catalog scenario (or just the one named by -scenario), and the
// per-config aggregates print with Pareto-frontier membership.
// -pareto prints only the frontier (aggregate and per-scenario);
// -refine follows the sweep with a coordinate-descent pass that
// narrows the TTL and overcommit knobs around the cheapest frontier
// config. -sweep-policies/-sweep-ttls/-sweep-overcommits override the
// default grid; -format selects text, csv, or json output:
//
//	fleetsim -sweep -hosts 16 -requests 100000
//	fleetsim -pareto -scenario flash-crowd -format csv
//	fleetsim -sweep -refine -sweep-ttls platform,30s,120s,600s
//
// -distribute N runs the sweep through the distributed coordinator
// (internal/distsweep): N local worker processes are spawned, the
// grid is partitioned into checkpointed shards, and the merged output
// is byte-identical to the in-process sweep — -verify proves it by
// running both and comparing. -worker -connect addr runs the bare
// worker loop against a coordinator elsewhere (multi-host use);
// -checkpoint-dir persists shard logs so an interrupted distributed
// sweep resumes instead of recomputing:
//
//	fleetsim -sweep -distribute 4 -format json
//	fleetsim -sweep -distribute 4 -verify -checkpoint-dir /tmp/ckpt
//	fleetsim -worker -connect coordinator:9999
//
// The report is deterministic for a given seed regardless of -workers:
// host shards simulate on private clocks and random streams and merge in
// host order; sweep evaluations are likewise placed by grid index, so
// sweep output is byte-identical for any -workers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"slscost/internal/api"
	"slscost/internal/core"
	"slscost/internal/distsweep"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/opt"
	"slscost/internal/scenario"
	"slscost/internal/scenario/diffsim"
	"slscost/internal/scenario/faults"
	"slscost/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(exitCode(err))
	}
}

// exitVerifyFailed is the exit code for a differential-verification
// mismatch: distinct from 1 (any other failure) so harnesses can tell
// "the simulator disagrees with its oracle" from "the run never
// happened" without parsing stderr.
const exitVerifyFailed = 3

// verifyFailure marks an error as a verification mismatch; exitCode
// maps it to exitVerifyFailed however deeply it is wrapped.
type verifyFailure struct{ err error }

func (e *verifyFailure) Error() string { return e.err.Error() }
func (e *verifyFailure) Unwrap() error { return e.err }

// exitCode maps a run error to the process exit code.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var vf *verifyFailure
	if errors.As(err, &vf) {
		return exitVerifyFailed
	}
	return 1
}

func run(args []string, w io.Writer) error {
	def := api.DefaultSimulateParams()
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	hosts := fs.Int("hosts", def.Hosts, "number of hosts in the cluster")
	policy := fs.String("policy", def.Policy,
		"placement policy: "+strings.Join(fleet.PolicyNames(), ", "))
	requests := fs.Int("requests", def.Requests, "synthetic trace size (ignored with -trace)")
	seed := fs.Uint64("seed", trace.DefaultGeneratorConfig().Seed, "random seed for trace generation and simulation")
	platform := fs.String("platform", def.Platform, "platform profile (see internal/core.Profiles)")
	workers := fs.Int("workers", 0, "host shards simulated concurrently (0 = GOMAXPROCS)")
	hostVCPU := fs.Float64("host-vcpu", def.HostVCPU, "per-host vCPU capacity")
	hostMem := fs.Float64("host-mem", def.HostMemMB, "per-host memory capacity (MB)")
	overcommit := fs.Float64("overcommit", def.Overcommit, "CPU oversubscription ratio the placer packs against (>= 1)")
	elastic := fs.Bool("elastic", false, "autoscale the active host pool between 1 and -hosts")
	tracePath := fs.String("trace", "", "replay a CSV trace (tracegen format) instead of generating one")
	scenarioName := fs.String("scenario", def.Scenario,
		"workload scenario: "+strings.Join(scenario.Names(), ", ")+`, or "raw" for the unshaped generator`)
	tenants := fs.Int("tenants", def.Tenants, "fan the scenario into N phase-shifted tenants (>= 1)")
	faultsName := fs.String("faults", "",
		"inject a catalog fault profile: "+strings.Join(faults.Names(), ", "))
	keepAliveMode := fs.String("keepalive", "static",
		"per-function keep-alive decision mode: static, adaptive, or bandit (internal/keepalive)")
	horizon := fs.Duration("horizon", 0, "scenario shape period (0 = auto-scale to the workload)")
	verify := fs.Bool("verify", false, "cross-check the report against the independent differential replay")
	sweep := fs.Bool("sweep", false,
		"sweep a policy/TTL/overcommit grid over the scenario catalog instead of one replay (internal/opt)")
	pareto := fs.Bool("pareto", false, "like -sweep, but print only the Pareto frontier (aggregate and per-scenario)")
	refine := fs.Bool("refine", false, "after the sweep, coordinate-descent refine the cheapest frontier config's TTL and overcommit")
	sweepPolicies := fs.String("sweep-policies", "", "comma-separated placement policies to sweep (default: all)")
	sweepTTLs := fs.String("sweep-ttls", "", `comma-separated keep-alive TTLs to sweep, durations or "platform" (default: platform,60s,600s)`)
	sweepOvercommits := fs.String("sweep-overcommits", "", "comma-separated overcommit ratios to sweep (default: 1,2)")
	sweepKeepAlive := fs.String("sweep-keepalive", "",
		"comma-separated keep-alive decision modes to sweep (default: static only)")
	format := fs.String("format", "text", "sweep output format: text, csv, or json")
	distribute := fs.Int("distribute", 0,
		"run -sweep/-pareto across N spawned local worker processes (0 = in-process; see internal/distsweep)")
	workerMode := fs.Bool("worker", false,
		"run as a distributed-sweep worker: dial a coordinator and evaluate assigned shards until the sweep completes")
	connect := fs.String("connect", "", "coordinator address a -worker dials (host:port)")
	listen := fs.String("listen", "127.0.0.1:0",
		"coordinator bind address for -distribute (port 0 = ephemeral; bind a routable address to accept remote -worker processes)")
	checkpointDir := fs.String("checkpoint-dir", "",
		"distributed-sweep checkpoint directory (default: a temporary one; set it to resume an interrupted sweep)")
	remote := fs.String("remote", "",
		"run on a slscostd daemon at this address (host:port or URL) instead of in-process")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, core.BuildInfo())
		return nil
	}

	// The api reads a zero or empty value as "unset" and substitutes
	// its default, so an explicit value out of range is rejected here,
	// in every mode, before anything runs or dials a daemon.
	switch {
	case *hosts < 1:
		return fmt.Errorf("-hosts %d below 1", *hosts)
	case *requests < 1:
		return fmt.Errorf("-requests %d below 1", *requests)
	case !(*hostVCPU > 0):
		return fmt.Errorf("-host-vcpu %v not positive", *hostVCPU)
	case !(*hostMem > 0):
		return fmt.Errorf("-host-mem %v not positive", *hostMem)
	case *overcommit < 1:
		return fmt.Errorf("-overcommit %v below 1", *overcommit)
	case *tenants < 1:
		return fmt.Errorf("-tenants %d below 1", *tenants)
	case *horizon < 0:
		return fmt.Errorf("-horizon %v negative", *horizon)
	}
	for _, f := range []struct{ flag, name string }{{"platform", *platform}, {"policy", *policy}, {"scenario", *scenarioName}} {
		if f.name == "" {
			return fmt.Errorf("-%s needs a name", f.flag)
		}
	}
	kaSpec, err := keepAliveSpec(*keepAliveMode, *seed)
	if err != nil {
		return err
	}
	sweepMode := *sweep || *pareto
	if err := flagConflicts(fs, *tracePath, *scenarioName, sweepMode, *remote != "", *distribute, *workerMode); err != nil {
		return err
	}
	if *workerMode {
		if *connect == "" {
			return fmt.Errorf("-worker needs -connect host:port to find its coordinator")
		}
		return distsweep.RunWorker(context.Background(), distsweep.WorkerConfig{
			Addr:    *connect,
			Workers: *workers,
		})
	}
	if *distribute < 0 {
		return fmt.Errorf("-distribute %d negative", *distribute)
	}

	sim := api.SimulateParams{
		Platform: *platform, Policy: *policy, Hosts: *hosts, Requests: *requests,
		Scenario: *scenarioName, Tenants: *tenants, Horizon: api.Duration(*horizon),
		Overcommit: *overcommit, Elastic: *elastic,
		HostVCPU: *hostVCPU, HostMemMB: *hostMem,
		KeepAlive: kaSpec,
	}
	if *faultsName != "" {
		p, err := faults.ByName(*faultsName)
		if err != nil {
			return err
		}
		sim.Faults = &p.Spec
	}
	// Remote runs resolve here too, so a spec the daemon would reject
	// fails before anything is dialed.
	if !sweepMode {
		fc, sc, scfg, err := api.SimulateConfigs(sim, *seed)
		if err != nil {
			return err
		}
		if *remote != "" {
			return runRemote(w, *remote, *seed, *verify, false, false, sim, api.SweepParams{})
		}
		fc.Workers = *workers
		return replay(w, fc, sc, scfg, *tracePath, *verify)
	}

	// Sweeping "raw" makes no sense (there is no scenario to price
	// keep-alive economics against); the whole catalog is the default,
	// one named scenario the restriction.
	if *scenarioName == "raw" {
		return fmt.Errorf(`-sweep needs workload scenarios; -scenario raw cannot be swept`)
	}
	sw, err := sweepParams(fs, sim, *sweepPolicies, *sweepTTLs, *sweepOvercommits, *sweepKeepAlive)
	if err != nil {
		return err
	}
	ocfg, space, err := api.SweepConfigs(sw, *seed)
	if err != nil {
		return err
	}
	switch {
	case *remote != "":
		if *format != "json" {
			return fmt.Errorf("-remote sweeps print the daemon's JSON document; use -format json")
		}
		return runRemote(w, *remote, *seed, false, true, *pareto, sim, sw)
	case *distribute > 0:
		return runDistributed(w, distsweep.Spec{Sweep: sw, Seed: *seed},
			*distribute, *listen, *checkpointDir, *workers, *pareto, *verify, *format)
	}
	ocfg.Workers = *workers
	return runSweep(w, ocfg, space, *pareto, *refine, *format)
}

// replay runs one cluster simulation of the resolved configuration
// and prints its report; verify adds the differential replay's
// verdict. Every workload — a CSV trace, the raw generator (sc is the
// zero Scenario), a scenario — streams through the one
// fleet.SimulateStream call (diffsim.VerifyStream's under verify, the
// call the daemon's scenario.verify job makes).
func replay(w io.Writer, fc fleet.Config, sc scenario.Scenario, scfg scenario.Config, tracePath string, verify bool) error {
	var src trace.Source
	label := ""
	switch {
	case tracePath != "":
		start := time.Now()
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		tr, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		src = trace.SourceOf(tr)
		fmt.Fprintf(w, "replaying %d requests from %s (loaded in %v)\n",
			tr.Len(), tracePath, time.Since(start).Round(time.Millisecond))
	case sc.Name == "":
		src = trace.GenerateSource(scfg.Base)
		fmt.Fprintf(w, "streaming %d-request synthetic trace (seed %d)\n", scfg.Base.Requests, scfg.Base.Seed)
	default:
		src, label = sc.Source(scfg), sc.Name
		fmt.Fprintf(w, "streaming %d-request %s scenario trace (seed %d, %d tenants)\n",
			scfg.Base.Requests, sc.Name, scfg.Base.Seed, scfg.Tenants)
	}

	start := time.Now()
	var rep fleet.Report
	var res *diffsim.Result
	var err error
	if verify {
		// err is the verdict once the comparison ran (res != nil).
		if res, rep, err = diffsim.VerifyStream(context.Background(), fc, src, diffsim.DefaultTolerance); res == nil {
			return err
		}
	} else if rep, err = fleet.SimulateStream(context.Background(), fc, src); err != nil {
		return err
	}
	rep.Scenario = label
	elapsed := time.Since(start)
	done := "simulated"
	if verify {
		done = "simulated and verified"
	}
	fmt.Fprintf(w, "%s in %v (%.0f requests/sec)\n\n",
		done, elapsed.Round(time.Millisecond), float64(rep.Requests)/elapsed.Seconds())
	rep.WriteText(w)
	if res == nil {
		return nil
	}
	fmt.Fprintf(w, "\ndifferential replay: max relative delta %.3g over %d metrics\n",
		res.MaxRelDelta, len(res.Metrics))
	if err != nil {
		// A mismatch is the one failure with its own exit code
		// (exitVerifyFailed): the run happened, the oracle disagreed.
		if name := res.FirstMismatch(diffsim.DefaultTolerance); name != "" {
			return &verifyFailure{fmt.Errorf("differential replay failed, first mismatched metric %s: %w", name, err)}
		}
		return &verifyFailure{err}
	}
	fmt.Fprintln(w, "differential replay: report verified")
	return nil
}

// flagConflicts rejects contradictory flag combinations up front,
// naming every offending flag explicitly so the fix is obvious from
// the message alone.
func flagConflicts(fs *flag.FlagSet, tracePath, scenarioName string, sweepMode, remote bool,
	distribute int, workerMode bool) error {
	// A worker's entire task arrives over the wire from its
	// coordinator; any workload- or output-shaping flag set locally
	// would be silently ignored, so only the connection and pool-size
	// flags are legal alongside -worker.
	if workerMode {
		allowed := map[string]bool{"worker": true, "connect": true, "workers": true}
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-worker takes its entire task from the coordinator; drop %s", strings.Join(conflict, ", "))
		}
		return nil
	}
	// -verify normally conflicts with sweep mode (there is no
	// differential replay for a grid), but a distributed sweep
	// repurposes it: run the in-process sweep too and require byte
	// identity.
	sweepConflicts := map[string]bool{"policy": true, "overcommit": true, "elastic": true,
		"trace": true, "keepalive": true}
	if distribute == 0 {
		sweepConflicts["verify"] = true
	}
	// A recorded trace replays as-is and "raw" bypasses the shaping
	// layer; explicitly asking for a combination that contradicts the
	// chosen mode is a user error, not something to ignore silently.
	rules := []struct {
		active bool
		reason string
		flags  map[string]bool
	}{
		{tracePath != "", "-trace replays the CSV unshaped",
			map[string]bool{"scenario": true, "tenants": true, "horizon": true, "faults": true}},
		{tracePath == "" && scenarioName == "raw",
			`-scenario raw is the unshaped generator (fault schedules key to a scenario horizon)`,
			map[string]bool{"tenants": true, "horizon": true, "faults": true}},
		{sweepMode, "-sweep/-pareto evaluate the whole policy grid (the swept knobs replace the single-run flags)",
			sweepConflicts},
		{!sweepMode, "-refine, -sweep-*, -distribute, and -format configure -sweep/-pareto",
			map[string]bool{"refine": true, "sweep-policies": true, "sweep-ttls": true,
				"sweep-overcommits": true, "sweep-keepalive": true, "format": true, "distribute": true}},
		{distribute == 0, "-listen and -checkpoint-dir configure -distribute",
			map[string]bool{"listen": true, "checkpoint-dir": true}},
		{distribute > 0, "-distribute runs the fixed grid across worker processes; -refine is a follow-on in-process pass",
			map[string]bool{"refine": true}},
		{!workerMode, "-connect names the coordinator a -worker dials",
			map[string]bool{"connect": true}},
		{remote, "-remote runs on the daemon; local-only flags do not apply there",
			map[string]bool{"trace": true, "workers": true, "refine": true,
				"distribute": true, "listen": true, "checkpoint-dir": true}},
	}
	for _, ru := range rules {
		if !ru.active {
			continue
		}
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if ru.flags[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("%s; drop %s", ru.reason, strings.Join(conflict, ", "))
		}
	}
	return nil
}

// sweepParams translates the sweep-shaping flags into the canonical
// api.SweepParams document, inheriting the workload and host shape
// from the single-run document. Every sweep mode — in-process,
// -remote, -distribute — resolves its grid from this spec through
// api.SweepConfigs, so the modes cannot drift.
func sweepParams(fs *flag.FlagSet, sim api.SimulateParams,
	policies, ttls, overcommits, keepAliveModes string) (api.SweepParams, error) {
	ocs, err := parseFloats(splitList(overcommits))
	if err != nil {
		return api.SweepParams{}, err
	}
	sw := api.SweepParams{
		Platform: sim.Platform, Hosts: sim.Hosts, Requests: sim.Requests,
		Tenants: sim.Tenants, Horizon: sim.Horizon,
		Policies: splitList(policies), TTLs: splitList(ttls), Overcommits: ocs,
		HostVCPU: sim.HostVCPU, HostMemMB: sim.HostMemMB,
		Faults: sim.Faults, KeepAliveModes: splitList(keepAliveModes),
	}
	// Only an explicit -scenario narrows the sweep; the default value
	// must not shadow the full-catalog default.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "scenario" {
			sw.Scenarios = []string{sim.Scenario}
		}
	})
	return sw, nil
}

// runDistributed runs the sweep through the distributed coordinator:
// Coordinator.Run spawns n copies of this binary in -worker mode
// against an in-process coordinator, and the merged result renders
// exactly as the in-process sweep would. All chatter goes to stderr so
// stdout stays byte-identical to the single-process run — the property
// the CI gate cmp's and -verify proves in-process.
func runDistributed(w io.Writer, spec distsweep.Spec, n int, listen, dir string,
	evalWorkers int, paretoOnly, verify bool, format string) error {
	// Reject output-shape errors before any evaluation runs, exactly
	// like runSweep.
	switch format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q (have text, csv, json)", format)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "fleetsim-distsweep-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	coord, err := distsweep.Start(distsweep.CoordinatorConfig{
		Spec: spec,
		Dir:  dir,
		Trace: func(event string, shard, index int) {
			if event == "shard-done" {
				fmt.Fprintf(os.Stderr, "fleetsim: shard %d durable\n", shard)
			}
		},
	}, listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleetsim: coordinator on %s (%d shards, spec %.12s), spawning %d workers\n",
		coord.Addr(), len(coord.Shards()), coord.SpecHash(), n)

	var poolArgs []string
	if evalWorkers > 0 {
		poolArgs = []string{"-workers", strconv.Itoa(evalWorkers)}
	}
	ctx := context.Background()
	sr, err := coord.Run(ctx, n, func(ctx context.Context, addr string) error {
		cmd := exec.CommandContext(ctx, self, append([]string{"-worker", "-connect", addr}, poolArgs...)...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "fleetsim: worker exited: %v\n", err)
			return err
		}
		// A worker killed because Run is returning was cancelled, not failed.
		return ctx.Err()
	})
	if err != nil {
		return err
	}
	if verify {
		if err := distsweep.Verify(ctx, spec, sr); err != nil {
			if errors.Is(err, distsweep.ErrDiverged) {
				return &verifyFailure{err}
			}
			return err
		}
		fmt.Fprintln(os.Stderr, "fleetsim: distributed result verified byte-identical to the in-process sweep")
	}
	return renderSweep(w, sr, paretoOnly, format)
}

// runRemote runs the requested mode on a slscostd daemon instead of
// in-process: it submits the job spec the flags describe, follows the
// NDJSON event stream to completion, and renders the result. Because
// the daemon calls the same library entry points this binary does,
// the rendered report (and, for sweeps, the JSON document) matches
// the in-process run for the same seed.
func runRemote(w io.Writer, addr string, seed uint64, verify, sweepMode, paretoOnly bool,
	sim api.SimulateParams, sw api.SweepParams) error {
	ctx := context.Background()
	client := api.NewClient(addr)
	method := "fleet.simulate"
	var params any = sim
	switch {
	case sweepMode && paretoOnly:
		method, params = "opt.pareto", sw
	case sweepMode:
		method, params = "opt.sweep", sw
	case verify:
		method = "scenario.verify"
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return err
	}
	st, err := client.Submit(ctx, api.JobSpec{Method: method, Seed: &seed, Params: raw})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted %s job %s to %s (seed %d)\n", method, st.ID, client.BaseURL, seed)

	var report, sweepJSON json.RawMessage
	var verifyRes *api.VerifyResult
	var final api.Event
	err = client.Stream(ctx, st.ID, func(_ []byte, ev api.Event) error {
		switch ev.Type {
		case api.EventReport:
			report = ev.Report
		case api.EventVerify:
			report, verifyRes = ev.Report, ev.Verify
		case api.EventSweep:
			sweepJSON = ev.Sweep
		case api.EventDone:
			final = ev
		}
		return nil
	})
	if err != nil {
		return err
	}
	if verifyRes != nil {
		fmt.Fprintf(w, "differential replay: max relative delta %.3g over %d metrics\n",
			verifyRes.MaxRelDelta, verifyRes.Metrics)
	}
	switch final.State {
	case "done":
	case "failed":
		if verifyRes != nil {
			// The daemon ran the comparison and it missed tolerance:
			// same failure, same distinct exit code as a local -verify.
			return &verifyFailure{fmt.Errorf("job %s: %s", st.ID, final.Error)}
		}
		return fmt.Errorf("job %s failed: %s", st.ID, final.Error)
	default:
		return fmt.Errorf("job %s ended in state %q", st.ID, final.State)
	}

	if sweepMode {
		if sweepJSON == nil {
			return fmt.Errorf("job %s finished without a sweep document", st.ID)
		}
		// Re-indent the compact on-wire document back to the exact
		// bytes the in-process -format json path writes.
		var buf bytes.Buffer
		if err := json.Indent(&buf, sweepJSON, "", "  "); err != nil {
			return err
		}
		buf.WriteByte('\n')
		_, err := w.Write(buf.Bytes())
		return err
	}
	if report == nil {
		return fmt.Errorf("job %s finished without a report", st.ID)
	}
	var rep fleet.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		return fmt.Errorf("decoding daemon report: %w", err)
	}
	rep.WriteText(w)
	if verifyRes != nil {
		fmt.Fprintln(w, "differential replay: report verified")
	}
	return nil
}

// runSweep runs the policy-optimization mode: grid sweep, optional
// Pareto-only rendering, optional coordinate-descent refinement. The
// output contains no wall-clock timings on purpose — it is
// byte-identical for any -workers, which the CLI tests and the
// EXPERIMENTS.md acceptance check rely on.
func runSweep(w io.Writer, ocfg opt.Config, space opt.Space, paretoOnly, refine bool, format string) error {
	// Reject output-shape errors before the sweep runs: a grid over the
	// full catalog can take minutes, and finding out the -format was
	// wrong afterwards would waste all of it.
	switch format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q (have text, csv, json)", format)
	}
	if refine && format != "text" {
		return fmt.Errorf("-refine prints a text trajectory; drop -format %s", format)
	}
	sr, err := opt.Sweep(context.Background(), ocfg, space)
	if err != nil {
		return err
	}
	if err := renderSweep(w, sr, paretoOnly, format); err != nil {
		return err
	}
	if refine {
		start, ok := sr.CheapestFrontier()
		if !ok {
			return fmt.Errorf("empty pareto frontier, nothing to refine")
		}
		rr, err := opt.Refine(context.Background(), ocfg, start.Candidate)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		rr.WriteText(w)
	}
	return nil
}

// renderSweep writes a sweep result in the chosen format — the single
// rendering path shared by the in-process and distributed sweeps, so
// the two modes cannot drift apart byte-wise.
func renderSweep(w io.Writer, sr *opt.SweepResult, paretoOnly bool, format string) error {
	switch format {
	case "text":
		if paretoOnly {
			writeParetoText(w, sr)
		} else {
			sr.WriteText(w)
		}
		return nil
	case "csv":
		if paretoOnly {
			return sr.WriteFrontierCSV(w)
		}
		return sr.WriteCSV(w)
	case "json":
		// The JSON document always carries both the grid and the
		// frontier; -pareto needs no variant.
		return sr.WriteJSON(w)
	}
	return fmt.Errorf("unknown -format %q (have text, csv, json)", format)
}

// writeParetoText renders only the frontier: the aggregate decision
// table, then each scenario's own non-dominated configs.
func writeParetoText(w io.Writer, sr *opt.SweepResult) {
	fmt.Fprintf(w, "pareto frontier over %d configs x %d scenarios (platform %s, seed %d):\n",
		len(sr.Summaries), len(sr.Scenarios), sr.Profile, sr.Seed)
	for _, s := range sr.Frontier() {
		fmt.Fprintf(w, "  %-42s $%.3f/1M  cold %5.2f%%  p99 slow x%.3f  rej %.2f%%  (worst: %s)\n",
			s.Candidate.Key(), s.Objectives.CostPerMillion, s.Objectives.ColdStartRate*100,
			s.Objectives.SlowdownP99, s.RejectedShare*100, s.WorstScenario)
	}
	for _, name := range sr.Scenarios {
		rows, ok := sr.FrontierFor(name)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s:\n", name)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-42s $%.3f/1M  cold %5.2f%%  p99 slow x%.3f\n",
				r.Candidate.Key(), r.Objectives.CostPerMillion,
				r.Objectives.ColdStartRate*100, r.Objectives.SlowdownP99)
		}
	}
}

// keepAliveSpec resolves the -keepalive flag: "static" is the nil
// spec (the legacy direct-window path, byte-identical to every run
// before the flag existed); adaptive modes build a default spec
// carrying the run seed, so the per-function decider streams are as
// reproducible as the rest of the simulation.
func keepAliveSpec(mode string, seed uint64) (*keepalive.Spec, error) {
	m := keepalive.Mode(mode)
	if !m.Valid() {
		return nil, fmt.Errorf("unknown -keepalive mode %q (have static, adaptive, bandit)", mode)
	}
	if m == keepalive.ModeStatic {
		return nil, nil
	}
	return &keepalive.Spec{Mode: m, Seed: &seed}, nil
}

// splitList splits a comma-separated flag value, trimming whitespace
// and dropping empty fields.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseFloats parses a list of overcommit ratios.
func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad overcommit %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
