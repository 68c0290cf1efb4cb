package main

// This is the only file of the benchmark that calls into the slscost
// packages. Every layer is timed from outside, through its exported
// entry points, so an API change adapts this file and nothing else.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"slscost/internal/api"
	"slscost/internal/billing"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/opt"
	"slscost/internal/scenario"
	"slscost/internal/scenario/diffsim"
	"slscost/internal/scenario/faults"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// defaultSeed is the generator's calibrated seed; digests are pinned
// for it.
var defaultSeed = trace.DefaultGeneratorConfig().Seed

// The job methods a jobDef can name: the daemon's built-in methods.
const (
	methodSimulate = "fleet.simulate"
	methodVerify   = "scenario.verify"
	methodSweep    = "opt.sweep"
)

// probeScenario is the scenario replay-raw's base config is taken
// through when the scenario layer is measured: the workload itself
// bypasses that layer, so its scenario numbers say what the cheapest
// scenario would add.
const probeScenario = "steady"

// counts are the exact per-op counters read from fleet reports.
type counts struct {
	Served, ColdStarts, Rejected, Killed, Deferred int
}

func (c *counts) plus(o counts) {
	c.Served += o.Served
	c.ColdStarts += o.ColdStarts
	c.Rejected += o.Rejected
	c.Killed += o.Killed
	c.Deferred += o.Deferred
}

func (c *counts) add(rep fleet.Report) {
	c.Served += rep.Served
	c.ColdStarts += rep.ColdStarts
	c.Rejected += rep.RejectedRequests
	c.Killed += rep.KilledRequests
	c.Deferred += rep.DeferredRequests
}

// outcome is what one op produced, reduced to what the benchmark
// checks and counts.
type outcome struct {
	digest   string
	requests int // simulated requests
	counts   counts
	maxDelta float64 // largest diffsim relative delta (verify jobs)
}

// jobStatus is the daemon's view of a finished job.
type jobStatus struct {
	queueWait, run time.Duration
	events         int
	hits, misses   int
}

// simulateParams builds the daemon's parameter object for a
// simulate or verify jobDef. Without withFaults the fault spec is left
// out, so the caller can compile it in a span of its own.
func simulateParams(d jobDef, withFaults bool) (api.SimulateParams, error) {
	p := api.SimulateParams{Scenario: d.scenario, Requests: d.requests, Tenants: d.tenants, Hosts: d.hosts}
	if d.faults != "" && withFaults {
		prof, err := faults.ByName(d.faults)
		if err != nil {
			return p, err
		}
		spec := prof.Spec
		p.Faults = &spec
	}
	if d.keepalive != "" {
		p.KeepAlive = &keepalive.Spec{Mode: keepalive.Mode(d.keepalive)}
	}
	return p, nil
}

func sweepParams(d jobDef) api.SweepParams {
	return api.SweepParams{Requests: d.requests, Hosts: d.hosts, Scenarios: d.scenarios}
}

// jobSpec renders a jobDef as the daemon's job spec.
func jobSpec(d jobDef, seed uint64) (api.JobSpec, error) {
	var params any
	if d.method == methodSweep {
		params = sweepParams(d)
	} else {
		p, err := simulateParams(d, true)
		if err != nil {
			return api.JobSpec{}, err
		}
		params = p
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return api.JobSpec{}, err
	}
	return api.JobSpec{Method: d.method, Seed: &seed, Params: raw}, nil
}

// source is one re-openable request stream a job replays, with the
// key that identifies it across the jobs of a workload.
type source struct {
	key      string
	open     trace.Source
	requests int
}

// job is one jobDef with its configurations resolved and its inputs
// built: the calibrated generator or compiled scenario plans, and the
// compiled fault schedule.
type job struct {
	def     jobDef
	seed    uint64
	base    trace.GeneratorConfig
	fc      fleet.Config // simulate and verify jobs
	policy  string
	src     source
	label   string
	sweep   opt.Config // sweep jobs
	space   opt.Space
	plans   []*scenario.Plan // sweep jobs, in cfg.Scenarios order
	results []opt.Result     // sweep jobs: the grid, filled by the evals
}

// prepareJob resolves d through the daemon's own resolvers
// (api.SimulateConfigs, api.SweepConfigs) and builds its inputs. This
// is the set-up a workload times.
func prepareJob(d jobDef, seed uint64, tr *tracer) (*job, error) {
	j := &job{def: d, seed: seed}
	if d.method == methodSweep {
		cfg, space, err := api.SweepConfigs(sweepParams(d), seed)
		if err != nil {
			return nil, err
		}
		j.base, j.sweep, j.space = cfg.Scenario.Base, cfg, space
		byName := map[string]*scenario.Plan{}
		for _, sc := range cfg.Scenarios {
			end := tr.begin("scenario.Compile")
			p, err := sc.Compile(cfg.Scenario)
			end()
			if err != nil {
				return nil, err
			}
			j.plans = append(j.plans, p)
			byName[sc.Name] = p
		}
		j.sweep.Planner = func(sc scenario.Scenario, _ scenario.Config) (*scenario.Plan, error) {
			p, ok := byName[sc.Name]
			if !ok {
				return nil, fmt.Errorf("bench: no compiled plan for scenario %s", sc.Name)
			}
			return p, nil
		}
		return j, nil
	}

	p, err := simulateParams(d, false)
	if err != nil {
		return nil, err
	}
	fc, sc, scfg, err := api.SimulateConfigs(p, seed)
	if err != nil {
		return nil, err
	}
	j.base, j.fc, j.policy = scfg.Base, fc, fc.Policy.Name()
	if d.faults != "" {
		prof, err := faults.ByName(d.faults)
		if err != nil {
			return nil, err
		}
		end := tr.begin("faults.Compile")
		j.fc.Faults, err = faults.Compile(&prof.Spec, fc.Hosts, scfg.EffectiveHorizon(), seed)
		end()
		if err != nil {
			return nil, err
		}
	}
	if d.scenario == "raw" {
		end := tr.begin("trace.GenerateSource")
		j.src = generatorSource(scfg.Base)
		end()
		return j, nil
	}
	end := tr.begin("scenario.Compile")
	plan, err := sc.Compile(scfg)
	end()
	if err != nil {
		return nil, err
	}
	j.src = source{key: sourceKey(d.scenario, scfg), open: plan.Source(), requests: scfg.Base.Requests}
	j.label = plan.Name()
	return j, nil
}

// sourceKey identifies a synthesized workload, the way the daemon's
// plan cache keys it.
func sourceKey(name string, scfg scenario.Config) string { return api.PlanKey(name, scfg) }

// fleetConfig returns the job's cluster configuration at the given
// worker count, with a fresh placement policy: stateful policies must
// not be reused across simulations.
func (j *job) fleetConfig(workers int) (fleet.Config, error) {
	fc := j.fc
	pol, err := fleet.NewPolicy(j.policy)
	if err != nil {
		return fc, err
	}
	fc.Policy, fc.Workers = pol, workers
	return fc, nil
}

// run executes the job in-process, exactly as the daemon's method
// would, with workers as the fleet shard pool (simulate, verify) or
// the sweep evaluation pool. A non-nil counter wraps the job's source.
func (j *job) run(ctx context.Context, workers int, tr *tracer, c *counter) (outcome, error) {
	if j.def.method == methodSweep {
		cfg := j.sweep
		cfg.Workers = workers
		if tr != nil {
			planner := cfg.Planner
			cfg.Planner = func(sc scenario.Scenario, scfg scenario.Config) (*scenario.Plan, error) {
				defer tr.begin("opt.Planner")()
				return planner(sc, scfg)
			}
		}
		end := tr.begin("opt.Sweep")
		sr, err := opt.Sweep(ctx, cfg, j.space)
		end()
		if err != nil {
			return outcome{}, err
		}
		return sweepOutcome(sr)
	}
	fc, err := j.fleetConfig(workers)
	if err != nil {
		return outcome{}, err
	}
	src := j.src.open
	if c != nil {
		src = countSource(src, c, tr)
	}
	return replay(ctx, j.def.method == methodVerify, fc, src, j.label, j.src.requests, tr)
}

// replay runs one simulate (or verify) evaluation over src.
func replay(ctx context.Context, verify bool, fc fleet.Config, src trace.Source, label string, requests int, tr *tracer) (outcome, error) {
	o := outcome{requests: requests}
	var rep fleet.Report
	var err error
	if verify {
		end := tr.begin("diffsim.VerifyStream")
		var res *diffsim.Result
		res, rep, err = diffsim.VerifyStream(ctx, fc, src, diffsim.DefaultTolerance)
		end()
		if res != nil {
			o.maxDelta = res.MaxRelDelta
		}
	} else {
		end := tr.begin("fleet.SimulateStream")
		rep, err = fleet.SimulateStream(ctx, fc, src)
		end()
	}
	if err != nil {
		return o, err
	}
	if o.maxDelta > 0 {
		return o, fmt.Errorf("bench: differential replay delta %g above 0", o.maxDelta)
	}
	rep.Scenario = label
	o.counts.add(rep)
	o.digest, err = reportDigest(rep)
	return o, err
}

// reportDigest hashes the report's JSON with Workers zeroed, so the
// pin does not depend on the machine's core count.
func reportDigest(rep fleet.Report) (string, error) {
	rep.Workers = 0
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("bench: encoding report: %w", err)
	}
	return digest(b), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sweepOutcome hashes the sweep document in the compact form the
// daemon streams it in.
func sweepOutcome(sr *opt.SweepResult) (outcome, error) {
	var pretty, compact bytes.Buffer
	if err := sr.WriteJSON(&pretty); err != nil {
		return outcome{}, err
	}
	if err := json.Compact(&compact, pretty.Bytes()); err != nil {
		return outcome{}, err
	}
	o := outcome{digest: digest(compact.Bytes()), requests: len(sr.Results) * sr.Requests}
	for _, r := range sr.Results {
		o.counts.add(r.Report)
	}
	return o, nil
}

// eval is one single-threaded fleet evaluation of a job: the job
// itself for simulate and verify, one grid cell for a sweep.
type eval struct {
	verify bool
	fc     func() (fleet.Config, error) // Workers = 1
	src    source
	label  string
	want   string                        // the evaluation's report digest
	direct func() (time.Duration, error) // times the evaluation through the job's own entry point
}

// evals lists the job's evaluations; want is the digest the job's ops
// produce. For a sweep each grid index runs through opt.SweepRange, and
// the grid cell's cluster configuration is rebuilt here from its
// candidate; replaying it must reproduce the cell's report, which
// checks the rebuild. An eval's direct must run before its replayOver.
func (j *job) evals(ctx context.Context, want string, tr *tracer) []eval {
	if j.def.method != methodSweep {
		e := eval{
			verify: j.def.method == methodVerify,
			fc:     func() (fleet.Config, error) { return j.fleetConfig(1) },
			src:    j.src, label: j.label, want: want,
		}
		e.direct = func() (time.Duration, error) {
			end := tr.begin("eval")
			o, err := j.run(ctx, 1, tr, nil)
			d := end()
			if err == nil && o.digest != want {
				err = fmt.Errorf("bench: evaluation at one worker changed the report")
			}
			return d, err
		}
		return []eval{e}
	}
	cfg := j.sweep
	cfg.Workers = 1
	n := cfg.GridSize(j.space)
	nScen := len(j.plans)
	out := make([]eval, n)
	j.results = make([]opt.Result, n)
	for i := range out {
		plan := j.plans[i%nScen]
		out[i] = eval{
			src: source{
				key:      sourceKey(plan.Name(), cfg.Scenario),
				open:     plan.Source(),
				requests: cfg.Scenario.Base.Requests,
			},
			label: plan.Name(),
		}
		e := &out[i]
		e.direct = func() (time.Duration, error) {
			end := tr.begin("opt.SweepRange")
			res, err := opt.SweepRange(ctx, cfg, j.space, i, i+1)
			d := end()
			if err != nil {
				return d, err
			}
			want, err := reportDigest(res[0].Report)
			if err != nil {
				return d, err
			}
			if e.want != "" && e.want != want {
				return d, fmt.Errorf("bench: grid index %d changed between runs", i)
			}
			e.want = want
			j.results[i] = res[0]
			c := res[0].Candidate
			e.fc = func() (fleet.Config, error) { return candidateConfig(cfg, c) }
			return d, nil
		}
	}
	return out
}

// candidateConfig rebuilds the cluster configuration opt evaluates a
// static-keep-alive candidate under.
func candidateConfig(cfg opt.Config, c opt.Candidate) (fleet.Config, error) {
	if c.KeepAliveMode != "" && c.KeepAliveMode != string(keepalive.ModeStatic) {
		return fleet.Config{}, fmt.Errorf("bench: candidate %s: only static keep-alive is rebuilt", c.Key())
	}
	pol, err := fleet.NewPolicy(c.Policy)
	if err != nil {
		return fleet.Config{}, err
	}
	prof := cfg.Profile
	if c.KeepAliveTTL >= 0 {
		prof.KeepAlive = prof.KeepAlive.WithTTL(c.KeepAliveTTL)
	}
	hosts := c.Hosts
	if hosts == 0 {
		hosts = cfg.Hosts
	}
	return fleet.Config{
		Hosts: hosts, Host: cfg.Host, Policy: pol, Profile: prof, Workers: 1,
		Overcommit: c.Overcommit, Elastic: c.Elastic, Seed: cfg.Seed, Faults: cfg.Faults,
	}, nil
}

// replayOver runs the evaluation's engine over src (a recording of its
// stream) and checks that it reproduces the evaluation's report.
func (e *eval) replayOver(ctx context.Context, src trace.Source, tr *tracer) error {
	fc, err := e.fc()
	if err != nil {
		return err
	}
	o, err := replay(ctx, e.verify, fc, src, e.label, e.src.requests, tr)
	if err != nil {
		return err
	}
	if o.digest != e.want {
		return fmt.Errorf("bench: replay over a recording of %s changed the report", e.label)
	}
	return nil
}

// verifyProbe runs the differential oracle over the evaluation's own
// stream and returns the largest relative delta it found.
func (e *eval) verifyProbe(ctx context.Context, tr *tracer) (float64, error) {
	fc, err := e.fc()
	if err != nil {
		return 0, err
	}
	o, err := replay(ctx, true, fc, e.src.open, e.label, e.src.requests, tr)
	if err == nil && o.digest != e.want {
		err = fmt.Errorf("bench: differential replay of %s changed the report", e.label)
	}
	return o.maxDelta, err
}

// simulateOver runs fleet.SimulateStream alone over src with the
// evaluation's configuration.
func (e *eval) simulateOver(ctx context.Context, src trace.Source, tr *tracer) error {
	fc, err := e.fc()
	if err != nil {
		return err
	}
	defer tr.begin("fleet.SimulateStream")()
	_, err = fleet.SimulateStream(ctx, fc, src)
	return err
}

// billingModel is the billing model of the evaluation's platform.
func (e *eval) billingModel() (billing.Model, error) {
	fc, err := e.fc()
	return fc.Profile.Billing, err
}

// counter counts what a fleet run asks of its source.
type counter struct {
	opens, pulls, scans int
}

// countSource wraps src so each opened stream counts its pulls and pod
// scans. The wrapped stream has exactly the optional interfaces of the
// stream it wraps, so the fleet takes the same paths through it.
func countSource(src trace.Source, c *counter, tr *tracer) trace.Source {
	return func() (trace.Stream, error) {
		end := tr.begin("trace.Source.open")
		s, err := src()
		end()
		if err != nil {
			return nil, err
		}
		c.opens++
		next := func() (trace.Request, bool) {
			r, ok := s.Next()
			if ok {
				c.pulls++
			}
			return r, ok
		}
		var into func(*trace.Request) bool
		if is, ok := s.(trace.IntoStream); ok {
			into = func(r *trace.Request) bool {
				if is.NextInto(r) {
					c.pulls++
					return true
				}
				return false
			}
		}
		var scan func() []trace.PodMeta
		if ps, ok := s.(trace.PodScanner); ok {
			scan = func() []trace.PodMeta {
				defer tr.begin("trace.PodScan")()
				c.scans++
				return ps.PodScan()
			}
		}
		return shaped(next, into, scan), nil
	}
}

// recording is one opening of a stream held in memory, with the pod
// scan taken up front when the stream offers one.
type recording struct {
	reqs  []trace.Request
	metas []trace.PodMeta
	into  bool
	scan  bool
}

// record drains one opening of src through the pull method the fleet
// uses.
func record(src trace.Source) (*recording, error) {
	s, err := src()
	if err != nil {
		return nil, err
	}
	rec := &recording{}
	_, rec.into = s.(trace.IntoStream)
	if ps, ok := s.(trace.PodScanner); ok {
		rec.scan, rec.metas = true, ps.PodScan()
	}
	next := trace.NextIntoFunc(s)
	var r trace.Request
	for next(&r) {
		rec.reqs = append(rec.reqs, r)
	}
	return rec, nil
}

// source re-opens the recording with the optional interfaces of the
// recorded stream. Its pod scan returns the metadata taken at record
// time, so replaying it costs the fleet's own work and nothing else.
func (rec *recording) source() trace.Source {
	return func() (trace.Stream, error) {
		pos := 0
		next := func() (trace.Request, bool) {
			if pos >= len(rec.reqs) {
				return trace.Request{}, false
			}
			pos++
			return rec.reqs[pos-1], true
		}
		var into func(*trace.Request) bool
		if rec.into {
			into = func(r *trace.Request) bool {
				if pos >= len(rec.reqs) {
					return false
				}
				*r = rec.reqs[pos]
				pos++
				return true
			}
		}
		var scan func() []trace.PodMeta
		if rec.scan {
			scan = func() []trace.PodMeta { return rec.metas }
		}
		return shaped(next, into, scan), nil
	}
}

// The shaped stream types carry exactly the optional methods they were
// given, so a wrapper never adds or hides a fast path.
type nextStream struct{ next func() (trace.Request, bool) }

func (s *nextStream) Next() (trace.Request, bool) { return s.next() }

type intoStream struct {
	nextStream
	into func(*trace.Request) bool
}

func (s *intoStream) NextInto(r *trace.Request) bool { return s.into(r) }

type scanStream struct {
	nextStream
	scan func() []trace.PodMeta
}

func (s *scanStream) PodScan() []trace.PodMeta { return s.scan() }

type intoScanStream struct {
	intoStream
	scan func() []trace.PodMeta
}

func (s *intoScanStream) PodScan() []trace.PodMeta { return s.scan() }

func shaped(next func() (trace.Request, bool), into func(*trace.Request) bool, scan func() []trace.PodMeta) trace.Stream {
	n := nextStream{next}
	switch {
	case into != nil && scan != nil:
		return &intoScanStream{intoStream{n, into}, scan}
	case into != nil:
		return &intoStream{n, into}
	case scan != nil:
		return &scanStream{n, scan}
	}
	return &n
}

// streamShape reports which optional interfaces src's streams have.
func streamShape(src trace.Source) (into, scan bool, err error) {
	s, err := src()
	if err != nil {
		return false, false, err
	}
	_, into = s.(trace.IntoStream)
	_, scan = s.(trace.PodScanner)
	return into, scan, nil
}

// drain pulls one opening of src to the end through the pull method
// the fleet uses and returns the request count.
func drain(src trace.Source) (int, error) {
	s, err := src()
	if err != nil {
		return 0, err
	}
	next := trace.NextIntoFunc(s)
	n := 0
	var r trace.Request
	for next(&r) {
		n++
	}
	return n, nil
}

// calibrate runs the generator's calibration sweep for base and
// returns its pod count.
func calibrate(base trace.GeneratorConfig, tr *tracer) int {
	defer tr.begin("trace.Calibrate")()
	return trace.Calibrate(base).Pods()
}

// generatorSource is the raw generator stream of base.
func generatorSource(base trace.GeneratorConfig) source {
	return source{
		key:      sourceKey("raw", scenario.Config{Base: base}),
		open:     trace.GenerateSource(base),
		requests: base.Requests,
	}
}

// podScan times the timing-only pod walk of one generator opening.
func podScan(src trace.Source, tr *tracer) (int, error) {
	s, err := src()
	if err != nil {
		return 0, err
	}
	ps, ok := s.(trace.PodScanner)
	if !ok {
		return 0, fmt.Errorf("bench: generator stream offers no pod scan")
	}
	defer tr.begin("trace.PodScan")()
	return len(ps.PodScan()), nil
}

// scenarioProbe compiles the scenarios the job synthesizes (for a raw
// job, probeScenario over the same base config) and returns their
// sources.
func (j *job) scenarioProbe(tr *tracer) ([]source, error) {
	var names []string
	scfg := scenario.Config{Base: j.base}
	switch {
	case j.def.method == methodSweep:
		names, scfg = j.def.scenarios, j.sweep.Scenario
	case j.def.scenario == "raw":
		names = []string{probeScenario}
	default:
		p, err := simulateParams(j.def, false)
		if err != nil {
			return nil, err
		}
		if _, _, scfg, err = api.SimulateConfigs(p, j.seed); err != nil {
			return nil, err
		}
		names = []string{j.def.scenario}
	}
	scs, err := scenario.Subset(names...)
	if err != nil {
		return nil, err
	}
	var out []source
	for _, sc := range scs {
		end := tr.begin("scenario.Compile")
		plan, err := sc.Compile(scfg)
		end()
		if err != nil {
			return nil, err
		}
		out = append(out, source{key: sourceKey(sc.Name, scfg), open: plan.Source(), requests: scfg.Base.Requests})
	}
	return out, nil
}

// billAll prices every recorded request the way a host bills it and
// returns the total, so the work cannot be optimized away.
func billAll(m billing.Model, reqs []trace.Request, tr *tracer) float64 {
	defer tr.begin("billing.Bill")()
	total := 0.0
	for i := range reqs {
		total += m.Bill(billing.MapRequest(m, reqs[i])).Total()
	}
	return total
}

// observeAll feeds every recorded duration, in ms, to a latency
// histogram and returns its mean.
func observeAll(reqs []trace.Request, tr *tracer) float64 {
	defer tr.begin("stats.LogHist.Observe")()
	h := stats.NewLogHist(fleet.LatencyHistConfig())
	for i := range reqs {
		h.Observe(float64(reqs[i].Duration) * 1e-6)
	}
	return h.Summary().Mean
}

// assemble times folding the grid results the evals collected into the
// sweep document, and checks the document against want.
func (j *job) assemble(want string, tr *tracer) (time.Duration, error) {
	end := tr.begin("opt.AssembleSweep")
	sr, err := opt.AssembleSweep(j.sweep, j.space, j.results)
	d := end()
	if err != nil {
		return d, err
	}
	o, err := sweepOutcome(sr)
	if err == nil && o.digest != want {
		err = fmt.Errorf("bench: sweep assembled from single-index ranges differs from the sweep")
	}
	return d, err
}

// daemon is an in-process slscostd: the API server on a loopback
// listener, and one client limited to one connection.
type daemon struct {
	server *api.Server
	http   *httptest.Server
	client *api.Client
}

// startDaemon starts the server with workers job workers and checks
// its health.
func startDaemon(ctx context.Context, workers int) (*daemon, error) {
	s := api.NewServer(api.ServerConfig{Workers: workers})
	hs := httptest.NewServer(s)
	c := api.NewClient(hs.URL)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	d := &daemon{server: s, http: hs, client: c}
	h, err := c.Health(ctx)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("bench: daemon health %q", h.Status)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the listener, then drains the job queue.
func (d *daemon) close() {
	d.client.HTTPClient.CloseIdleConnections()
	d.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.server.Close(ctx) // jobs still running after the deadline are cancelled; nothing to report
}

// submit runs one job through the daemon, closed loop: it returns once
// the job's done line is read. Latency runs from the start of Submit to
// that line. With status set it then reads the job's timestamps.
func (d *daemon) submit(ctx context.Context, def jobDef, seed uint64, status bool, tr *tracer) (outcome, time.Duration, jobStatus, error) {
	o := outcome{requests: def.requests}
	var js jobStatus
	spec, err := jobSpec(def, seed)
	if err != nil {
		return o, 0, js, err
	}
	start := time.Now()
	end := tr.begin("api.Client.Submit")
	st, err := d.client.Submit(ctx, spec)
	end()
	if err != nil {
		return o, 0, js, err
	}
	state := ""
	end = tr.begin("api.Client.Stream")
	err = d.client.Stream(ctx, st.ID, func(_ []byte, ev api.Event) error {
		switch ev.Type {
		case api.EventReport, api.EventVerify:
			var rep fleet.Report
			if err := json.Unmarshal(ev.Report, &rep); err != nil {
				return err
			}
			o.counts.add(rep)
			var err error
			o.digest, err = reportDigest(rep)
			if ev.Verify != nil {
				o.maxDelta = ev.Verify.MaxRelDelta
			}
			return err
		case api.EventSweep:
			var doc struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(ev.Sweep, &doc); err != nil {
				return err
			}
			o.digest, o.requests = digest(ev.Sweep), len(doc.Results)*def.requests
		case api.EventDone:
			state = ev.State
		}
		return nil
	})
	end()
	latency := time.Since(start)
	if err != nil {
		return o, latency, js, err
	}
	if state != "done" {
		return o, latency, js, fmt.Errorf("bench: job %s ended %s", st.ID, state)
	}
	if o.maxDelta > 0 {
		return o, latency, js, fmt.Errorf("bench: job %s: differential replay delta %g above 0", st.ID, o.maxDelta)
	}
	if status {
		end = tr.begin("api.Client.Status")
		st, err = d.client.Status(ctx, st.ID)
		end()
		if err != nil {
			return o, latency, js, err
		}
		if st.Started == nil || st.Finished == nil {
			return o, latency, js, fmt.Errorf("bench: job %s has no start or finish time", st.ID)
		}
		js = jobStatus{
			queueWait: st.Started.Sub(st.Created),
			run:       st.Finished.Sub(*st.Started),
			events:    st.Events,
			hits:      st.PlanCache.Hits,
			misses:    st.PlanCache.Misses,
		}
	}
	return o, latency, js, nil
}
