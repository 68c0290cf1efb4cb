package opt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"slscost/internal/core"
	"slscost/internal/fleet"
	"slscost/internal/keepalive"
	"slscost/internal/scenario"
	"slscost/internal/scenario/faults"
)

// Config parameterizes one sweep or refinement: everything an
// evaluation needs besides the candidate itself.
type Config struct {
	// Profile is the platform whose billing, serving, keep-alive
	// retention, and scheduling models every candidate is priced
	// against. Candidates with a TTL override replace only the window;
	// retention stays the platform's.
	Profile core.Profile
	// Host is the per-host capacity (zero value: fleet.DefaultHostSpec).
	Host fleet.HostSpec
	// Hosts is the pool size for candidates that do not pin their own
	// (Candidate.Hosts == 0); zero means DefaultHosts.
	Hosts int
	// Scenarios are the workloads every candidate is evaluated on; nil
	// means the full scenario catalog.
	Scenarios []scenario.Scenario
	// Scenario is the synthesis configuration shared by all scenarios
	// (request volume, generator seed, horizon, tenant fan-out).
	Scenario scenario.Config
	// Seed drives the fleet simulation's random streams.
	Seed uint64
	// Faults, when non-nil, is the compiled fault schedule every
	// evaluation replays. It must be compiled for the same host count
	// the candidates run with (fleet.Config.Validate enforces the
	// match), so sweeps that vary Candidate.Hosts must leave it nil and
	// compile per-candidate instead.
	Faults *faults.Plan
	// Workers is how many goroutines simulate at once; zero means
	// GOMAXPROCS. They run groups of evaluations side by side, one
	// worker each, or one group at a time sharded over all of them
	// (dispatch). It never affects any result.
	Workers int
	// Planner, when non-nil, supplies the compiled plan for each
	// scenario instead of a fresh Scenario.Compile — the hook the
	// slscostd daemon uses to share its LRU of compiled plans across
	// jobs. A planner must return a plan equivalent to
	// sc.Compile(scfg); because Plan openings are deterministic, a
	// cached plan cannot change any result.
	Planner func(sc scenario.Scenario, scfg scenario.Config) (*scenario.Plan, error)
	// OnResult, when non-nil, receives every evaluation exactly once,
	// in grid order (candidate-major, scenario-minor) — the same order
	// Results holds — as soon as it and all its predecessors have
	// completed. Emission order is therefore deterministic for any
	// Workers. The callback runs on a worker goroutine while the sweep
	// holds its emission lock: it must be fast and must not call back
	// into the sweep. Refine never invokes it.
	OnResult func(Result)
}

// DefaultHosts is the pool size a sweep runs candidates on when
// neither the Config nor the candidate sets one.
const DefaultHosts = 16

// withDefaults resolves the zero values.
func (cfg Config) withDefaults() Config {
	if cfg.Host == (fleet.HostSpec{}) {
		cfg.Host = fleet.DefaultHostSpec()
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = DefaultHosts
	}
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = scenario.Catalog()
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Validate reports whether the sweep configuration is usable.
func (cfg Config) Validate() error {
	if err := cfg.Profile.Validate(); err != nil {
		return err
	}
	if cfg.Hosts < 0 {
		return fmt.Errorf("opt: negative default host count %d", cfg.Hosts)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("opt: negative worker count %d", cfg.Workers)
	}
	for _, sc := range cfg.Scenarios {
		if err := sc.Validate(cfg.Scenario); err != nil {
			return err
		}
	}
	return nil
}

// fleetConfig materializes the candidate into the cluster configuration
// its evaluations run under.
func (c Candidate) fleetConfig(cfg Config) (fleet.Config, error) {
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
	fc := fleet.Config{
		Hosts:      hosts,
		Host:       cfg.Host,
		Policy:     pol,
		Profile:    prof,
		Workers:    1, // evaluateGroup sets its group's shard count
		Overcommit: c.Overcommit,
		Elastic:    c.Elastic,
		Seed:       cfg.Seed,
		Faults:     cfg.Faults,
	}
	// A static candidate takes the legacy nil-spec path (byte-identical
	// reports and rows); adaptive modes attach a spec seeded by the
	// sweep seed, so the per-function decider streams are as
	// reproducible as everything else in the grid.
	if mode := c.keepAliveMode(); mode != keepalive.ModeStatic {
		seed := cfg.Seed
		fc.KeepAlive = &keepalive.Spec{Mode: mode, Seed: &seed}
	}
	return fc, nil
}

// Result is one (candidate, scenario) evaluation.
type Result struct {
	// Candidate is the configuration evaluated.
	Candidate Candidate
	// Scenario names the workload.
	Scenario string
	// Report is the full cluster report the evaluation produced.
	Report fleet.Report
	// Objectives are the minimized metrics extracted from Report.
	Objectives Objectives
}

// SweepResult is a full grid sweep: every (candidate, scenario)
// report, candidate-major in grid order, plus per-candidate summaries
// aggregated across scenarios.
type SweepResult struct {
	// Profile and Seed identify the sweep configuration.
	Profile string
	Seed    uint64
	// Requests is the per-scenario synthesized request volume.
	Requests int
	// Scenarios lists the evaluated workloads in evaluation order.
	Scenarios []string
	// Results holds every evaluation, candidate-major then
	// scenario-minor — the exact enumeration order, independent of the
	// worker pool.
	Results []Result
	// Summaries aggregates each candidate across scenarios, in
	// candidate order.
	Summaries []Summary
}

// Sweep evaluates every candidate of the space on every scenario,
// concurrently across a bounded worker pool, and returns the grid
// with per-candidate aggregates. Output is deterministic: identical
// for any cfg.Workers, because evaluations are independent pure
// functions placed by index. Each scenario is compiled exactly once
// per sweep (or fetched through cfg.Planner) and shared read-only by
// every candidate's evaluation; candidates evaluated on the same
// scenario replay in groups from one synthesis (evaluateRange).
//
// Cancelling ctx abandons the sweep and returns ctx.Err() promptly:
// workers stop picking up evaluations and the running ones unwind
// through fleet.SimulateGroup's own cancellation polling. Evaluation
// failures under a live context aggregate into a *SweepError naming
// every failed grid index.
func Sweep(ctx context.Context, cfg Config, space Space) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	cands := space.Candidates()
	results, err := evaluateRange(ctx, cfg, cands, 0, len(cands)*len(cfg.Scenarios))
	if err != nil {
		return nil, err
	}
	return assemble(cfg, cands, results), nil
}

// GridSize returns the number of (candidate, scenario) evaluations
// the sweep of space under cfg enumerates — the index domain
// SweepRange partitions. Defaults are resolved exactly as Sweep
// resolves them, so a coordinator and its workers agree on the grid.
func (cfg Config) GridSize(space Space) int {
	cfg = cfg.withDefaults()
	return space.Size() * len(cfg.Scenarios)
}

// SweepRange evaluates the contiguous grid-index range [start, end)
// of the sweep grid — candidate-major, scenario-minor, the exact
// enumeration order Sweep uses — and returns those evaluations in
// index order. It is the shard primitive of distributed sweeps: the
// concatenation of disjoint covering ranges is element-for-element
// identical to Sweep's Results slice, for any worker counts, because
// every evaluation is an independent pure function of (cfg, space,
// index). cfg.OnResult, when set, receives the range's results in
// index order.
func SweepRange(ctx context.Context, cfg Config, space Space, start, end int) ([]Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	cands := space.Candidates()
	total := len(cands) * len(cfg.Scenarios)
	if start < 0 || end > total || start > end {
		return nil, fmt.Errorf("opt: range [%d,%d) outside the %d-evaluation grid", start, end, total)
	}
	return evaluateRange(ctx, cfg, cands, start, end)
}

// AssembleSweep folds a fully evaluated grid — results in grid order,
// as produced by Sweep or by concatenating SweepRange shards — into
// the SweepResult Sweep would have returned. It recomputes the
// per-candidate summaries from the results, so a coordinator that
// merges shard results byte-identically reconstructs the
// single-process sweep document.
func AssembleSweep(cfg Config, space Space, results []Result) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	cands := space.Candidates()
	if want := len(cands) * len(cfg.Scenarios); len(results) != want {
		return nil, fmt.Errorf("opt: assembling %d results, want the full %d-evaluation grid", len(results), want)
	}
	return assemble(cfg, cands, results), nil
}

// assemble builds the SweepResult for a complete, grid-ordered result
// slice. Callers have already resolved defaults and validated.
func assemble(cfg Config, cands []Candidate, results []Result) *SweepResult {
	sr := &SweepResult{
		Profile:  cfg.Profile.Name,
		Seed:     cfg.Seed,
		Requests: cfg.Scenario.Base.Requests,
		Results:  results,
	}
	for _, sc := range cfg.Scenarios {
		sr.Scenarios = append(sr.Scenarios, sc.Name)
	}
	for i, c := range cands {
		sr.Summaries = append(sr.Summaries,
			summarize(c, results[i*len(cfg.Scenarios):(i+1)*len(cfg.Scenarios)]))
	}
	return sr
}

// IndexedError is one failed evaluation, pinned to its grid index so
// a distributed coordinator can re-dispatch (or report) exactly the
// cells that failed rather than the whole sweep.
type IndexedError struct {
	// Index is the evaluation's grid index (candidate-major,
	// scenario-minor).
	Index int
	// Candidate and Scenario identify the cell.
	Candidate Candidate
	Scenario  string
	// Err is the underlying evaluation failure.
	Err error
}

// Error implements the error interface.
func (e *IndexedError) Error() string {
	return fmt.Sprintf("opt: grid index %d (%s on %s): %v", e.Index, e.Candidate.Key(), e.Scenario, e.Err)
}

// Unwrap returns the underlying evaluation failure.
func (e *IndexedError) Unwrap() error { return e.Err }

// SweepError aggregates every failed evaluation of a sweep or range.
// Before it existed the pool surfaced only the lowest failing index,
// which left a coordinator unable to tell one bad cell from a dead
// shard; now every failure arrives with its grid index. Unwrap
// returns the per-cell errors, so errors.Is/As reach through to the
// underlying causes.
type SweepError struct {
	// Failed lists the failed evaluations in ascending grid order.
	Failed []*IndexedError
}

// Error implements the error interface, naming every failed index.
func (e *SweepError) Error() string {
	if len(e.Failed) == 1 {
		return e.Failed[0].Error()
	}
	msg := fmt.Sprintf("opt: %d evaluations failed:", len(e.Failed))
	for _, f := range e.Failed {
		msg += "\n  " + f.Error()
	}
	return msg
}

// Unwrap returns the per-evaluation errors for errors.Is/As traversal.
func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f
	}
	return out
}

// Indices returns the failed grid indices in ascending order.
func (e *SweepError) Indices() []int {
	out := make([]int, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f.Index
	}
	return out
}

// compilePlans resolves every scenario of the sweep to its compiled
// plan, through cfg.Planner when set (the daemon's cache) or a direct
// Compile otherwise. Compilation happens once per scenario per sweep;
// evaluations share the immutable plans.
func compilePlans(cfg Config) ([]*scenario.Plan, error) {
	compile := cfg.Planner
	if compile == nil {
		compile = func(sc scenario.Scenario, scfg scenario.Config) (*scenario.Plan, error) {
			return sc.Compile(scfg)
		}
	}
	plans := make([]*scenario.Plan, len(cfg.Scenarios))
	for i, sc := range cfg.Scenarios {
		p, err := compile(sc, cfg.Scenario)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("opt: planner returned nil plan for scenario %s", sc.Name)
		}
		plans[i] = p
	}
	return plans, nil
}

// maxGroup caps how many grid slots of one scenario share each worker
// of a fleet.SimulateGroup replay, which synthesizes and scans the
// scenario once for the whole group instead of once per slot. Memory,
// not CPU, sets the cap: a sweep evaluation runs near the Go
// collector's 4 MB heap floor with 1–3 MB live, so each configuration
// live at once shows in the process's peak RSS. With pods sharing
// their metadata and histograms grown on demand, one configuration's
// live state is about 0.37 MB at 50k requests and 16 hosts, so two
// per worker fit where one evaluation used to. More raise the peak: in
// the repository benchmark's sweep workload on a 2-vCPU Xeon, groups
// of three per worker (run side by side, before groups were sharded)
// cut another 9% of the op time but read +6% median peak RSS against
// pairs, and +23% at worst.
const maxGroup = 2

// dispatch is how evaluateRange replays a range of n slots over nScen
// scenarios on a pool of workers: groups of up to size slots that
// share a scenario, each replayed over shards fleet workers, pool
// groups at a time. Every configuration of a group is live for the
// whole replay, so at most maxGroup × workers are live at once either
// way. When every scenario of the range has a slot per worker, one
// group at a time runs sharded over all of them: the scenario is
// synthesized once per maxGroup × workers slots. Otherwise the groups
// run side by side on one worker each, in pairs while pairing still
// leaves every worker a group: a lone configuration's sharded replay
// is bound by its one feeder, which synthesizes for all its shards.
func dispatch(n, nScen, workers int) (pool, shards, size int) {
	if n/nScen >= workers {
		return 1, workers, maxGroup * workers
	}
	return workers, 1, max(1, min(maxGroup, n/workers))
}

// groupSlots splits the slots [0, n) of the range starting at grid
// index start into groups of at most size slots that share a scenario,
// ordered by their lowest slot. The pool dispatches them in that
// order, so completions, and with them the emitted rows, still advance
// in grid order.
func groupSlots(start, n, nScen, size int) [][]int {
	var groups [][]int
	open := make([]int, nScen) // each scenario's group still filling, +1; 0 = none
	for k := 0; k < n; k++ {
		si := (start + k) % nScen
		g := open[si] - 1
		if g < 0 || len(groups[g]) == size {
			groups = append(groups, make([]int, 0, size))
			g = len(groups) - 1
			open[si] = g + 1
		}
		groups[g] = append(groups[g], k)
	}
	return groups
}

// evaluateRange runs the grid-index range [start, end) of the
// (candidate × scenario) job matrix over the bounded pool, in groups
// of slots that share a scenario (dispatch, groupSlots). Results are
// placed by grid index, so both the success and the failure path are
// deterministic in the worker count and the grouping. Completed
// results are handed to cfg.OnResult in index order behind a
// watermark, so row streaming is deterministic too. A cancelled ctx
// wins and returns ctx.Err(); evaluation failures under a live context
// aggregate into a *SweepError carrying every failed grid index.
func evaluateRange(ctx context.Context, cfg Config, cands []Candidate, start, end int) ([]Result, error) {
	plans, err := compilePlans(cfg)
	if err != nil {
		return nil, err
	}
	nScen := len(cfg.Scenarios)
	n := end - start
	results := make([]Result, n)
	errs := make([]error, n)

	// The emission watermark: slot k's result is emitted once every
	// slot < k has completed, so rows stream in grid order no matter
	// which worker finishes first.
	var emitMu sync.Mutex
	emitted := 0
	completed := make([]bool, n)
	emit := func(slots []int) {
		if cfg.OnResult == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		for _, k := range slots {
			completed[k] = true
		}
		for emitted < n && completed[emitted] {
			if errs[emitted] == nil {
				cfg.OnResult(results[emitted])
			}
			emitted++
		}
	}

	pool, shards, size := dispatch(n, nScen, cfg.Workers)
	jobCh := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slots := range jobCh {
				if err := ctx.Err(); err != nil {
					for _, k := range slots {
						errs[k] = err
					}
					continue
				}
				si := (start + slots[0]) % nScen
				evaluateGroup(ctx, cfg, cands, start, slots, shards, cfg.Scenarios[si], plans[si], results, errs)
				emit(slots)
			}
		}()
	}
	for _, slots := range groupSlots(start, n, nScen, size) {
		jobCh <- slots
	}
	close(jobCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var failed []*IndexedError
	for k, err := range errs {
		if err != nil {
			j := start + k
			failed = append(failed, &IndexedError{
				Index:     j,
				Candidate: cands[j/nScen],
				Scenario:  cfg.Scenarios[j%nScen].Name,
				Err:       err,
			})
		}
	}
	if len(failed) > 0 {
		return nil, &SweepError{Failed: failed}
	}
	return results, nil
}

// evaluateGroup runs one group of slots — one candidate each, all on
// scenario sc — through a single fleet.SimulateGroup replay of the
// compiled plan over shards workers, and writes each slot's result or
// error, extracting the objectives. Each candidate's configuration is
// built and validated on its own first, so a candidate that fails
// fails only its own slot.
func evaluateGroup(ctx context.Context, cfg Config, cands []Candidate, start int, slots []int, shards int, sc scenario.Scenario, plan *scenario.Plan, results []Result, errs []error) {
	nScen := len(cfg.Scenarios)
	cand := func(k int) Candidate { return cands[(start+k)/nScen] }
	fail := func(k int, err error) {
		errs[k] = fmt.Errorf("opt: %s on %s: %w", cand(k).Key(), sc.Name, err)
	}
	live := make([]int, 0, len(slots))
	fcs := make([]fleet.Config, 0, len(slots))
	for _, k := range slots {
		fc, err := cand(k).fleetConfig(cfg)
		if err != nil {
			errs[k] = err
			continue
		}
		if err := fc.Validate(); err != nil {
			fail(k, err)
			continue
		}
		fc.Workers = shards
		live = append(live, k)
		fcs = append(fcs, fc)
	}
	if len(fcs) == 0 {
		return
	}
	reps, err := fleet.SimulateGroup(ctx, fcs, plan.Source())
	var ge *fleet.GroupError
	if err != nil && !errors.As(err, &ge) {
		for _, k := range live {
			fail(k, err)
		}
		return
	}
	for i, k := range live {
		if ge != nil && ge.Errs[i] != nil {
			fail(k, ge.Errs[i])
			continue
		}
		// A row reports its candidate's own configuration, one worker
		// per evaluation: the group's shards are the pool's workers,
		// which never show in a sweep's output.
		rep := reps[i]
		rep.Scenario, rep.Workers = plan.Name(), 1
		results[k] = Result{
			Candidate:  cand(k),
			Scenario:   sc.Name,
			Report:     rep,
			Objectives: objectivesOf(rep),
		}
	}
}

// evalMean evaluates one candidate across every configured scenario
// (concurrently) and returns the mean objectives — the scalar
// refinement loop's fitness oracle. Row streaming is disabled: probe
// evaluations are not sweep rows.
func evalMean(ctx context.Context, cfg Config, c Candidate) (Objectives, float64, error) {
	cfg.OnResult = nil
	results, err := evaluateRange(ctx, cfg, []Candidate{c}, 0, len(cfg.Scenarios))
	if err != nil {
		return Objectives{}, 0, err
	}
	s := summarize(c, results)
	return s.Objectives, s.RejectedShare, nil
}
