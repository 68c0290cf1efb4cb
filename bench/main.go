// Command bench is the repository's benchmark. One process runs one
// workload: it builds the workload's inputs from the seed, runs one
// untimed pass, times ops for -seconds, checks every op's output
// against a pinned digest, and prints each metric as "name value unit"
// followed by a one-line JSON result. See README.md.
//
//	bash bench/run.sh -workload replay-raw [-seed N] [-seconds S] [-trace 0|1|DIR] [-out FILE]
//	bash bench/run.sh -compare A.jsonl B.jsonl [...]
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed digests.json
var pinnedJSON []byte

// defaultTraceDir is where -trace 1 writes spans, inside the checkout.
const defaultTraceDir = ".bench_out"

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Scale     float64  `json:"scale"`
	Traced    bool     `json:"traced"`
	Machine   machine  `json:"machine"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics are the ones BENCHMARK.json names for this kind of run;
	// Extras are printed and stored but not compared.
	Metrics []metric  `json:"metrics"`
	Extras  []metric  `json:"extras,omitempty"`
	Notes   []string  `json:"notes,omitempty"`
	OpS     []float64 `json:"op_s,omitempty"`     // timed op wall times
	OpCPU   []float64 `json:"op_cpu_s,omitempty"` // and CPU times
	OpScale []float64 `json:"op_scale,omitempty"` // reference seconds per wall second, per op
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *result) extra(name string, v float64, unit string) {
	r.Extras = append(r.Extras, metric{name, v, unit})
}

// options are a run's settings.
type options struct {
	seed     uint64
	seconds  int
	scale    float64
	traceDir string // "" for an untraced run
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: replay-raw, replay-scenario, sweep, daemon")
	seed := fs.Uint64("seed", defaultSeed, "generator and simulation seed")
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	scale := fs.Float64("scale", 1, "request-count multiplier (digests are pinned at 1)")
	traceArg := fs.String("trace", "0", "0: untraced run; 1: traced run, spans to "+defaultTraceDir+"; else the span directory")
	out := fs.String("out", "", "append the run's result as one JSON line to this file")
	pin := fs.Bool("pin", false, "print the workload's output digests at the default seed and scale, for digests.json")
	compare := fs.Bool("compare", false, "compare result sets given as arguments")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(*spec, fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || *scale <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -scale positive")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, scale: *scale}
	switch *traceArg {
	case "0", "":
	case "1":
		o.traceDir = defaultTraceDir
	default:
		o.traceDir = *traceArg
	}
	ctx := context.Background()
	if *pin {
		return printPins(ctx, w, stdout, stderr)
	}

	pins, err := pinsFor(w.name, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var res *result
	if o.traceDir == "" {
		res, err = measure(ctx, w, o, pins)
	} else {
		res, err = measureTraced(ctx, w, o, pins)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "bench: op failed:", e)
	}
	if *out != "" {
		if err := appendJSONLine(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printResult(stdout, res)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printResult writes every metric as "name value unit", the notes, and
// last the one-line JSON summary.
func printResult(w io.Writer, r *result) {
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Extras...) {
		fmt.Fprintf(w, "%s %v %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		summary.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		// Only a NaN or infinite metric gets here.
		fmt.Fprintf(w, "{\"correct\":false,\"attempted\":%d,\"failed\":%d,\"metrics\":{}}\n", r.Attempted, r.Attempted)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pinsFor returns the digests a run's ops must reproduce, one per slot
// in slot order. Off the default seed or scale there are none: each op
// then has to match the first op in its slot.
func pinsFor(name string, o options) ([]string, error) {
	if o.seed != defaultSeed || o.scale != 1 {
		return nil, nil
	}
	var all map[string][]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if len(all[name]) == 0 {
		return nil, fmt.Errorf("digests.json pins nothing for %s; see README.md on re-pinning", name)
	}
	return all[name], nil
}

// checker counts ops and checks each one's digest against its pin.
type checker struct {
	pins      []string
	attempted int
	failed    int
	errs      []string
}

// check records the outcome of an op in the given slot. Without a pin
// for the slot, the first successful op there sets it.
func (c *checker) check(slot int, o outcome, err error) {
	c.attempted++
	if err == nil && slot == len(c.pins) {
		c.pins = append(c.pins, o.digest)
	}
	if err == nil && slot >= len(c.pins) {
		err = fmt.Errorf("no reference output for slot %d", slot)
	}
	if err == nil && o.digest != c.pins[slot] {
		err = fmt.Errorf("digest %.12s, want %.12s", o.digest, c.pins[slot])
	}
	if err != nil {
		c.failed++
		if len(c.errs) < 10 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// target is what a workload's ops run against: each input's prepared
// jobs, called in-process, or the daemon they are submitted to. Ops run
// the cycle on the first input, then on the next, round after round;
// each (input, cycle position) pair is a slot.
type target struct {
	cycle []jobDef
	seeds []uint64 // one per input
	jobs  [][]*job // per input, in cycle order; in-process workloads
	d     *daemon
}

// newTarget builds a target over the given inputs and returns each
// input's set-up time: preparing its jobs, or for the daemon, whose jobs
// build their own inputs, starting the server.
func newTarget(ctx context.Context, w workload, cycle []jobDef, seeds []uint64, tr *tracer) (*target, []float64, error) {
	t := &target{cycle: cycle, seeds: seeds}
	var times []float64
	if w.daemon {
		end := tr.begin("setup")
		d, err := startDaemon(ctx, runtime.GOMAXPROCS(0))
		times = append(times, end().Seconds())
		t.d = d
		return t, times, err
	}
	for _, seed := range seeds {
		end := tr.begin("setup")
		var jobs []*job
		for _, def := range cycle {
			j, err := prepareJob(def, seed, tr)
			if err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, j)
		}
		times = append(times, end().Seconds())
		t.jobs = append(t.jobs, jobs)
	}
	return t, times, nil
}

func (t *target) close() {
	if t != nil && t.d != nil {
		t.d.close()
	}
}

// slots is how many (input, cycle position) pairs the ops rotate over.
func (t *target) slots() int { return len(t.seeds) * len(t.cycle) }

// op runs op i, the job of i's slot, at GOMAXPROCS workers. It returns
// the op's latency and, for daemon jobs when status is set, the job's
// timestamps.
func (t *target) op(ctx context.Context, i int, status bool, tr *tracer) (outcome, time.Duration, jobStatus, error) {
	slot := i % t.slots()
	in, pos := slot/len(t.cycle), slot%len(t.cycle)
	if t.d != nil {
		return t.d.submit(ctx, t.cycle[pos], t.seeds[in], status, tr)
	}
	var c *counter
	if tr != nil {
		c = &counter{} // the wrapper gives the source's openings and pod scans their spans
	}
	start := time.Now()
	o, err := t.jobs[in][pos].run(ctx, runtime.GOMAXPROCS(0), tr, c)
	return o, time.Since(start), jobStatus{}, err
}

// sampleSetUp repeats the set-up of one input, the inputs in turn,
// discarding what it builds, at least once and until budget has passed,
// and appends each time to ts.
func sampleSetUp(ctx context.Context, w workload, cycle []jobDef, seeds []uint64, budget time.Duration, ts []float64) ([]float64, error) {
	begin := time.Now()
	for {
		t, d, err := newTarget(ctx, w, cycle, seeds[len(ts)%len(seeds):][:1], nil)
		t.close()
		if err != nil {
			return ts, err
		}
		ts = append(ts, d...)
		if time.Since(begin) >= budget {
			return ts, nil
		}
	}
}

// warmUp runs the cycle once, untimed, on the first input; its outputs
// set those slots' pins when none are given.
func warmUp(ctx context.Context, t *target, chk *checker) {
	for i := range t.cycle {
		o, _, _, err := t.op(ctx, i, false, nil)
		chk.check(i, o, err)
	}
}

// setupShare is how much set-up time a run samples after each op, as a
// share of the op's time; it samples at least one set-up per op.
const setupShare = 0.05

// measure is the untraced run: every end-to-end metric, from the timed
// ops' medians, tail and totals. The timed phase lasts o.seconds, set-up
// samples included, and at least one round over the slots. Timings are
// in reference seconds (speed.go); the wall-clock values are extras.
//
// Each timed op starts from a collected heap whose free memory has gone
// back to the operating system, with the resident-set high-water mark
// reset, so the op's allocation and peak are its own. Set-up is sampled
// between the ops, so its median sees the same machine the ops see; what
// those set-ups build is discarded.
func measure(ctx context.Context, w workload, o options, pins []string) (*result, error) {
	cycle := w.jobs(o.scale)
	seeds := w.seeds(o.seed)
	g := newGauge(runtime.GOMAXPROCS(0))
	if err := g.sample(); err != nil {
		return nil, err
	}
	t, setupS, err := newTarget(ctx, w, cycle, seeds, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer t.close()
	setupAt := make([]int, len(setupS)) // interval 0 holds the first set-ups and the warm-up
	chk := &checker{pins: pins}
	warmUp(ctx, t, chk)
	if err := g.sample(); err != nil {
		return nil, err
	}

	var notes []string
	resetErr := resetPeakRSS()
	if resetErr != nil {
		notes = append(notes, "peak_rss_mb is the whole run's: "+resetErr.Error())
	}
	slots := t.slots()
	// Per slot: bytes allocated and requests simulated, summed over its
	// ops, and its op count.
	allocs, requests, ops := make([]float64, slots), make([]float64, slots), make([]float64, slots)
	var opS, opCPU, nsReq, cpuReq, peaks []float64
	var opAt []int
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	n := 0
	for ; n < slots || time.Now().Before(deadline); n++ {
		k, err := g.mark()
		if err != nil {
			return nil, err
		}
		debug.FreeOSMemory()
		if resetErr == nil {
			_ = resetPeakRSS() // it worked above; a failure only widens this op's peak
		}
		alloc0, cpu0 := heapAllocs(), cpuTime()
		out, lat, _, err := t.op(ctx, n, false, nil)
		cpu := cpuTime() - cpu0
		slot := n % slots
		allocs[slot] += float64(heapAllocs() - alloc0)
		peak, perr := peakRSSMB()
		if perr != nil {
			return nil, perr
		}
		chk.check(slot, out, err)
		opS = append(opS, lat.Seconds())
		opCPU = append(opCPU, cpu.Seconds())
		nsReq = append(nsReq, perReq(lat, out.requests))
		cpuReq = append(cpuReq, perReq(cpu, out.requests))
		peaks = append(peaks, peak)
		opAt = append(opAt, k)
		requests[slot] += float64(out.requests)
		ops[slot]++
		budget := time.Duration(setupShare * float64(lat))
		if setupS, err = sampleSetUp(ctx, w, cycle, seeds, budget, setupS); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for len(setupAt) < len(setupS) {
			setupAt = append(setupAt, k)
		}
	}
	if err := g.sample(); err != nil { // closes the last interval
		return nil, err
	}
	// Allocation per request weighs every slot as one round over the
	// slots would, however many ops each one got before the deadline.
	var roundAlloc, roundRequests float64
	for s := range allocs {
		roundAlloc += allocs[s] / ops[s]
		roundRequests += requests[s] / ops[s]
	}

	r := newResult(w, o, chk)
	r.OpS, r.OpCPU = opS, opCPU
	refOpS := g.scale(opS, opAt)
	for i := range opS {
		r.OpScale = append(r.OpScale, refOpS[i]/opS[i])
	}
	q, tailS, beyond := tail(refOpS)
	r.add("setup_s", median(g.scale(setupS, setupAt)), "s")
	r.add("op_s_p50", median(refOpS), "s")
	r.add("op_s_p95", tailS, "s")
	r.add("ns_per_request", median(g.scale(nsReq, opAt)), "ns")
	r.add("cpu_ns_per_request", median(g.scale(cpuReq, opAt)), "ns")
	r.add("alloc_bytes_per_request", roundAlloc/max(roundRequests, 1), "B")
	r.add("peak_rss_mb", sorted(peaks)[len(peaks)-1], "MB")
	r.add("jobs_per_s", float64(n)/sum(refOpS), "1/s")
	r.extra("wall.setup_s", median(setupS), "s")
	r.extra("wall.op_s_p50", median(opS), "s")
	r.extra("wall.ns_per_request", median(nsReq), "ns")
	r.extra("wall.cpu_ns_per_request", median(cpuReq), "ns")
	r.extra("wall.jobs_per_s", float64(n)/sum(opS), "1/s")
	r.extra("ref_s_p50", median(g.times), "s")
	r.extra("op_s_min", sorted(refOpS)[0], "s")
	r.extra("failed_frac", float64(chk.failed)/float64(chk.attempted), "ratio")
	r.Notes = append([]string{fmt.Sprintf("%d timed ops over %d inputs; op_s_p95 is p%d with %d beyond it; %d set-ups; %d workers; %d reference samples",
		n, len(seeds), q, beyond, len(setupS), runtime.GOMAXPROCS(0), len(g.times))}, notes...)
	return r, nil
}

func newResult(w workload, o options, chk *checker) *result {
	return &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Traced: o.traceDir != "", Machine: thisMachine(),
		Attempted: chk.attempted, Failed: chk.failed, Errors: chk.errs,
	}
}

// printPins prints the digests of one op in every slot at the default
// seed and scale, in the form digests.json holds them.
func printPins(ctx context.Context, w workload, stdout, stderr io.Writer) int {
	t, _, err := newTarget(ctx, w, w.jobs(1), w.seeds(defaultSeed), nil)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer t.close()
	chk := &checker{}
	for i := 0; i < t.slots(); i++ {
		o, _, _, err := t.op(ctx, i, false, nil)
		chk.check(i, o, err)
	}
	if chk.failed > 0 {
		fmt.Fprintln(stderr, "bench:", strings.Join(chk.errs, "; "))
		return 1
	}
	b, err := json.Marshal(map[string][]string{w.name: chk.pins})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
