package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// probeReps is how many times a layer probe repeats; it reports the
// fastest.
const probeReps = 3

// minPairs is the fewest op pairs a traced run times.
const minPairs = 3

// bestOf runs fn reps times and returns the shortest duration.
func bestOf(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// timed adapts a call to bestOf.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
}

// perReq divides a duration by a request count, in ns.
func perReq(d time.Duration, requests int) float64 {
	return float64(d.Nanoseconds()) / float64(max(requests, 1))
}

// traced collects what the traced run measures before it becomes
// metrics.
type traced struct {
	w       workload
	o       options
	tr      *tracer
	chk     *checker
	t       *target
	jobs    []*job // the cycle, prepared for in-process calls
	workers int

	plainS, tracedS []float64 // op latencies without and with spans
	counts          counts    // summed over the traced ops
	statuses        []jobStatus
	statusLat       []float64 // latency of each status's job, s
	statusPos       []int     // cycle position of each status's job

	drains      map[string]float64 // source key -> emission ns per request
	traceEmitNS float64
}

// measureTraced is the traced run, on the run seed's input alone. It
// times ops with and without spans (the difference is the tracing
// overhead), then takes the input through every layer, timing each entry
// point in a span. Every per-layer metric is measured on every workload:
// a layer the workload's ops never reach is measured on the same input
// (see README.md).
func measureTraced(ctx context.Context, w workload, o options, pins []string) (*result, error) {
	x := &traced{w: w, o: o, tr: newTracer(), chk: &checker{pins: pins}, workers: runtime.GOMAXPROCS(0), drains: map[string]float64{}}
	cycle := w.jobs(o.scale)
	t, setup, err := newTarget(ctx, w, cycle, []uint64{o.seed}, x.tr) // the run seed's input only
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer t.close()
	x.t = t
	warmUp(ctx, t, x.chk)
	if len(x.chk.pins) < len(cycle) {
		return nil, fmt.Errorf("warm-up failed: %v", x.chk.errs)
	}
	if w.daemon {
		for _, def := range cycle {
			j, err := prepareJob(def, o.seed, x.tr)
			if err != nil {
				return nil, err
			}
			x.jobs = append(x.jobs, j)
		}
	} else {
		x.jobs = t.jobs[0]
	}

	x.pairedOps(ctx, time.Now().Add(time.Duration(o.seconds)*time.Second/3))
	r := newResult(w, o, x.chk)
	steps := []func(context.Context, *result) error{x.traceLayer, x.scenarioLayer, x.fleetLayer, x.diffsimLayer, x.apiLayer}
	for _, step := range steps {
		if err := step(ctx, r); err != nil {
			return nil, err
		}
	}
	r.add("tracing.overhead", minOf(x.tracedS)/minOf(x.plainS)-1, "ratio")
	r.extra("setup_s", setup[0], "s")
	r.Attempted, r.Failed, r.Errors = x.chk.attempted, x.chk.failed, x.chk.errs
	path, err := x.tr.write(o.traceDir, w.name, o.seed)
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d op pairs; spans in %s", len(x.plainS), path))
	return r, nil
}

// pairedOps runs ops without spans, each followed by the same op with
// spans, until the deadline and at least minPairs times; the traced
// daemon jobs also read their timestamps.
func (x *traced) pairedOps(ctx context.Context, deadline time.Time) {
	n := len(x.t.cycle)
	for i := 0; i < minPairs || time.Now().Before(deadline); i++ {
		out, lat, _, err := x.t.op(ctx, i, false, nil)
		x.chk.check(i%n, out, err)
		x.plainS = append(x.plainS, lat.Seconds())

		x.tr.setOp(i)
		end := x.tr.begin("op")
		out, lat, st, err := x.t.op(ctx, i, true, x.tr)
		end()
		x.tr.setOp(-1)
		x.chk.check(i%n, out, err)
		x.tracedS = append(x.tracedS, lat.Seconds())
		x.counts.plus(out.counts)
		if x.w.daemon && err == nil {
			x.statuses = append(x.statuses, st)
			x.statusLat = append(x.statusLat, lat.Seconds())
			x.statusPos = append(x.statusPos, i%n)
		}
	}
}

// drainNS is the emission cost of src per request: one opening pulled
// to the end, best of probeReps, memoized per source.
func (x *traced) drainNS(src source, span string) (float64, error) {
	if ns, ok := x.drains[src.key]; ok {
		return ns, nil
	}
	d, err := bestOf(probeReps, func() (time.Duration, error) {
		end := x.tr.begin(span)
		n, err := drain(src.open)
		d := end()
		if err == nil && n != src.requests {
			err = fmt.Errorf("bench: drained %d requests, want %d", n, src.requests)
		}
		return d, err
	})
	if err != nil {
		return 0, err
	}
	x.drains[src.key] = perReq(d, src.requests)
	return x.drains[src.key], nil
}

// traceLayer calibrates, scans and emits each distinct generator
// config the workload's jobs start from.
func (x *traced) traceLayer(_ context.Context, r *result) error {
	var calS time.Duration
	var emitNS, scanNS float64
	pods, requests := 0, 0
	seen := map[string]bool{}
	for _, j := range x.jobs {
		src := generatorSource(j.base)
		if seen[src.key] {
			continue
		}
		seen[src.key] = true
		var n int
		d, err := bestOf(probeReps, timed(func() error { n = calibrate(j.base, x.tr); return nil }))
		if err != nil {
			return err
		}
		calS += d
		pods += n
		ns, err := x.drainNS(src, "trace.emit")
		if err != nil {
			return err
		}
		scan, err := bestOf(probeReps, timed(func() error { _, err := podScan(src.open, x.tr); return err }))
		if err != nil {
			return err
		}
		emitNS += ns * float64(src.requests)
		scanNS += float64(scan.Nanoseconds())
		requests += src.requests
	}
	r.add("trace.calibrate_s", calS.Seconds(), "s")
	x.traceEmitNS = emitNS / float64(requests)
	r.add("trace.emit_ns_per_req", x.traceEmitNS, "ns")
	r.add("trace.podscan_ns_per_req", scanNS/float64(requests), "ns")
	r.add("trace.pods", float64(pods), "count")
	return nil
}

// scenarioLayer compiles and emits each distinct scenario the jobs
// synthesize.
func (x *traced) scenarioLayer(_ context.Context, r *result) error {
	var compileS time.Duration
	var emitNS float64
	requests := 0
	seen := map[string]bool{}
	for _, j := range x.jobs {
		var srcs []source
		d, err := bestOf(probeReps, timed(func() (err error) { srcs, err = j.scenarioProbe(x.tr); return err }))
		if err != nil {
			return err
		}
		fresh := false
		for _, src := range srcs {
			if seen[src.key] {
				continue
			}
			fresh = true
			seen[src.key] = true
			ns, err := x.drainNS(src, "scenario.emit")
			if err != nil {
				return err
			}
			emitNS += ns * float64(src.requests)
			requests += src.requests
		}
		if fresh {
			compileS += d
		}
	}
	r.add("scenario.compile_s", compileS.Seconds(), "s")
	r.add("scenario.emit_ns_per_req", emitNS/float64(requests), "ns")
	r.add("scenario.retime_merge_ns_per_req", emitNS/float64(requests)-x.traceEmitNS, "ns")
	return nil
}

// fleetLayer times every evaluation at one worker, replays each over an
// in-memory recording of its stream (counting what the fleet asks of
// the stream), and builds the ledger: the layers' self times against
// the op at one worker.
func (x *traced) fleetLayer(ctx context.Context, r *result) error {
	perOp := float64(len(x.t.cycle))
	var evs []eval
	var evalS []float64
	for pos, j := range x.jobs {
		es := j.evals(ctx, x.chk.pins[pos], x.tr)
		reps := probeReps
		if len(es) > 1 {
			reps = 1 // a sweep times each of its many grid cells once
		}
		for i := range es {
			d, err := bestOf(reps, es[i].direct)
			if err != nil {
				return err
			}
			evs = append(evs, es[i]) // after direct, which completes a sweep cell
			evalS = append(evalS, d.Seconds())
		}
	}

	// The op at one worker and at GOMAXPROCS, in-process.
	opW1, opWN := sum(evalS)/perOp, minOf(x.plainS)
	var assembleS time.Duration
	if sweep := x.jobs[0]; len(sweep.results) > 0 {
		d, err := bestOf(probeReps, func() (time.Duration, error) { return x.runJob(ctx, 0, 1) })
		if err != nil {
			return err
		}
		opW1 = d.Seconds()
		if assembleS, err = bestOf(probeReps, func() (time.Duration, error) { return sweep.assemble(x.chk.pins[0], x.tr) }); err != nil {
			return err
		}
	}
	if x.w.daemon {
		var total time.Duration
		for pos := range x.jobs {
			d, err := bestOf(probeReps, func() (time.Duration, error) { return x.runJob(ctx, pos, x.workers) })
			if err != nil {
				return err
			}
			total += d
		}
		opWN = total.Seconds() / perOp
	}

	// Replays over recordings.
	var c counter
	var ledgerS, fleetS float64
	requests := 0
	var billNS, observeNS float64
	recorded := map[string]*recording{}
	for i := range evs {
		e := &evs[i]
		rec := recorded[e.src.key]
		if rec == nil {
			var err error
			if rec, err = record(e.src.open); err != nil {
				return err
			}
			recorded[e.src.key] = rec
		}
		var ec counter
		reps := probeReps
		if len(evs) > len(x.t.cycle) {
			reps = 1
		}
		engine, err := bestOf(reps, timed(func() error {
			ec = counter{}
			return e.replayOver(ctx, countSource(rec.source(), &ec, nil), x.tr)
		}))
		if err != nil {
			return err
		}
		fleet := engine
		if e.verify {
			if fleet, err = bestOf(reps, timed(func() error { return e.simulateOver(ctx, rec.source(), x.tr) })); err != nil {
				return err
			}
		}
		emit, err := x.drainNS(e.src, "emit")
		if err != nil {
			return err
		}
		var scan time.Duration
		if ec.scans > 0 {
			if scan, err = bestOf(probeReps, timed(func() error { _, err := podScan(e.src.open, x.tr); return err })); err != nil {
				return err
			}
		}
		ledgerS += engine.Seconds() + float64(ec.pulls)*emit*1e-9 + float64(ec.scans)*scan.Seconds()
		fleetS += fleet.Seconds()
		requests += e.src.requests
		c.opens += ec.opens
		c.pulls += ec.pulls
		c.scans += ec.scans
		if i == 0 {
			if billNS, observeNS, err = x.accounting(e, rec); err != nil {
				return err
			}
		}
	}
	ledgerS = ledgerS/perOp + assembleS.Seconds()

	q50, qMax := median(evalS), sorted(evalS)[len(evalS)-1]
	r.add("fleet.opens_per_op", float64(c.opens)/perOp, "count")
	r.add("fleet.pulls_per_request", float64(c.pulls)/float64(requests), "count")
	r.add("fleet.replay_ns_per_req", fleetS*1e9/float64(requests), "ns")
	r.add("fleet.eval_s_p50", q50, "s")
	r.add("fleet.eval_s_max", qMax, "s")
	r.add("fleet.parallel_speedup", opW1/opWN, "ratio")
	ops := float64(len(x.tracedS))
	r.add("fleet.served", float64(x.counts.Served)/ops, "count")
	r.add("fleet.cold_starts", float64(x.counts.ColdStarts)/ops, "count")
	r.add("billing.bill_ns_per_req", billNS, "ns")
	r.add("stats.loghist_observe_ns", observeNS, "ns")
	r.add("ledger.gap", math.Abs(ledgerS-opW1)/opW1, "ratio")
	r.add("ledger.pool_efficiency", sum(evalS)/perOp/(opWN*float64(x.workers)), "ratio")
	r.extra("ledger.sum_s", ledgerS, "s")
	r.extra("ledger.op_workers1_s", opW1, "s")
	r.extra("fleet.scans_per_op", float64(c.scans)/perOp, "count")
	r.extra("fleet.rejected_requests", float64(x.counts.Rejected)/ops, "count")
	r.extra("fleet.killed_requests", float64(x.counts.Killed)/ops, "count")
	r.extra("fleet.deferred_requests", float64(x.counts.Deferred)/ops, "count")
	if assembleS > 0 {
		r.extra("opt.assemble_ms", assembleS.Seconds()*1e3, "ms")
	}
	return nil
}

// runJob times one in-process run of the job at cycle position pos at
// the given worker count and checks it reproduced the pinned output.
func (x *traced) runJob(ctx context.Context, pos, workers int) (time.Duration, error) {
	j := x.jobs[pos]
	end := x.tr.begin("job")
	o, err := j.run(ctx, workers, x.tr, nil)
	d := end()
	if err == nil && o.digest != x.chk.pins[pos] {
		err = fmt.Errorf("bench: in-process %s at %d workers changed its output", j.def.method, workers)
	}
	return d, err
}

// accounting times billing and latency-histogram accounting over the
// recorded requests of e.
func (x *traced) accounting(e *eval, rec *recording) (billNS, observeNS float64, err error) {
	m, err := e.billingModel()
	if err != nil {
		return 0, 0, err
	}
	bill, err := bestOf(probeReps, timed(func() error { billAll(m, rec.reqs, x.tr); return nil }))
	if err != nil {
		return 0, 0, err
	}
	obs, err := bestOf(probeReps, timed(func() error { observeAll(rec.reqs, x.tr); return nil }))
	return perReq(bill, len(rec.reqs)), perReq(obs, len(rec.reqs)), err
}

// diffsimLayer runs the differential oracle over one evaluation: the
// workload's first verify job, or else its first evaluation.
func (x *traced) diffsimLayer(ctx context.Context, r *result) error {
	pos := 0
	for i, j := range x.jobs {
		if j.def.method == methodVerify {
			pos = i
			break
		}
	}
	e := &x.jobs[pos].evals(ctx, x.chk.pins[pos], x.tr)[0]
	if _, err := e.direct(); err != nil { // a sweep cell learns its configuration here
		return err
	}
	var delta float64
	d, err := bestOf(1, timed(func() (err error) { delta, err = e.verifyProbe(ctx, x.tr); return err }))
	if err != nil {
		return err
	}
	r.add("diffsim.verify_ns_per_req", perReq(d, e.src.requests), "ns")
	r.add("diffsim.max_rel_delta", delta, "ratio")
	return nil
}

// apiLayer reads job timestamps from the daemon. The daemon workload
// uses its own traced jobs; the others submit their first job a few
// times to a fresh in-process daemon, which must reproduce the
// in-process output.
func (x *traced) apiLayer(ctx context.Context, r *result) error {
	statuses, lat, pos := x.statuses, x.statusLat, x.statusPos
	if !x.w.daemon {
		const probeJobs = 3
		d, err := startDaemon(ctx, x.workers)
		if err != nil {
			return err
		}
		defer d.close()
		lat = nil
		for i := 0; i < probeJobs; i++ {
			o, l, st, err := d.submit(ctx, x.t.cycle[0], x.o.seed, true, x.tr)
			x.chk.check(0, o, err)
			if err != nil {
				continue
			}
			statuses, lat, pos = append(statuses, st), append(lat, l.Seconds()), append(pos, 0)
		}
	}
	if len(statuses) == 0 {
		return fmt.Errorf("bench: no daemon job finished")
	}
	var wait, run, overhead, events []float64
	runBy := map[string][]float64{}
	hits, lookups := 0, 0
	for i, st := range statuses {
		wait = append(wait, ms(st.queueWait))
		run = append(run, ms(st.run))
		overhead = append(overhead, lat[i]*1e3-ms(st.run))
		events = append(events, float64(st.events))
		hits += st.hits
		lookups += st.hits + st.misses
		m := x.t.cycle[pos[i]].method
		runBy[m] = append(runBy[m], ms(st.run))
	}
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	r.add("jobs.queue_wait_ms_p50", median(wait), "ms")
	r.add("jobs.run_ms_p50", median(run), "ms")
	r.add("api.overhead_ms_p50", median(overhead), "ms")
	r.add("api.plan_cache_hit_ratio", ratio, "ratio")
	r.add("api.events_per_job", median(events), "count")
	if x.w.daemon {
		r.extra("jobs.run_ms_p50.simulate", median(runBy[methodSimulate]), "ms")
		r.extra("jobs.run_ms_p50.verify", median(runBy[methodVerify]), "ms")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func minOf(xs []float64) float64 { return sorted(xs)[0] }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
