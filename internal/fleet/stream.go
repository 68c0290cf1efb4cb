package fleet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"slscost/internal/trace"
)

// This file is the replay pipeline, the simulator's only one: a
// cluster replay over a trace.Source, with memory bounded by the pod
// count (placement metadata) and the live simulation state rather than
// the request count. Simulate is this pipeline over a materialized
// trace.
//
// The pipeline makes two passes over the source. Pass 1 builds
// per-pod placement metadata (flavor, first arrival, last turnaround
// end, request count — everything placeAll needs, and nothing
// per-request), then runs the sequential placement pass. Pass 2
// re-opens the source and hands each request, still in global arrival
// order, to its host. With several workers it routes requests into
// per-shard bounded channels, and shard workers advance their hosts'
// private clocks concurrently with generation, so host simulation
// overlaps trace synthesis instead of waiting for it. With one, it
// feeds the hosts inline, and can feed several configurations from
// one pull (SimulateGroup): the metadata the replay reads is
// read-only, so every configuration places its own pods over one copy. Per-host
// results are merged in host order, so the report is independent of
// the worker count and of the group.

const (
	// streamBatchSize is how many requests travel per channel send;
	// batching amortizes channel synchronization without meaningfully
	// adding buffered memory.
	streamBatchSize = 512
	// streamChannelDepth bounds each shard's queue of in-flight batches.
	// Together with streamBatchSize it caps the feeder/worker decoupling
	// at a few hundred kilobytes per shard, whatever the trace size.
	streamChannelDepth = 4
	// cancelCheckMask gates how often the streaming loops poll their
	// context: every (mask+1) requests. Cancellation latency is
	// therefore bounded to that many source pulls plus the in-flight
	// channel batches — the promptness contract the daemon's job
	// cancellation tests pin — at a per-request cost of one mask test.
	cancelCheckMask = 0x3ff
)

// streamItem is one routed request: the pod carries the placement
// decision, the request the work.
type streamItem struct {
	p *pod
	r trace.Request
}

// podIndex resolves request pod IDs to their slot in the scanned pod
// metadata, which is also the slot of every configuration's pod.
// Generator streams number pods densely (1..N), so the hot-path lookup
// is a flat slice index; sparse ID spaces (recorded traces) fall back
// to a map.
type podIndex struct {
	dense []int32
	base  int
	byID  map[int]int32
}

func buildPodIndex(metas []trace.PodMeta) podIndex {
	if len(metas) == 0 {
		return podIndex{byID: map[int]int32{}}
	}
	min, max := metas[0].ID, metas[0].ID
	for i := range metas {
		id := metas[i].ID
		if id < min {
			min = id
		}
		if id > max {
			max = id
		}
	}
	if max-min+1 == len(metas) {
		dense := make([]int32, len(metas))
		for i := range dense {
			dense[i] = -1
		}
		ok := true
		for i := range metas {
			slot := &dense[metas[i].ID-min]
			if *slot >= 0 {
				ok = false // duplicate ID: not actually dense
				break
			}
			*slot = int32(i)
		}
		if ok {
			return podIndex{dense: dense, base: min}
		}
	}
	byID := make(map[int]int32, len(metas))
	for i := range metas {
		byID[metas[i].ID] = int32(i)
	}
	return podIndex{byID: byID}
}

// get returns the pod slot of id, or -1 for a pod the scan never saw.
func (ix *podIndex) get(id int) int {
	if ix.dense != nil {
		i := id - ix.base
		if i < 0 || i >= len(ix.dense) {
			return -1
		}
		return int(ix.dense[i])
	}
	if slot, ok := ix.byID[id]; ok {
		return int(slot)
	}
	return -1
}

// scanPods streams the trace once and builds the placement metadata:
// every pod in order of first arrival, with its flavor, extent, and
// request count — but no per-request state. When the stream can
// enumerate its pods directly (trace.PodScanner — calibrated generator
// and scenario streams can, from a timing-only walk), the per-request
// scan is skipped entirely; the metadata is identical by the
// generator's and the re-timer's contracts, which
// TestPodScanMatchesRequestScan pins. Otherwise it enforces the
// replay's input contract: requests sorted by arrival, per-pod flavors
// constant. Cancelling ctx stops the scan within cancelCheckMask+1
// pulls.
func scanPods(ctx context.Context, s trace.Stream) ([]trace.PodMeta, int, error) {
	if sc, ok := s.(trace.PodScanner); ok {
		metas := sc.PodScan()
		total := 0
		for i := range metas {
			total += metas[i].NReqs
		}
		return metas, total, nil
	}
	return scanPodsSlow(ctx, s)
}

// scanPodsSlow is the per-request fallback scan for streams that cannot
// enumerate their pods, such as recorded traces.
func scanPodsSlow(ctx context.Context, s trace.Stream) ([]trace.PodMeta, int, error) {
	slot := make(map[int]int)
	var metas []trace.PodMeta
	var prev time.Duration
	n := 0
	next := trace.NextIntoFunc(s)
	var r trace.Request
	for next(&r) {
		if n&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if n > 0 && r.Start < prev {
			return nil, 0, fmt.Errorf("fleet: trace not sorted by arrival (request %d at %v after %v)",
				n, r.Start, prev)
		}
		prev = r.Start
		i, ok := slot[r.PodID]
		if !ok {
			i = len(metas)
			slot[r.PodID] = i
			metas = append(metas, trace.PodMeta{
				ID:    r.PodID,
				FnID:  r.FnID,
				VCPU:  r.AllocCPU,
				MemMB: r.AllocMemMB,
				Init:  r.InitDuration,
				First: r.Start,
				Last:  r.Start + r.Turnaround(),
			})
		}
		m := &metas[i]
		if r.AllocCPU != m.VCPU || r.AllocMemMB != m.MemMB {
			return nil, 0, fmt.Errorf("fleet: pod %d changes flavor mid-stream (request %d: %gx%gMB vs %gx%gMB)",
				r.PodID, n, r.AllocCPU, r.AllocMemMB, m.VCPU, m.MemMB)
		}
		if end := r.Start + r.Turnaround(); end > m.Last {
			m.Last = end
		}
		m.NReqs++
		n++
	}
	return metas, n, nil
}

// scanSource runs pass 1's scan: it opens src once and returns its pod
// metadata, the request count, and the index from pod IDs to metadata
// slots. An empty source is ErrEmptyTrace.
func scanSource(ctx context.Context, src trace.Source) ([]trace.PodMeta, int, podIndex, error) {
	s, err := src()
	if err != nil {
		return nil, 0, podIndex{}, err
	}
	metas, total, err := scanPods(ctx, s)
	if err != nil {
		return nil, 0, podIndex{}, err
	}
	if total == 0 {
		return nil, 0, podIndex{}, ErrEmptyTrace
	}
	return metas, total, buildPodIndex(metas), nil
}

// podMetas records the replay's share of the scanned metadata, slot
// for slot, once per source: every configuration's pods point into it.
func podMetas(metas []trace.PodMeta) []podMeta {
	shared := make([]podMeta, len(metas))
	for i := range metas {
		m := &metas[i]
		shared[i] = podMeta{fnID: m.FnID, vcpu: m.VCPU, initMs: m.Init}
	}
	return shared
}

// placement is one configuration's pass-1 outcome: a pod per metadata
// slot, each bound to a host or rejected, and the placement pass's
// statistics.
type placement struct {
	pods         []pod
	ps           placeStats
	rejectedReqs int
}

// place runs cfg's placement pass over the scanned pods, building its
// pods over shared, the podMetas of metas.
func place(cfg Config, metas []trace.PodMeta, shared []podMeta) placement {
	pods := make([]pod, len(metas))
	for i := range pods {
		pods[i] = pod{podMeta: &shared[i], host: -1}
	}
	_, ps := placeAll(cfg, metas, pods)
	pl := placement{pods: pods, ps: ps}
	for i := range pods {
		if pods[i].host < 0 {
			pl.rejectedReqs += metas[i].NReqs
		}
	}
	return pl
}

// SimulateStream replays a re-openable request stream through the
// cluster and returns the cluster-wide report, identical for any
// worker count, without ever holding the trace in memory. The source
// is opened twice (the placement scan and the replay must see the same
// sequence; for seeded generators reopening just re-derives the
// stream). With more than one worker, host workers simulate
// concurrently with the second pass, so trace synthesis and cluster
// replay overlap; with one, the replay is SimulateGroup's loop over
// the one configuration.
//
// Cancelling ctx makes the call return ctx.Err() promptly: both passes
// poll the context every cancelCheckMask+1 requests, so a cancelled
// simulation pulls at most that many further events from the source
// (plus the batches already in flight to the shard workers) before
// unwinding. The context never affects a completed report — only
// whether one is produced.
func SimulateStream(ctx context.Context, cfg Config, src trace.Source) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	if err := checkCall(ctx, src); err != nil {
		return Report{}, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		// Single worker: feed the sims inline. No goroutines, channels, or
		// batch copies — the feeder/worker handoff only buys overlap when
		// there is a second CPU to overlap onto, and the report is
		// worker-count independent either way.
		reps, errs, err := replayGroup(ctx, []Config{cfg}, src)
		if err != nil {
			return Report{}, err
		}
		return reps[0], errs[0]
	}

	// Pass 1: placement. Pod metadata is the only thing retained.
	metas, total, idx, err := scanSource(ctx, src)
	if err != nil {
		return Report{}, err
	}
	pl := place(cfg, metas, podMetas(metas))
	results := make([]hostResult, cfg.Hosts)

	// Pass 2: route the stream into per-shard bounded channels; workers
	// advance their hosts while the feeder is still generating.
	shards := make([]chan []streamItem, workers)
	for i := range shards {
		shards[i] = make(chan []streamItem, streamChannelDepth)
	}
	// Drained batches recycle through a free list that dies with this
	// call. A process-wide sync.Pool would keep them, and the *pod
	// pointers in their backing arrays, past the next GC: one stale
	// pointer into the shared pod array pins every pod, sandbox and
	// decider of a finished simulation. The list is a stack, so the
	// feeder refills the most recently drained batch, the one likeliest
	// still in cache.
	var freeMu sync.Mutex
	var free [][]streamItem

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sims := make(map[int]*hostSim)
			for batch := range shards[w] {
				for i := range batch {
					it := &batch[i]
					sim := sims[it.p.host]
					if sim == nil {
						sim = newHostSim(cfg, it.p.host)
						sim.seedFaults(it.p.host)
						sims[it.p.host] = sim
					}
					sim.feed(it.p, &it.r)
				}
				freeMu.Lock()
				free = append(free, batch[:0])
				freeMu.Unlock()
			}
			for h, sim := range sims {
				results[h] = sim.finish()
			}
		}(w)
	}
	abort := func(err error) (Report, error) {
		for _, ch := range shards {
			close(ch)
		}
		wg.Wait()
		return Report{}, err
	}

	s2, err := src()
	if err != nil {
		return abort(err)
	}
	batches := make([][]streamItem, workers)
	next := trace.NextIntoFunc(s2)
	seen := 0
	var r trace.Request
	for next(&r) {
		if seen&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return abort(err)
			}
		}
		seen++
		i := idx.get(r.PodID)
		if i < 0 {
			return abort(unknownPod(r.PodID))
		}
		p := &pl.pods[i]
		if p.host < 0 {
			continue
		}
		sh := p.host % workers
		b := batches[sh]
		if b == nil {
			freeMu.Lock()
			if n := len(free); n > 0 {
				b, free = free[n-1], free[:n-1]
			}
			freeMu.Unlock()
			if b == nil {
				b = make([]streamItem, 0, streamBatchSize)
			}
		}
		b = append(b, streamItem{p: p, r: r})
		if len(b) >= streamBatchSize {
			shards[sh] <- b
			b = nil
		}
		batches[sh] = b
	}
	if seen != total {
		return abort(countChanged(total, seen))
	}
	for sh, b := range batches {
		if len(b) > 0 {
			shards[sh] <- b
		}
		close(shards[sh])
	}
	wg.Wait()

	return mergeReport(cfg, workers, total, pl.ps, pl.rejectedReqs, results)
}

// SimulateGroup replays one source through several cluster
// configurations at once. It scans the source's pods once into
// metadata every configuration shares, places them once per
// configuration, then pulls each request once and feeds it to every
// configuration's hosts in turn, on the calling goroutine. Each report
// is byte-identical to SimulateStream(ctx, cfgs[i], src) at Workers=1:
// the configurations share the input, never state.
//
// Every configuration must pass Validate and set Workers to exactly 1;
// otherwise the call fails before opening the source. A failure that
// is a configuration's own — a cluster that served nothing — returns
// every report with a *GroupError naming it, and the other reports are
// valid. Any other error, such as a cancelled ctx (polled as by
// SimulateStream), fails the whole group.
func SimulateGroup(ctx context.Context, cfgs []Config, src trace.Source) ([]Report, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("fleet: empty configuration group")
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%w (group configuration %d)", err, i)
		}
		if cfg.Workers != 1 {
			return nil, fmt.Errorf("fleet: group configuration %d has %d workers; a group replays on its caller's goroutine, so each must have 1", i, cfg.Workers)
		}
	}
	if err := checkCall(ctx, src); err != nil {
		return nil, err
	}
	reps, errs, err := replayGroup(ctx, cfgs, src)
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return reps, &GroupError{Errs: errs}
		}
	}
	return reps, nil
}

// GroupError reports the configurations of a SimulateGroup call that
// failed on their own after the replay: Errs[i] is cfgs[i]'s failure,
// nil where its report is valid.
type GroupError struct {
	Errs []error
}

// Error implements the error interface, naming each failed
// configuration by its index in the group.
func (e *GroupError) Error() string {
	var b strings.Builder
	for i, err := range e.Errs {
		if err == nil {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%v (group configuration %d)", err, i)
	}
	return b.String()
}

// checkCall rejects the nil arguments a replay cannot start from.
func checkCall(ctx context.Context, src trace.Source) error {
	if src == nil {
		return fmt.Errorf("fleet: nil stream source")
	}
	if ctx == nil {
		return fmt.Errorf("fleet: nil context")
	}
	return nil
}

// replayGroup is the inline replay, the one loop behind SimulateGroup
// and SimulateStream's single-worker path. It returns each
// configuration's report and merge error; the error return is for
// failures of the shared input or the context.
func replayGroup(ctx context.Context, cfgs []Config, src trace.Source) ([]Report, []error, error) {
	// Pass 1: one scan, one placement per configuration. The full scan
	// is dead once placed; the replay keeps only the shared podMetas.
	metas, total, idx, err := scanSource(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	shared := podMetas(metas)
	pls := make([]placement, len(cfgs))
	sims := make([][]*hostSim, len(cfgs))
	for k, cfg := range cfgs {
		pls[k] = place(cfg, metas, shared)
		sims[k] = make([]*hostSim, cfg.Hosts)
	}

	// Pass 2: each request is pulled once and fed to every
	// configuration's host for its pod.
	s, err := src()
	if err != nil {
		return nil, nil, err
	}
	next := trace.NextIntoFunc(s)
	seen := 0
	var r trace.Request
	for next(&r) {
		if seen&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		seen++
		i := idx.get(r.PodID)
		if i < 0 {
			return nil, nil, unknownPod(r.PodID)
		}
		for k := range pls {
			p := &pls[k].pods[i]
			if p.host < 0 {
				continue
			}
			sim := sims[k][p.host]
			if sim == nil {
				sim = newHostSim(cfgs[k], p.host)
				sim.seedFaults(p.host)
				sims[k][p.host] = sim
			}
			sim.feed(p, &r)
		}
	}
	if seen != total {
		return nil, nil, countChanged(total, seen)
	}

	reps := make([]Report, len(cfgs))
	errs := make([]error, len(cfgs))
	for k, cfg := range cfgs {
		results := make([]hostResult, cfg.Hosts)
		for h, sim := range sims[k] {
			if sim != nil {
				results[h] = sim.finish()
			}
		}
		sims[k] = nil // let this configuration's hosts go before the next merge
		reps[k], errs[k] = mergeReport(cfg, 1, total, pls[k].ps, pls[k].rejectedReqs, results)
	}
	return reps, errs, nil
}

// unknownPod and countChanged are pass 2's errors for a source whose
// second opening differs from the first.
func unknownPod(id int) error {
	return fmt.Errorf("fleet: stream changed between passes (unknown pod %d)", id)
}

func countChanged(total, seen int) error {
	return fmt.Errorf("fleet: stream changed between passes (%d requests, then %d)", total, seen)
}
