package fleet

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slscost/internal/trace"
)

// This file is the replay pipeline, the simulator's only one: a
// cluster replay over a trace.Source, with memory bounded by the pod
// count (placement metadata) and the live simulation state rather than
// the request count. Simulate is this pipeline over a materialized
// trace.
//
// The pipeline makes two passes over the source, for one configuration
// or a group of them (SimulateGroup) alike. Pass 1 builds per-pod
// placement metadata (flavor, first arrival, last turnaround end,
// request count — everything placeAll needs, and nothing per-request),
// then runs each configuration's sequential placement pass. The
// metadata the replay reads is read-only, so every configuration
// places its own pods over one copy, and a pod is known by its slot
// in it. Pass 2 re-opens the source and hands each request, still in
// global arrival order, to its host in every configuration. With
// several workers it routes (pod slot, request) items into per-shard
// bounded channels, and shard workers advance the hosts they own
// concurrently with generation, so host simulation overlaps trace
// synthesis instead of waiting for it. With one, it feeds the hosts
// inline. Per-host results are merged in host order, so each report
// is independent of the worker count and of the group.

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

// streamItem is one routed request: its pod's slot, which indexes
// every configuration's pods, and the request.
type streamItem struct {
	slot int32
	r    trace.Request
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
// pulls. pulled reports whether the scan read requests from s.
func scanPods(ctx context.Context, s trace.Stream) (metas []trace.PodMeta, total int, pulled bool, err error) {
	if sc, ok := s.(trace.PodScanner); ok {
		metas = sc.PodScan()
		for i := range metas {
			total += metas[i].NReqs
		}
		return metas, total, false, nil
	}
	metas, total, err = scanPodsSlow(ctx, s)
	return metas, total, true, err
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
	metas, total, _, err := scanPods(ctx, s)
	if err != nil {
		return nil, 0, podIndex{}, err
	}
	if total == 0 {
		return nil, 0, podIndex{}, ErrEmptyTrace
	}
	return metas, total, buildPodIndex(metas), nil
}

// podTable is the replay's share of a source's scanned metadata,
// recorded once per source (podMetas) and read by every configuration
// replaying it: a podMeta per pod slot, the distinct flavors the pods'
// flavor slots index, and the function IDs their function slots
// index, in ascending order.
type podTable struct {
	pods    []podMeta
	flavors []flavorKey
	fnIDs   []int
}

// flavorKey is a pod flavor as the trace records it.
type flavorKey struct{ vcpu, memMB float64 }

// podMetas records the replay's share of the scanned metadata, slot
// for slot, once per source: every configuration's pods point into
// it. Function slots ascend with function ID, so a host that walks
// its per-function state by slot walks it in function-ID order.
func podMetas(metas []trace.PodMeta) *podTable {
	t := &podTable{pods: make([]podMeta, len(metas))}
	fnSlot := make(map[int]int32)
	for i := range metas {
		if _, ok := fnSlot[metas[i].FnID]; !ok {
			fnSlot[metas[i].FnID] = 0
			t.fnIDs = append(t.fnIDs, metas[i].FnID)
		}
	}
	slices.Sort(t.fnIDs)
	for slot, id := range t.fnIDs {
		fnSlot[id] = int32(slot)
	}
	// A function's pods usually share its flavor, so each function
	// remembers its last pod's flavor slot and the map is consulted
	// only when a pod's flavor differs from it.
	lastFlavor := make([]int32, len(t.fnIDs))
	for i := range lastFlavor {
		lastFlavor[i] = -1
	}
	flavorSlot := make(map[flavorKey]int32)
	for i := range metas {
		m := &metas[i]
		fn := fnSlot[m.FnID]
		k := flavorKey{m.VCPU, m.MemMB}
		f := lastFlavor[fn]
		if f < 0 || t.flavors[f] != k {
			var ok bool
			if f, ok = flavorSlot[k]; !ok {
				f = int32(len(t.flavors))
				flavorSlot[k] = f
				t.flavors = append(t.flavors, k)
			}
			lastFlavor[fn] = f
		}
		t.pods[i] = podMeta{vcpu: m.VCPU, initMs: m.Init, fnSlot: fn, flavor: f}
	}
	return t
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
// pods over tab, the podMetas of metas.
func place(cfg Config, metas []trace.PodMeta, tab *podTable) placement {
	pods := make([]pod, len(metas))
	for i := range pods {
		pods[i] = pod{podMeta: &tab.pods[i], host: -1}
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
// worker count, without ever holding the trace in memory. It is
// SimulateGroup's replay with one configuration: the source is opened
// twice (the placement scan and the replay must see the same sequence;
// for seeded generators reopening just re-derives the stream), and with
// more than one worker the hosts simulate on shard goroutines
// concurrently with the second pass, so trace synthesis and cluster
// replay overlap.
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
	reps, errs, err := replay(ctx, []Config{cfg}, src)
	if err != nil {
		return Report{}, err
	}
	return reps[0], errs[0]
}

// SimulateGroup replays one source through several cluster
// configurations at once. It scans the source's pods once into
// metadata every configuration shares, places them once per
// configuration, then pulls each request once and hands it to every
// configuration's host for its pod. The configurations' (configuration,
// host) pairs are spread over Workers shards, as one configuration's
// hosts are by SimulateStream. Each report is byte-identical to
// SimulateStream(ctx, cfgs[i], src): the configurations share the
// input, never state.
//
// Every configuration must pass Validate, and all must set the same
// Workers, the group's shard count (zero means GOMAXPROCS); otherwise
// the call fails before opening the source. A failure that is a
// configuration's own — a cluster that served nothing — returns every
// report with a *GroupError naming it, and the other reports are
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
		if cfg.Workers != cfgs[0].Workers {
			return nil, fmt.Errorf("fleet: group configuration %d has %d workers, configuration 0 has %d; a group's configurations share its shards", i, cfg.Workers, cfgs[0].Workers)
		}
	}
	if err := checkCall(ctx, src); err != nil {
		return nil, err
	}
	reps, errs, err := replay(ctx, cfgs, src)
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

// member is one configuration's share of a replay: its placement, its
// compiled host configuration, and its hosts. Host h's sim and result
// are written only by the shard that owns (member, h).
type member struct {
	cfg Config
	placement
	hc      *hostCfg
	sims    []*hostSim
	results []hostResult
}

// replayer is one replay's state: the members, the shard that owns
// each of their pods, and with more than one shard, a bounded channel
// of batches into each shard goroutine.
type replayer struct {
	ms     []member
	shards int
	// owner[slot*len(ms)+k] is the shard that owns the host of member
	// k's pod at slot, or -1 where k rejected the pod. It is fixed at
	// placement and slot-major, so routing a request reads one line
	// nobody writes during the replay, not every member's live pod.
	owner []int32
	in    []chan []streamItem
	wg    sync.WaitGroup
	// stop tells the shards that the replay failed: they drop what is
	// still queued and finish no host.
	stop atomic.Bool
}

// batchPool recycles the hand-off's drained batches across replays.
// Batches hold pod slots and requests, no pointers, so a pooled batch
// pins nothing of the replay that filled it.
var batchPool = sync.Pool{New: func() any { return new([streamBatchSize]streamItem) }}

// replay is the replay loop behind SimulateStream and SimulateGroup,
// for one configuration or many, at any worker count. Pass 1 scans the
// source once and places it once per configuration. Pass 2 pulls each
// request once and hands it, with its pod slot, to each shard that
// owns its pod's host in some configuration; every shard feeds the
// request to those of its hosts. Shard w owns host h of configuration
// k when (k+h) mod shards is w, fixed at placement in a slot-major
// table, so the feeder routes a request with one read of one line.
// With one shard the feeder places and feeds the hosts itself: no
// goroutines, channels or batch copies, since the hand-off only buys
// overlap when there is a second CPU to overlap onto. With several,
// each shard goroutine first places every shards-th configuration, so
// a group's placements run side by side too. replay returns each
// configuration's report and merge error; the error return is for
// failures of the shared input or the context.
func replay(ctx context.Context, cfgs []Config, src trace.Source) ([]Report, []error, error) {
	workers := cfgs[0].Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pairs := 0 // (configuration, host) pairs, the most shards that get work
	for _, cfg := range cfgs {
		pairs += cfg.Hosts
	}
	// Pass 1: one scan, one placement per configuration. The full scan
	// is dead once placed; the replay keeps only the shared podMetas.
	metas, total, idx, err := scanSource(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	tab := podMetas(metas)
	rp := &replayer{
		ms:     make([]member, len(cfgs)),
		shards: min(workers, pairs),
		owner:  make([]int32, len(metas)*len(cfgs)),
	}
	placeFrom := func(k int) {
		for ; k < len(cfgs); k += rp.shards {
			rp.placeMember(k, cfgs[k], metas, tab)
		}
	}
	inline := rp.shards == 1
	if inline {
		placeFrom(0)
	} else {
		var placed sync.WaitGroup
		placed.Add(rp.shards)
		rp.in = make([]chan []streamItem, rp.shards)
		for w := range rp.in {
			rp.in[w] = make(chan []streamItem, streamChannelDepth)
			rp.wg.Add(1)
			go rp.shard(int32(w), func() {
				placeFrom(w)
				placed.Done()
			})
		}
		placed.Wait()
	}

	// Pass 2.
	s, err := src()
	if err != nil {
		return rp.abort(err)
	}
	g := len(cfgs)
	batches := make([][]streamItem, rp.shards)
	routed := make([]int, rp.shards) // the last request routed to each shard, by seen
	next := trace.NextIntoFunc(s)
	seen := 0
	var r trace.Request
	for next(&r) {
		if seen&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return rp.abort(err)
			}
		}
		seen++
		i := idx.get(r.PodID)
		if i < 0 {
			return rp.abort(unknownPod(r.PodID))
		}
		if inline {
			rp.feed(0, i, &r)
			continue
		}
		for _, sh := range rp.owner[i*g : i*g+g] {
			if sh < 0 || routed[sh] == seen {
				continue
			}
			routed[sh] = seen
			b := batches[sh]
			if b == nil {
				b = batchPool.Get().(*[streamBatchSize]streamItem)[:0]
			}
			n := len(b)
			b = b[:n+1]
			b[n].slot, b[n].r = int32(i), r
			if n+1 == streamBatchSize {
				rp.in[sh] <- b
				b = nil
			}
			batches[sh] = b
		}
	}
	if seen != total {
		return rp.abort(countChanged(total, seen))
	}
	for sh, b := range batches {
		if len(b) > 0 {
			rp.in[sh] <- b
		}
	}
	if inline {
		rp.finish(0)
	}
	rp.close()

	reps := make([]Report, len(cfgs))
	errs := make([]error, len(cfgs))
	for k := range rp.ms {
		m := &rp.ms[k]
		reps[k], errs[k] = mergeReport(m.cfg, workers, total, m.ps, m.rejectedReqs, m.results)
		*m = member{} // let this configuration's pods and hosts go before the next merge
	}
	return reps, errs, nil
}

// placeMember runs configuration k's placement pass and records which
// shard owns each of its placed pods.
func (rp *replayer) placeMember(k int, cfg Config, metas []trace.PodMeta, tab *podTable) {
	m := &rp.ms[k]
	*m = member{
		cfg:       cfg,
		placement: place(cfg, metas, tab),
		hc:        newHostCfg(cfg, tab),
		sims:      make([]*hostSim, cfg.Hosts),
		results:   make([]hostResult, cfg.Hosts),
	}
	g := len(rp.ms)
	for i, p := range m.pods {
		sh := int32(-1)
		if p.host >= 0 {
			sh = rp.ownerOf(k, p.host)
		}
		rp.owner[i*g+k] = sh
	}
}

// ownerOf is the shard that simulates host h of configuration k.
// Offsetting by k spreads the busiest low-numbered hosts of a packing
// policy over the shards.
func (rp *replayer) ownerOf(k, h int) int32 { return int32((k + h) % rp.shards) }

// shardExitHook, when set, runs as each shard goroutine returns,
// before the replay can see it gone: a test seam for checking that no
// shard outlives its replay.
var shardExitHook func()

// shard is shard w's goroutine: after its share of pass 1 (setup), it
// feeds its batches to its hosts and, when the feeder closes its
// channel, finishes them.
func (rp *replayer) shard(w int32, setup func()) {
	defer rp.wg.Done()
	if shardExitHook != nil {
		defer shardExitHook()
	}
	setup()
	for b := range rp.in[w] {
		if !rp.stop.Load() {
			for i := range b {
				rp.feed(w, int(b[i].slot), &b[i].r)
			}
		}
		batchPool.Put((*[streamBatchSize]streamItem)(b[:streamBatchSize]))
	}
	if !rp.stop.Load() {
		rp.finish(w)
	}
}

// feed hands one request to shard w's hosts: to the host of the
// request's pod, at slot, in every configuration whose pod w owns.
func (rp *replayer) feed(w int32, slot int, r *trace.Request) {
	g := len(rp.ms)
	for k, sh := range rp.owner[slot*g : slot*g+g] {
		if sh != w {
			continue
		}
		m := &rp.ms[k]
		p := &m.pods[slot]
		sim := m.sims[p.host]
		if sim == nil {
			sim = newHostSim(m.hc, p.host)
			sim.seedFaults(p.host)
			m.sims[p.host] = sim
		}
		sim.feed(p, r)
	}
}

// finish drains shard w's hosts into their results, dropping each
// host's state as it goes.
func (rp *replayer) finish(w int32) {
	for k := range rp.ms {
		m := &rp.ms[k]
		for h := range m.sims {
			if rp.ownerOf(k, h) != w {
				continue // another shard's host: its slot is that shard's to read
			}
			if sim := m.sims[h]; sim != nil {
				m.results[h] = sim.finish()
				m.sims[h] = nil
			}
		}
	}
}

// close ends pass 2: it closes the shards' channels and waits until
// every shard goroutine has returned.
func (rp *replayer) close() {
	for _, ch := range rp.in {
		close(ch)
	}
	rp.wg.Wait()
}

// abort stops the shards, waits for them, and fails the replay with
// err.
func (rp *replayer) abort(err error) ([]Report, []error, error) {
	rp.stop.Store(true)
	rp.close()
	return nil, nil, err
}

// unknownPod and countChanged are pass 2's errors for a source whose
// second opening differs from the first.
func unknownPod(id int) error {
	return fmt.Errorf("fleet: stream changed between passes (unknown pod %d)", id)
}

func countChanged(total, seen int) error {
	return fmt.Errorf("fleet: stream changed between passes (%d requests, then %d)", total, seen)
}
