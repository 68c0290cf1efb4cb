package trace

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"slscost/internal/stats"
)

// This file is the streaming face of the trace layer: an iterator
// abstraction over time-ordered request sequences, adapters between
// streams and materialized traces, and the streaming generator — the
// generator's only implementation, emitting in arrival order with
// memory bounded by the function count rather than the request count.
// Generate is this stream collected. internal/scenario re-times these
// streams per function and internal/fleet consumes them for cluster
// simulations far larger than memory would allow a materialized trace.

// Stream is a pull iterator over requests in non-decreasing arrival
// (Start) order. Next returns the next request and true, or a zero
// Request and false once the stream is exhausted. Streams are
// single-use and not safe for concurrent use; re-open one through its
// Source.
type Stream interface {
	Next() (Request, bool)
}

// IntoStream is an optional Stream fast path. NextInto writes the next
// request into *r instead of returning it by value, so a chain of
// stream wrappers moves one pointer instead of re-copying the ~100-byte
// Request struct at every hop. Semantics are otherwise identical to
// Next; *r is unspecified when NextInto returns false.
type IntoStream interface {
	Stream
	NextInto(r *Request) bool
}

// NextIntoFunc returns the stream's NextInto method when it has one, or
// an adapter over Next. Hot consumers resolve the fast path once and
// call through the returned func per request.
func NextIntoFunc(s Stream) func(*Request) bool {
	if is, ok := s.(IntoStream); ok {
		return is.NextInto
	}
	return func(r *Request) bool {
		rr, ok := s.Next()
		if !ok {
			return false
		}
		*r = rr
		return true
	}
}

// Source produces a fresh Stream positioned at the beginning. The
// streaming cluster simulator opens its input twice — once for the
// placement scan, once for the replay — so anything fed to it must be
// re-openable; for deterministic generators reopening just means
// re-deriving the same seeded stream.
type Source func() (Stream, error)

// sliceStream iterates over a materialized request slice.
type sliceStream struct {
	reqs []Request
	pos  int
}

func (s *sliceStream) Next() (Request, bool) {
	if s.pos >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.pos]
	s.pos++
	return r, true
}

func (s *sliceStream) NextInto(r *Request) bool {
	if s.pos >= len(s.reqs) {
		return false
	}
	*r = s.reqs[s.pos]
	s.pos++
	return true
}

// FromTrace adapts a materialized trace to the Stream interface. The
// stream shares tr's backing array; it is a view, not a copy.
func FromTrace(tr *Trace) Stream {
	if tr == nil {
		return &sliceStream{}
	}
	return &sliceStream{reqs: tr.Requests}
}

// SourceOf returns a Source that re-opens tr from the start on every
// call — the adapter that lets a recorded (CSV-loaded) trace flow
// through the streaming simulation path.
func SourceOf(tr *Trace) Source {
	return func() (Stream, error) { return FromTrace(tr), nil }
}

// Collect drains a stream into a materialized trace. It is the inverse
// of FromTrace: Collect(FromTrace(tr), tr.Len()) reproduces tr exactly.
// n is the expected request count, the initial capacity of the
// result's slice (0 when unknown); with it right, collecting allocates
// the slice once.
func Collect(s Stream, n int) *Trace {
	tr := &Trace{}
	if n > 0 {
		tr.Requests = make([]Request, 0, n)
	}
	next := NextIntoFunc(s)
	var r Request
	for next(&r) {
		tr.Requests = append(tr.Requests, r)
	}
	return tr
}

// FunctionStream yields one function's requests in generation order,
// which for the generator is also strictly increasing arrival order.
// Durations arrive already rescaled to the configured trace mean: a
// FunctionStream's requests are exactly its function's requests in
// the merged GenerateStream.
type FunctionStream struct {
	fn    int
	count int
	scale float64 // duration rescale factor; 0 disables rescaling
	em    *fnEmitter
}

// FnID returns the function the stream belongs to.
func (f *FunctionStream) FnID() int { return f.fn }

// Len returns the total number of requests the stream will yield.
func (f *FunctionStream) Len() int { return f.count }

// Next returns the function's next request in arrival order.
func (f *FunctionStream) Next() (Request, bool) {
	var r Request
	ok := f.NextInto(&r)
	return r, ok
}

// NextInto writes the function's next request into *r — the IntoStream
// fast path, sparing the value-return copy at every consumer hop.
func (f *FunctionStream) NextInto(r *Request) bool {
	if !f.em.next(r) {
		return false
	}
	if f.scale > 0 {
		r.rescale(f.scale)
	}
	return true
}

// Calibration is the generator's reusable calibration state: the
// per-function latent profiles, request counts, pod-ID bases, and the
// duration-rescale factor. The rescale factor depends on every raw
// duration, so lazy emission needs a calibration sweep first — but the
// sweep only walks each function's timing stream (arrivals, pod
// boundaries, durations), never the ~3× costlier utilization draws. A
// Calibration is a pure function of its GeneratorConfig and can
// instantiate any number of independent stream openings without
// re-running the sweep; memory is O(Functions), not O(Requests).
type Calibration struct {
	cfg      GeneratorConfig // sanitized
	profiles []fnProfile
	counts   []int
	podBases []int
	scale    float64
	pods     int
}

// Calibrate runs the calibration sweep for cfg. The result is empty
// (zero functions, zero pods) when cfg requests no trace.
func Calibrate(cfg GeneratorConfig) *Calibration {
	if cfg.Requests <= 0 {
		return &Calibration{}
	}
	cfg = cfg.sanitize()
	rng := stats.NewRand(cfg.Seed)
	profiles, totalWeight := buildProfiles(rng, cfg)
	counts := requestCounts(cfg, profiles, totalWeight)

	c := &Calibration{
		cfg:      cfg,
		profiles: profiles,
		counts:   counts,
		podBases: make([]int, cfg.Functions),
	}
	// Raw durations sum pod by pod, then the pod sums in order. Float
	// addition is not associative: another order moves the rescale
	// factor's last bits, and with them every pinned output.
	var durSumMs, podSumMs float64
	pods := 0
	for fn, p := range profiles {
		c.podBases[fn] = pods
		w := newTimingWalk(cfg.Seed, fn, p, counts[fn])
		for w.step() {
			if w.cold {
				durSumMs += podSumMs
				podSumMs = 0
				pods++
			}
			podSumMs += float64(w.duration()) / float64(time.Millisecond)
		}
	}
	durSumMs += podSumMs
	if mean := durSumMs / float64(cfg.Requests); mean > 0 {
		c.scale = cfg.MeanDurationMs / mean
	}
	c.pods = pods
	return c
}

// Pods returns the total pod count of the calibrated trace.
func (c *Calibration) Pods() int { return c.pods }

// Streams instantiates one fresh time-ordered stream per function,
// each positioned at its function's beginning (emitters re-derive the
// per-function streams from the seed, so repeated calls yield
// independent, identical openings).
func (c *Calibration) Streams() []*FunctionStream {
	out := make([]*FunctionStream, len(c.profiles))
	for fn, p := range c.profiles {
		out[fn] = &FunctionStream{
			fn:    fn,
			count: c.counts[fn],
			scale: c.scale,
			em:    newFnEmitter(c.cfg.Seed, fn, p, c.counts[fn], c.cfg.UtilCorrelation, c.podBases[fn]),
		}
	}
	return out
}

// Stream instantiates a fresh merged stream over the whole calibrated
// trace. The result implements PodScanner: the streaming cluster
// simulator's placement pass reads pod metadata from a timing-only
// walk instead of generating (and discarding) every request.
func (c *Calibration) Stream() Stream {
	return WithPodScan(c.merge, func() []PodMeta {
		return c.AppendPodMetas(make([]PodMeta, 0, c.pods), nil)
	})
}

// merge builds a fresh merge of the per-function streams.
func (c *Calibration) merge() Stream {
	fns := c.Streams()
	srcs := make([]Stream, len(fns))
	for i, f := range fns {
		srcs[i] = f
	}
	return Merge(srcs...)
}

// PodMeta describes one sandbox of a generated trace: identity, flavor,
// cold-start initialization, arrival extent, and request count — the
// placement-relevant shape of the pod, with durations already rescaled.
// It carries exactly what a full scan of the emitted requests would
// reconstruct per pod.
type PodMeta struct {
	ID    int
	FnID  int
	VCPU  float64
	MemMB float64
	Init  time.Duration
	First time.Duration
	Last  time.Duration
	NReqs int
}

// PodScanner is implemented by streams that can enumerate their pod
// population up front without being consumed. The streaming cluster
// simulator's placement pass uses it to skip materializing every
// request of its first pass. A PodScan result may be one slice shared
// by several openings (ShareScan), read concurrently: callers must not
// modify it.
type PodScanner interface {
	PodScan() []PodMeta
}

// podScanStream is a stream with the PodScanner fast path.
type podScanStream struct {
	open func() Stream
	into func(*Request) bool // the opened stream's NextInto; nil before the first pull
	scan func() []PodMeta    // the pods in stream order
}

// WithPodScan returns the stream open builds, paired with scan, which
// lists the stream's pods in any order. The result's PodScan returns
// them in the order the stream first meets them: ascending first
// arrival, ties to the lower pod ID. That is the merge's tie order
// whenever pod IDs ascend with source index, as they do in calibrated
// generator streams and scenario streams, whose sources are
// function-major and whose pods are numbered function by function.
// The sort runs here, on the list scan returns, once per scan; the
// sorted list is read-only from then on, as every PodScan result is.
// The stream is built on the first pull, so an opening that is only
// scanned never builds it.
func WithPodScan(open func() Stream, scan func() []PodMeta) Stream {
	return &podScanStream{open: open, scan: func() []PodMeta {
		metas := scan()
		slices.SortFunc(metas, streamOrder)
		return metas
	}}
}

// streamOrder orders pods as a stream first meets them. It is a
// top-level function because a comparator literal nested in
// WithPodScan's closure, once WithPodScan inlines into its callers,
// heap-allocates cmp.Or's arguments on every comparison.
func streamOrder(a, b PodMeta) int {
	return cmp.Or(cmp.Compare(a.First, b.First), cmp.Compare(a.ID, b.ID))
}

// ShareScan returns a source whose openings share one pod scan. The
// first PodScan of any opening runs src's scan and sorts it; every
// opening, concurrent ones included, returns that one read-only slice.
// Requests are not shared: each opening still synthesizes its own
// stream. A source whose openings cannot scan (SourceOf, say) is
// returned unchanged.
//
// The scan lives as long as the returned source, so share a source for
// one call's openings, not on a value that outlives the call: a scan
// holds 64 bytes per pod.
func ShareScan(src Source) Source {
	s, err := src()
	first, ok := s.(*podScanStream)
	if err != nil || !ok {
		return src
	}
	scan := sync.OnceValue(first.scan)
	return func() (Stream, error) {
		s, err := src()
		ps, ok := s.(*podScanStream)
		if err != nil || !ok {
			return s, err
		}
		return &podScanStream{open: ps.open, scan: scan}, nil
	}
}

func (s *podScanStream) Next() (Request, bool) {
	var r Request
	ok := s.NextInto(&r)
	return r, ok
}

func (s *podScanStream) NextInto(r *Request) bool {
	if s.into == nil {
		s.into = NextIntoFunc(s.open())
	}
	return s.into(r)
}

func (s *podScanStream) PodScan() []PodMeta { return s.scan() }

// A Clock re-times one function's requests: it is handed each request's
// rescaled duration in generation order and returns the request's
// arrival. The scenario engine's renewal re-timer is one.
type Clock func(dur time.Duration) time.Duration

// AppendPodMetas appends the pods of the calibrated trace to dst,
// function by function, walking each function's timing stream alone:
// no utilization draws, no requests. With a nil clocks every request
// keeps the generator's arrival; otherwise clocks(fn, n) supplies the
// Clock of function fn, which has n requests. Functions without
// requests are skipped. The pods are in generation order; WithPodScan
// orders them as a stream meets them.
func (c *Calibration) AppendPodMetas(dst []PodMeta, clocks func(fn, n int) Clock) []PodMeta {
	for fn, n := range c.counts {
		if n == 0 {
			continue
		}
		var clock Clock
		if clocks != nil {
			clock = clocks(fn, n)
		}
		w := newTimingWalk(c.cfg.Seed, fn, c.profiles[fn], n)
		f := w.p.flavor
		id := c.podBases[fn]
		var m *PodMeta // the pod being walked
		for w.step() {
			dur := w.duration()
			if c.scale > 0 {
				dur = scaleDuration(dur, c.scale)
			}
			start := w.start()
			if clock != nil {
				start = clock(dur)
			}
			end := start + dur
			if w.cold {
				id++
				init := w.init()
				dst = append(dst, PodMeta{
					ID:    id,
					FnID:  fn,
					VCPU:  f.VCPU,
					MemMB: f.MemMB,
					Init:  init,
					First: start,
					Last:  end + init,
					NReqs: w.podReqs,
				})
				m = &dst[len(dst)-1]
			} else if end > m.Last {
				m.Last = end
			}
		}
	}
	return dst
}

// GenerateStream emits the synthetic trace under cfg as a time-ordered
// stream with O(Functions) memory: per-function emitters merged by
// arrival time, simultaneous arrivals in function order. Generate is
// this stream collected.
func GenerateStream(cfg GeneratorConfig) Stream {
	return Calibrate(cfg).Stream()
}

// GenerateSource returns a Source for the streaming cluster simulator.
// The calibration sweep runs once, up front; each open then pays only
// for what the simulator asks of it, so its two-pass protocol costs one
// timing-only pod scan and one emission, not two calibrations.
func GenerateSource(cfg GeneratorConfig) Source {
	c := Calibrate(cfg)
	return func() (Stream, error) { return c.Stream(), nil }
}

// mergeEntry is one source's buffered-head key inside a Merge: just the
// ordering fields, 16 bytes. The buffered Request itself lives in a
// per-source slot (merged.heads), so heap sifts move small keys instead
// of ~90-byte Request copies.
type mergeEntry struct {
	start time.Duration
	src   int32
}

// merged is a k-way merge of time-ordered streams over a hand-rolled
// binary heap of (Start, source index) keys: earliest arrival first,
// ties broken toward the lower-indexed source so the merge is
// deterministic.
type merged struct {
	srcs  []func(*Request) bool // per-source NextInto fast paths
	heads []Request             // heads[src] is src's buffered next request
	h     []mergeEntry
}

func (m *merged) less(a, b mergeEntry) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return a.src < b.src
}

// siftDown restores the heap property from the root.
func (m *merged) siftDown(i int) {
	n := len(m.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && m.less(m.h[right], m.h[left]) {
			least = right
		}
		if !m.less(m.h[least], m.h[i]) {
			return
		}
		m.h[i], m.h[least] = m.h[least], m.h[i]
		i = least
	}
}

func (m *merged) Next() (Request, bool) {
	var r Request
	ok := m.NextInto(&r)
	return r, ok
}

func (m *merged) NextInto(out *Request) bool {
	if len(m.h) == 0 {
		return false
	}
	src := m.h[0].src
	*out = m.heads[src]
	if m.srcs[src](&m.heads[src]) {
		m.h[0].start = m.heads[src].Start
	} else {
		n := len(m.h) - 1
		m.h[0] = m.h[n]
		m.h = m.h[:n]
	}
	m.siftDown(0)
	return true
}

// Merge combines time-ordered streams into one time-ordered stream.
// Each source must be non-decreasing in Start; simultaneous arrivals
// across sources are emitted in source order. Memory is O(len(srcs)).
func Merge(srcs ...Stream) Stream {
	m := &merged{
		srcs:  make([]func(*Request) bool, len(srcs)),
		heads: make([]Request, len(srcs)),
		h:     make([]mergeEntry, 0, len(srcs)),
	}
	for i, s := range srcs {
		m.srcs[i] = NextIntoFunc(s)
		if m.srcs[i](&m.heads[i]) {
			m.h = append(m.h, mergeEntry{start: m.heads[i].Start, src: int32(i)})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}
