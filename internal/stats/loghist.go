package stats

import (
	"fmt"
	"math"
	"sync"
)

// This file is the merge-exact histogram primitive behind the cluster
// simulator's latency and contention accounting. A LogHist's layout
// fixes a number of logarithmically spaced buckets: bucket 0 collects
// everything at or below the origin, and above it each doubling of the
// value is split into BucketsPerDoubling buckets, so quantiles read
// back with ~2% relative resolution at 32 buckets per doubling.
// Counts are integers and the tracked moments (count, sum, sum of
// squares, min, max) are plain additions, so merging per-worker
// histograms is exact: the merged quantiles, mean, min, and max are
// functions of the observation multiset alone, independent of merge
// order and worker count — unlike percentiles over concatenated
// sample slices, which cost O(observations) memory to make exact.

// LogHistConfig fixes a LogHist's bucket layout. Two histograms can be
// merged only when their configs are identical: the config is the wire
// format of the bucket indices.
type LogHistConfig struct {
	// Origin is the upper edge of bucket 0: every observation at or
	// below it lands there, and it is the smallest value a quantile
	// reads back. Must be positive.
	Origin float64
	// BucketsPerDoubling is how many buckets split each doubling of
	// the observed value; 32 gives 2^(1/32)-1 ≈ 2.2% resolution.
	BucketsPerDoubling int
	// Buckets is the total bucket count, bucket 0 included. The top
	// bucket is unbounded: values beyond the penultimate edge (and
	// +Inf) clamp there.
	Buckets int
}

// Validate reports whether the layout is usable.
func (c LogHistConfig) Validate() error {
	if !(c.Origin > 0) || math.IsInf(c.Origin, 1) {
		return fmt.Errorf("stats: loghist origin %v not a positive finite value", c.Origin)
	}
	if c.BucketsPerDoubling <= 0 {
		return fmt.Errorf("stats: loghist buckets-per-doubling %d not positive", c.BucketsPerDoubling)
	}
	if c.Buckets < 2 {
		return fmt.Errorf("stats: loghist bucket count %d below 2", c.Buckets)
	}
	return nil
}

// Bucket maps an observation to its bucket index. Non-finite input is
// clamped rather than propagated into the index arithmetic: NaN and
// -Inf land in bucket 0 (a nominal observation), +Inf in the top
// bucket, and so does a finite value whose quotient x/Origin
// overflows. The index rule decomposes x/Origin into a power-of-two
// doubling (Frexp) plus a sub-doubling position against the geometric
// edges Exp2(k/BucketsPerDoubling) — no log on the observe path. This
// per-call form recomputes the edges and is the reference
// LogHist.Observe's table lookup must reproduce.
func (c LogHistConfig) Bucket(x float64) int {
	if math.IsNaN(x) || x <= c.Origin {
		return 0
	}
	q := x / c.Origin
	if math.IsInf(q, 1) {
		return c.Buckets - 1
	}
	m, e := math.Frexp(q)
	m2 := m + m // x/Origin = m2 * 2^(e-1), m2 in [1, 2)
	k := 0
	for k+1 < c.BucketsPerDoubling && math.Exp2(float64(k+1)/float64(c.BucketsPerDoubling)) <= m2 {
		k++
	}
	return c.clampIdx(1 + (e-1)*c.BucketsPerDoubling + k)
}

func (c LogHistConfig) clampIdx(idx int) int {
	if idx >= c.Buckets {
		idx = c.Buckets - 1
	}
	if idx < 1 {
		idx = 1 // x barely above Origin can quantize below the first edge
	}
	return idx
}

// bucketTable finds the sub-doubling bucket of a quotient's mantissa
// for one BucketsPerDoubling value without a search. The mantissa's
// top bits pick a cell narrower than the closest pair of edges, so a
// cell holds at most one edge: the cell's base is the bucket at its
// lower end, and one compare against the edge inside it (if any)
// finishes the index. Tables are built once per BucketsPerDoubling
// and shared read-only by every histogram that uses it.
type bucketTable struct {
	shift uint // mantissa bits below a cell index
	cells []bucketCell
}

// bucketCell is one table cell: base is the sub-doubling bucket at the
// cell's lower end, and edge the mantissa bits of the next edge (in
// [1, 2)), or 1<<52 — above every mantissa — when no edge follows.
type bucketCell struct {
	edge uint64
	base int
}

const mantBits = 52

// newBucketTable builds the table for b buckets per doubling. Its
// edges are the reference rule's Exp2(k/b) values, so both rules
// compare a mantissa against the same floats.
func newBucketTable(b int) *bucketTable {
	edges := make([]uint64, b) // mantissa bits of Exp2(k/b), k = 0..b-1
	for k := range edges {
		edges[k] = math.Float64bits(math.Exp2(float64(k)/float64(b))) & (1<<mantBits - 1)
	}
	// A cell of 2^-cellBits is narrower than the narrowest gap between
	// edges (the first, up to rounding).
	gap := uint64(1 << mantBits)
	for k := 1; k < b; k++ {
		gap = min(gap, edges[k]-edges[k-1])
	}
	cellBits := uint(0)
	for cellBits < mantBits && uint64(1)<<(mantBits-cellBits) >= gap {
		cellBits++
	}
	t := &bucketTable{shift: mantBits - cellBits, cells: make([]bucketCell, 1<<cellBits)}
	k := 0
	for i := range t.cells {
		lo := uint64(i) << t.shift
		for k+1 < b && edges[k+1] <= lo {
			k++
		}
		edge := uint64(1 << mantBits)
		if k+1 < b {
			edge = edges[k+1]
		}
		t.cells[i] = bucketCell{edge: edge, base: k}
	}
	return t
}

// bucketTables holds the process's tables, one per BucketsPerDoubling.
var bucketTables sync.Map // int → *bucketTable

// tableFor returns the shared table for b buckets per doubling.
func tableFor(b int) *bucketTable {
	if t, ok := bucketTables.Load(b); ok {
		return t.(*bucketTable)
	}
	t, _ := bucketTables.LoadOrStore(b, newBucketTable(b))
	return t.(*bucketTable)
}

// Value returns the observation a bucket reads back as: the Origin for
// bucket 0, the bucket's upper edge otherwise.
func (c LogHistConfig) Value(idx int) float64 {
	if idx <= 0 {
		return c.Origin
	}
	return c.Origin * math.Exp2(float64(idx)/float64(c.BucketsPerDoubling))
}

// LogHist is a logarithmic histogram with exactly tracked moments.
// Observations feed integer bucket counts plus count, sum, sum of
// squares, min, and max; Quantile and Summary read everything back
// without retaining samples. The counts live in a window over the
// layout's buckets that grows on demand to cover every bucket
// observed: the layout fixes what a bucket index means, the window
// only how many counters are held, so a histogram whose observations
// span a few doublings holds a few hundred counters, not all Buckets.
// The zero LogHist is not usable — construct with NewLogHist.
type LogHist struct {
	cfg LogHistConfig
	tab *bucketTable // shared by every histogram with this BucketsPerDoubling
	// counts[i] is bucket lo+i's count; buckets outside the window are
	// empty. Nil until the first observation or merge.
	lo     int
	counts []int
	n      int
	sum    float64
	sumSq  float64
	min    float64
	max    float64
}

// NewLogHist returns an empty histogram with the given layout. It
// allocates no counters until the first observation. The config must
// pass Validate; an invalid layout is a programming error and panics
// rather than silently mis-bucketing.
func NewLogHist(cfg LogHistConfig) *LogHist {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &LogHist{cfg: cfg, tab: tableFor(cfg.BucketsPerDoubling)}
}

// windowSlack is the fewest spare buckets a grown window adds on each
// side that grew: half a doubling at the fleet's 32-per-doubling
// layouts, so a first observation already covers its neighbourhood.
const windowSlack = 16

// cover grows the counts window to include buckets [lo, hi). A side
// that grows gains slack of half the new span (at least windowSlack),
// so a histogram drifting across its layout regrows O(log Buckets)
// times.
func (h *LogHist) cover(lo, hi int) {
	oldLo, oldHi := h.lo, h.lo+len(h.counts)
	if h.counts != nil {
		lo, hi = min(lo, oldLo), max(hi, oldHi)
	}
	slack := max((hi-lo)/2, windowSlack)
	if h.counts == nil || lo < oldLo {
		lo = max(lo-slack, 0)
	}
	if h.counts == nil || hi > oldHi {
		hi = min(hi+slack, h.cfg.Buckets)
	}
	counts := make([]int, hi-lo)
	if h.counts != nil {
		copy(counts[oldLo-lo:], h.counts)
	}
	h.lo, h.counts = lo, counts
}

// Config returns the histogram's bucket layout.
func (h *LogHist) Config() LogHistConfig { return h.cfg }

// N returns the number of observations recorded.
func (h *LogHist) N() int { return h.n }

// Observe records one observation. Finite values contribute their
// exact value to the tracked moments (even when their bucket clamps at
// the top edge); non-finite values are clamped first — NaN and -Inf to
// the Origin, +Inf to the top bucket's edge — so the moments stay
// finite and merge-exact.
func (h *LogHist) Observe(x float64) {
	v := x
	switch {
	case math.IsNaN(v) || math.IsInf(v, -1):
		v = h.cfg.Origin
	case math.IsInf(v, 1):
		v = h.cfg.Value(h.cfg.Buckets - 1)
	}
	idx := h.bucket(x)
	i := idx - h.lo
	if uint(i) >= uint(len(h.counts)) {
		h.cover(idx, idx+1)
		i = idx - h.lo
	}
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.sumSq += v * v
}

// bucket is cfg.Bucket through the shared table: the quotient's
// exponent bits give the doubling, its top mantissa bits a table cell,
// and at most one compare against the cell's edge the position within
// the doubling — the same index as the reference's Frexp and edge
// walk, since both compare the same mantissa against the same edges.
func (h *LogHist) bucket(x float64) int {
	if math.IsNaN(x) || x <= h.cfg.Origin {
		return 0
	}
	bits := math.Float64bits(x / h.cfg.Origin) // ≥ 1, so normal or +Inf
	exp := int(bits >> mantBits)
	if exp == 0x7ff {
		return h.cfg.Buckets - 1 // +Inf, or a quotient that overflowed
	}
	mant := bits & (1<<mantBits - 1)
	c := &h.tab.cells[mant>>h.tab.shift]
	k := c.base
	if mant >= c.edge {
		k++
	}
	return h.cfg.clampIdx(1 + (exp-1023)*h.cfg.BucketsPerDoubling + k)
}

// Merge folds another histogram into h. Both must share the same
// layout; merging is integer bucket addition plus moment addition, so
// the result is independent of merge grouping (associative) and a
// merge of per-worker histograms equals observing the union. A nil or
// empty source is a no-op.
func (h *LogHist) Merge(o *LogHist) error {
	if o == nil || o.n == 0 {
		return nil
	}
	if o.cfg != h.cfg {
		return fmt.Errorf("stats: loghist layout mismatch %+v vs %+v", h.cfg, o.cfg)
	}
	if o.lo < h.lo || o.lo+len(o.counts) > h.lo+len(h.counts) {
		h.cover(o.lo, o.lo+len(o.counts))
	}
	dst := h.counts[o.lo-h.lo:]
	for i, c := range o.counts {
		dst[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	h.sumSq += o.sumSq
	return nil
}

// Quantile returns the value at quantile q (0 < q ≤ 1): the upper edge
// of the bucket holding the rank-⌈q·n⌉ observation, clamped into the
// exactly tracked [min, max] so no quantile reads outside the observed
// range. An empty histogram returns the Origin.
func (h *LogHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return h.cfg.Origin
	}
	rank := int(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	cum := 0
	v := h.cfg.Value(h.cfg.Buckets - 1)
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v = h.cfg.Value(h.lo + i)
			break
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Summary renders the histogram as the package's standard descriptive
// summary. N, Mean, Min, and Max are exact (tracked moments); StdDev
// is the population deviation from the tracked sum of squares; the
// percentiles are bucket-resolution Quantile reads.
func (h *LogHist) Summary() Summary {
	if h.n == 0 {
		return Summary{}
	}
	mean := h.sum / float64(h.n)
	variance := h.sumSq/float64(h.n) - mean*mean
	if variance < 0 {
		variance = 0 // float cancellation on near-constant samples
	}
	return Summary{
		N:      h.n,
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		Min:    h.min,
		P5:     h.Quantile(0.05),
		P25:    h.Quantile(0.25),
		Median: h.Quantile(0.50),
		P75:    h.Quantile(0.75),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
		Max:    h.max,
	}
}
