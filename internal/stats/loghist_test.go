package stats

import (
	"fmt"
	"math"
	"testing"
)

func testLogHistConfig() LogHistConfig {
	return LogHistConfig{Origin: 1, BucketsPerDoubling: 32, Buckets: 256}
}

// Regression for the unguarded float→index conversion this type
// replaced: int(math.Log2(NaN)*32) is a huge negative number, and the
// old observe path indexed the bucket array with it. Non-finite input
// must clamp, not panic.
func TestLogHistNonFiniteObservations(t *testing.T) {
	cfg := testLogHistConfig()
	if got := cfg.Bucket(math.NaN()); got != 0 {
		t.Errorf("Bucket(NaN) = %d, want 0", got)
	}
	if got := cfg.Bucket(math.Inf(1)); got != cfg.Buckets-1 {
		t.Errorf("Bucket(+Inf) = %d, want %d", got, cfg.Buckets-1)
	}
	if got := cfg.Bucket(math.Inf(-1)); got != 0 {
		t.Errorf("Bucket(-Inf) = %d, want 0", got)
	}

	h := NewLogHist(cfg)
	h.Observe(math.NaN())  // would have panicked with index out of range
	h.Observe(math.Inf(1)) // likewise through the huge positive index
	h.Observe(math.Inf(-1))
	h.Observe(2)
	if h.N() != 4 {
		t.Fatalf("N = %d, want 4", h.N())
	}
	s := h.Summary()
	for name, v := range map[string]float64{
		"mean": s.Mean, "min": s.Min, "max": s.Max, "p99": s.P99,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v after non-finite observations, want finite", name, v)
		}
	}
	if s.Min != cfg.Origin {
		t.Errorf("min = %v, want clamped origin %v", s.Min, cfg.Origin)
	}
	if want := cfg.Value(cfg.Buckets - 1); s.Max != want {
		t.Errorf("max = %v, want top edge %v", s.Max, want)
	}
}

func TestLogHistBucketValueRoundTrip(t *testing.T) {
	cfg := testLogHistConfig()
	if got := cfg.Bucket(0.5); got != 0 {
		t.Errorf("Bucket(0.5) = %d, want 0 (at or below origin)", got)
	}
	if got := cfg.Bucket(1); got != 0 {
		t.Errorf("Bucket(1) = %d, want 0 (origin is bucket 0's edge)", got)
	}
	if got := cfg.Bucket(1e12); got != cfg.Buckets-1 {
		t.Errorf("Bucket(1e12) = %d, want top bucket %d", got, cfg.Buckets-1)
	}
	if got := cfg.Value(0); got != cfg.Origin {
		t.Errorf("Value(0) = %v, want origin %v", got, cfg.Origin)
	}
	// A value read back from its own bucket must not move to a lower
	// bucket: Value(i) is the bucket's upper edge.
	for _, x := range []float64{1.0001, 1.5, 2, 3.7, 100, 250} {
		b := cfg.Bucket(x)
		if v := cfg.Value(b); v < x*(1-1e-12) {
			t.Errorf("Value(Bucket(%v)) = %v below the observation", x, v)
		}
		if b > 0 && cfg.Value(b-1) > x {
			t.Errorf("observation %v below its bucket's lower edge %v", x, cfg.Value(b-1))
		}
	}
}

// Merging per-worker histograms must equal observing the union, for
// every tracked quantity — the property that makes cluster-wide
// quantiles independent of worker count.
func TestLogHistMergeExact(t *testing.T) {
	cfg := testLogHistConfig()
	r := NewRand(99)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = math.Exp(r.Uniform(0, 5)) // spans ~1–148, multiple doublings
	}

	for _, workers := range []int{1, 4, 8} {
		parts := make([]*LogHist, workers)
		for i := range parts {
			parts[i] = NewLogHist(cfg)
		}
		for i, x := range xs {
			parts[i%workers].Observe(x)
		}
		merged := NewLogHist(cfg)
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		whole := NewLogHist(cfg)
		for _, x := range xs {
			whole.Observe(x)
		}
		if merged.N() != whole.N() {
			t.Fatalf("workers=%d: N %d != %d", workers, merged.N(), whole.N())
		}
		for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			if a, b := merged.Quantile(q), whole.Quantile(q); a != b {
				t.Errorf("workers=%d: Quantile(%v) %v != %v", workers, q, a, b)
			}
		}
		ms, ws := merged.Summary(), whole.Summary()
		if ms.Min != ws.Min || ms.Max != ws.Max {
			t.Errorf("workers=%d: min/max drifted: %v/%v vs %v/%v",
				workers, ms.Min, ms.Max, ws.Min, ws.Max)
		}
		// Mean differs only by float summation order across shards; the
		// full report path merges in a fixed order, so there it is exact.
		if math.Abs(ms.Mean-ws.Mean) > 1e-9*ws.Mean {
			t.Errorf("workers=%d: mean drifted: %v vs %v", workers, ms.Mean, ws.Mean)
		}
	}
}

func TestLogHistQuantileWithinBucketResolution(t *testing.T) {
	cfg := testLogHistConfig()
	h := NewLogHist(cfg)
	r := NewRand(7)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(r.Uniform(0, 4))
		h.Observe(xs[i])
	}
	res := math.Exp2(1/float64(cfg.BucketsPerDoubling)) - 1 // ~2.2%
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := Percentile(xs, q*100)
		got := h.Quantile(q)
		if got < exact*(1-res) || got > exact*(1+res) {
			t.Errorf("Quantile(%v) = %v outside ±%.1f%% of exact %v", q, got, res*100, exact)
		}
	}
	// Quantiles never read outside the exactly tracked range.
	if h.Quantile(1) != Max(xs) {
		t.Errorf("Quantile(1) = %v, want exact max %v", h.Quantile(1), Max(xs))
	}
	if h.Quantile(0) < Min(xs) {
		t.Errorf("Quantile(0) = %v below exact min %v", h.Quantile(0), Min(xs))
	}
}

func TestLogHistEmptyAndMismatch(t *testing.T) {
	cfg := testLogHistConfig()
	h := NewLogHist(cfg)
	if got := h.Quantile(0.99); got != cfg.Origin {
		t.Errorf("empty Quantile = %v, want origin %v", got, cfg.Origin)
	}
	if s := h.Summary(); s != (Summary{}) {
		t.Errorf("empty Summary = %+v, want zero", s)
	}
	if err := h.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v, want no-op", err)
	}

	other := NewLogHist(LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280})
	other.Observe(5)
	if err := h.Merge(other); err == nil {
		t.Error("merging mismatched layouts succeeded")
	}

	for _, bad := range []LogHistConfig{
		{Origin: 0, BucketsPerDoubling: 32, Buckets: 256},
		{Origin: -1, BucketsPerDoubling: 32, Buckets: 256},
		{Origin: math.NaN(), BucketsPerDoubling: 32, Buckets: 256},
		{Origin: 1, BucketsPerDoubling: 0, Buckets: 256},
		{Origin: 1, BucketsPerDoubling: 32, Buckets: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

// denseHist is the reference LogHist keeps its windowed counts equal
// to: every bucket of the layout held, each observation indexed through
// LogHistConfig.Bucket, and the moments tracked by the same clamping
// rule.
type denseHist struct {
	cfg                LogHistConfig
	counts             []int
	n                  int
	sum, sumSq, lo, hi float64
}

func newDenseHist(cfg LogHistConfig) *denseHist {
	return &denseHist{cfg: cfg, counts: make([]int, cfg.Buckets)}
}

func (d *denseHist) observe(x float64) {
	v := x
	switch {
	case math.IsNaN(v) || math.IsInf(v, -1):
		v = d.cfg.Origin
	case math.IsInf(v, 1):
		v = d.cfg.Value(d.cfg.Buckets - 1)
	}
	d.counts[d.cfg.Bucket(x)]++
	if d.n == 0 || v < d.lo {
		d.lo = v
	}
	if d.n == 0 || v > d.hi {
		d.hi = v
	}
	d.n++
	d.sum += v
	d.sumSq += v * v
}

// merge is Merge's arithmetic over dense counts: bucket addition plus
// moment addition, in the same order.
func (d *denseHist) merge(o *denseHist) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	if d.n == 0 || o.lo < d.lo {
		d.lo = o.lo
	}
	if d.n == 0 || o.hi > d.hi {
		d.hi = o.hi
	}
	d.n += o.n
	d.sum += o.sum
	d.sumSq += o.sumSq
}

func (d *denseHist) quantile(q float64) float64 {
	if d.n == 0 {
		return d.cfg.Origin
	}
	rank := min(max(int(math.Ceil(q*float64(d.n))), 1), d.n)
	cum := 0
	for i, c := range d.counts {
		if cum += c; cum >= rank {
			return min(max(d.cfg.Value(i), d.lo), d.hi)
		}
	}
	panic("dense reference lost an observation")
}

func (d *denseHist) summary() Summary {
	if d.n == 0 {
		return Summary{}
	}
	mean := d.sum / float64(d.n)
	return Summary{
		N: d.n, Mean: mean, StdDev: math.Sqrt(max(d.sumSq/float64(d.n)-mean*mean, 0)),
		Min: d.lo, P5: d.quantile(0.05), P25: d.quantile(0.25), Median: d.quantile(0.5),
		P75: d.quantile(0.75), P95: d.quantile(0.95), P99: d.quantile(0.99), Max: d.hi,
	}
}

// matchesDense fails t unless h reads back exactly as the dense
// reference: N, every quantile on a fine grid, and the summary.
func matchesDense(t *testing.T, name string, h *LogHist, d *denseHist) {
	t.Helper()
	if h.N() != d.n {
		t.Fatalf("%s: N = %d, dense reference %d", name, h.N(), d.n)
	}
	for q := 0.0; q <= 1; q += 0.005 {
		if got, want := h.Quantile(q), d.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, dense reference %v", name, q, got, want)
		}
	}
	if got, want := h.Summary(), d.summary(); got != want {
		t.Fatalf("%s: summary\n%+v\ndense reference\n%+v", name, got, want)
	}
}

// TestLogHistWindowMatchesDense pins the windowed counts against a
// dense reference over every bucket: observations spread across the
// layout, including NaN, ±Inf, values at or below the origin and past
// the top bucket, read back identically, and so do merges across
// disjoint windows, into an empty histogram, and from an empty or nil
// one. An unobserved histogram holds no counters at all.
func TestLogHistWindowMatchesDense(t *testing.T) {
	cfg := LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280}
	if h := NewLogHist(cfg); h.counts != nil {
		t.Fatalf("an unobserved histogram holds %d counters", len(h.counts))
	}
	r := NewRand(20261017)
	// draw picks from a band of the layout, with a sprinkling of the
	// values that clamp.
	draw := func(lo, hi float64) float64 {
		switch r.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return cfg.Origin * r.Float64() // at or below the origin
		case 4:
			return cfg.Value(cfg.Buckets) * (1 + r.Float64()) // past the top bucket
		}
		return math.Exp(r.Uniform(math.Log(lo), math.Log(hi)))
	}
	bands := []struct {
		name   string
		lo, hi float64
	}{
		{"narrow", 40, 45},
		{"ms", 1, 1e4},
		{"low", 1e-3, 1e-2},
		{"high", 1e7, 1e9},
		{"layout", 1e-4, 1e10},
	}
	for _, b := range bands {
		h, d := NewLogHist(cfg), newDenseHist(cfg)
		for i := 0; i < 5000; i++ {
			x := draw(b.lo, b.hi)
			h.Observe(x)
			d.observe(x)
		}
		matchesDense(t, b.name, h, d)
	}

	// Merges: two disjoint windows, then a third spanning both, into an
	// empty histogram, and empty or nil sources, which change nothing.
	parts := []struct{ lo, hi float64 }{{1, 2}, {1e6, 1e7}, {1e-2, 1e8}}
	merged, whole := NewLogHist(cfg), newDenseHist(cfg)
	for i, p := range parts {
		h, d := NewLogHist(cfg), newDenseHist(cfg)
		for j := 0; j < 2000; j++ {
			x := math.Exp(r.Uniform(math.Log(p.lo), math.Log(p.hi)))
			h.Observe(x)
			d.observe(x)
		}
		if err := merged.Merge(h); err != nil {
			t.Fatal(err)
		}
		whole.merge(d)
		matchesDense(t, fmt.Sprintf("merged %d parts", i+1), merged, whole)
	}
	var nilHist *LogHist
	for name, o := range map[string]*LogHist{"empty": NewLogHist(cfg), "nil": nilHist} {
		if err := merged.Merge(o); err != nil {
			t.Fatal(err)
		}
		matchesDense(t, "merged from "+name, merged, whole)
	}
	empty := NewLogHist(cfg)
	if err := empty.Merge(NewLogHist(cfg)); err != nil {
		t.Fatal(err)
	}
	if empty.counts != nil {
		t.Error("merging an empty histogram allocated counters")
	}
}

// tableLayouts are the layouts the table bucketing is pinned on: the
// fleet's slowdown layout, its latency and recovery layouts (which are
// identical), and odd BucketsPerDoubling values whose cells and edges
// fall differently.
func tableLayouts() []LogHistConfig {
	return []LogHistConfig{
		{Origin: 1, BucketsPerDoubling: 32, Buckets: 256},     // fleet.SlowdownHistConfig
		{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280}, // fleet.LatencyHistConfig, RecoveryHistConfig
		{Origin: 0.7, BucketsPerDoubling: 1, Buckets: 40},
		{Origin: 3, BucketsPerDoubling: 7, Buckets: 300},
		{Origin: 1e-9, BucketsPerDoubling: 100, Buckets: 8000},
		{Origin: 1e-3, BucketsPerDoubling: 1, Buckets: 2000}, // top bucket past the exponent range
	}
}

// TestLogHistTableMatchesBucket pins Observe's table lookup to the
// reference rule, LogHistConfig.Bucket: at every bucket edge
// Origin·2^(k/B) of each layout, at the edge's float neighbours on
// either side, and on random values spanning the layout.
func TestLogHistTableMatchesBucket(t *testing.T) {
	rng := NewRand(19)
	for _, cfg := range tableLayouts() {
		h := NewLogHist(cfg)
		check := func(x float64) {
			t.Helper()
			if got, want := h.bucket(x), cfg.Bucket(x); got != want {
				t.Fatalf("%+v: table bucket(%v) = %d, reference %d", cfg, x, got, want)
			}
		}
		for k := 0; k <= cfg.Buckets+cfg.BucketsPerDoubling; k++ {
			edge := cfg.Value(k)
			check(edge)
			check(math.Nextafter(edge, math.Inf(1)))
			check(math.Nextafter(edge, 0))
		}
		top := math.Log2(cfg.Value(cfg.Buckets))
		for range 100_000 {
			check(cfg.Origin * math.Exp2(rng.Float64()*(top+2)-1))
			check(rng.Float64() * cfg.Value(cfg.Buckets))
		}
		for _, x := range []float64{0, -1, cfg.Origin, math.SmallestNonzeroFloat64, math.MaxFloat64,
			math.NaN(), math.Inf(1), math.Inf(-1)} {
			check(x)
		}
	}
}

// TestLogHistTablesShared pins the table's scope: histograms with the
// same BucketsPerDoubling share one table, whatever their origin.
func TestLogHistTablesShared(t *testing.T) {
	a := NewLogHist(LogHistConfig{Origin: 1, BucketsPerDoubling: 32, Buckets: 256})
	b := NewLogHist(LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280})
	if a.tab != b.tab {
		t.Error("two 32-per-doubling histograms built separate bucket tables")
	}
}

// TestLogHistQuotientOverflow pins the top-bucket clamp for a finite
// observation whose quotient x/Origin overflows to +Inf: Frexp(+Inf)
// reports exponent 0, which once put it in bucket 1.
func TestLogHistQuotientOverflow(t *testing.T) {
	for _, cfg := range []LogHistConfig{
		{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280}, // the latency layout
		// A layout whose top bucket lies past what the quotient's
		// exponent can reach, so clamping the index is not enough.
		{Origin: 1e-3, BucketsPerDoubling: 1, Buckets: 2000},
	} {
		top := cfg.Buckets - 1
		for _, x := range []float64{1e306, math.MaxFloat64} {
			if got := cfg.Bucket(x); got != top {
				t.Errorf("%+v: Bucket(%v) = %d, want top bucket %d", cfg, x, got, top)
			}
			h := NewLogHist(cfg)
			h.Observe(x)
			if i := top - h.lo; i < 0 || i >= len(h.counts) || h.counts[i] != 1 {
				t.Errorf("%+v: Observe(%v) missed the top bucket: window [%d, %d)", cfg, x, h.lo, h.lo+len(h.counts))
			}
		}
	}
}

// BenchmarkLogHistObserve measures one observation into the fleet's
// latency layout (fleet.LatencyHistConfig), over log-normal latencies
// in milliseconds spread across a few decades, as a host records them.
func BenchmarkLogHistObserve(b *testing.B) {
	cfg := LogHistConfig{Origin: 1e-3, BucketsPerDoubling: 32, Buckets: 1280}
	rng := NewRand(7)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.LogNormal(4, 1.5)
	}
	h := NewLogHist(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(xs[i&(len(xs)-1)])
	}
}
