package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, q, beyond int
		v            float64
	}{
		{200, 95, 10, 190},
		{300, 95, 15, 285}, // p95 itself once 10 or more lie beyond it
		{25, 60, 10, 15},
		{20, 50, 10, 10.5}, // no percentile above 50 keeps 10 beyond: the median
		{10, 50, 5, 5.5},
	} {
		q, v, beyond := tail(seq(tc.n))
		if q != tc.q || v != tc.v || beyond != tc.beyond {
			t.Errorf("n=%d: tail = p%d %v (%d beyond), want p%d %v (%d beyond)", tc.n, q, v, beyond, tc.q, tc.v, tc.beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestGaugeScalesByBracketingSamples(t *testing.T) {
	nominal := refNominal.Seconds()
	// The kernel took twice its nominal time around interval 0, and 1.5
	// times it on average around interval 1.
	g := &gauge{times: []float64{2 * nominal, 2 * nominal, nominal}}
	got := g.scale([]float64{1, 3, 3}, []int{0, 0, 1})
	for i, want := range []float64{0.5, 1.5, 2} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("scaled value %d = %v, want %v", i, got[i], want)
		}
	}
}

// smallJob prepares a workload's first job at a small scale.
func smallJob(t *testing.T, name string) *job {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	j, err := prepareJob(w.jobs(0.01)[0], defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWrappersMirrorInterfaces(t *testing.T) {
	raw := smallJob(t, "replay-raw")
	shaped := smallJob(t, "replay-scenario")
	for _, tc := range []struct {
		name       string
		src        source
		into, scan bool
	}{
		{"generator", raw.src, true, true},
		{"scenario", shaped.src, true, false},
	} {
		into, scan, err := streamShape(tc.src.open)
		if err != nil || into != tc.into || scan != tc.scan {
			t.Fatalf("%s stream: into=%v scan=%v (%v), want %v %v", tc.name, into, scan, err, tc.into, tc.scan)
		}
	}

	full, err := record(raw.src.open)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.reqs) != raw.src.requests || len(full.metas) == 0 {
		t.Fatalf("recorded %d requests and %d pods, want %d and some", len(full.reqs), len(full.metas), raw.src.requests)
	}
	for _, into := range []bool{false, true} {
		for _, scan := range []bool{false, true} {
			rec := *full
			rec.into, rec.scan = into, scan
			var c counter
			for _, src := range map[string]func() (bool, bool, error){
				"recording": func() (bool, bool, error) { return streamShape(rec.source()) },
				"counted":   func() (bool, bool, error) { return streamShape(countSource(rec.source(), &c, nil)) },
				"re-recorded": func() (bool, bool, error) {
					again, err := record(countSource(rec.source(), &c, nil))
					if err != nil {
						return false, false, err
					}
					return streamShape(again.source())
				},
			} {
				gotInto, gotScan, err := src()
				if err != nil || gotInto != into || gotScan != scan {
					t.Errorf("into=%v scan=%v: got into=%v scan=%v (%v)", into, scan, gotInto, gotScan, err)
				}
			}
			if c.pulls != len(full.reqs) {
				t.Errorf("into=%v scan=%v: counted %d pulls, want %d", into, scan, c.pulls, len(full.reqs))
			}
		}
	}
}

func TestDigestIndependentOfWorkers(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"replay-raw", "replay-scenario", "sweep"} {
		j := smallJob(t, name)
		one, err := j.run(ctx, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		two, err := j.run(ctx, 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if one.digest != two.digest || one.digest == "" {
			t.Errorf("%s: digest at 1 worker %.12s, at 2 workers %.12s", name, one.digest, two.digest)
		}
	}
}

func TestCorruptedOutputRaisesFailedFrac(t *testing.T) {
	w, _ := workloadByName("replay-raw")
	o := options{seed: defaultSeed, seconds: 1, scale: 0.01}
	// Only the first slot's pin is corrupt: its warm-up op and its timed
	// ops fail; the other slots pin themselves.
	res, err := measure(context.Background(), w, o, []string{strings.Repeat("0", 64)})
	if err != nil {
		t.Fatal(err)
	}
	slots := w.inputs * len(w.cycle)
	if want := 1 + (len(res.OpS)+slots-1)/slots; res.Failed != want {
		t.Fatalf("failed %d of %d ops against a corrupted pin, want %d", res.Failed, res.Attempted, want)
	}
	frac := -1.0
	for _, m := range res.Extras {
		if m.Name == "failed_frac" {
			frac = m.Value
		}
	}
	if want := float64(res.Failed) / float64(res.Attempted); frac != want {
		t.Fatalf("failed_frac = %v, want %v", frac, want)
	}
}

// specNames reads the metric names of one BENCHMARK.json list.
func specNames(t *testing.T, list string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name string }
	if err := json.Unmarshal(spec[list], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func TestSmokeAllWorkloads(t *testing.T) {
	want := map[bool][]string{false: specNames(t, "end_to_end"), true: specNames(t, "per_layer")}
	spans := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			args := []string{"-workload", w.name, "-scale", "0.01", "-seconds", "1", "-seed", "7"}
			if traced {
				args = append(args, "-trace", spans)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var summary struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]json.RawMessage
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			var got []string
			for name := range summary.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !summary.Correct || summary.Attempted < 1 || summary.Failed != 0 ||
				strings.Join(got, " ") != strings.Join(want[traced], " ") {
				t.Errorf("%v: correct=%v attempted=%d failed=%d metrics %v, want %v",
					args, summary.Correct, summary.Attempted, summary.Failed, got, want[traced])
			}
		}
		if _, err := os.Stat(spans + "/" + w.name + ".spans.json"); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}
