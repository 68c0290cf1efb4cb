package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"slscost/internal/core"
	"slscost/internal/stats"
	"slscost/internal/trace"
)

// testReplay builds what a replay builds for a host of cfg serving
// reqs: the requests are scanned into pod metadata, the metadata into
// the source's shared table, and cfg is compiled over it. pods[i] is
// reqs[i]'s pod, placed on host 0.
func testReplay(tb testing.TB, cfg Config, reqs []trace.Request) (*hostCfg, []*pod) {
	tb.Helper()
	metas, _, err := scanPodsSlow(context.Background(), trace.FromTrace(&trace.Trace{Requests: reqs}))
	if err != nil {
		tb.Fatal(err)
	}
	tab := podMetas(metas)
	idx := buildPodIndex(metas)
	all := make([]pod, len(metas))
	for i := range all {
		all[i] = pod{podMeta: &tab.pods[i]}
	}
	pods := make([]*pod, len(reqs))
	for i := range reqs {
		pods[i] = &all[idx.get(reqs[i].PodID)]
	}
	return newHostCfg(cfg, tab), pods
}

// rampPods builds n single-request pods whose arrivals form a monotone
// demand ramp on one host: every request is still executing when the
// next arrives, so each admission is a new peak-demand instant and
// takes a fresh snapshot.
func rampPods(n int, vcpu float64, dur time.Duration) []trace.Request {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		start := time.Duration(i) * time.Millisecond
		reqs[i] = trace.Request{
			FnID: i % 7, PodID: i, Start: start,
			Duration: dur, CPUTime: dur / 2,
			MemUsedMB: 64, AllocCPU: vcpu, AllocMemMB: 128,
			ColdStart: true, InitDuration: 50 * time.Millisecond,
		}
	}
	return reqs
}

// TestPeakSnapshotCapped pins the peak-demand snapshot's cap: on a
// monotone ramp where every arrival is a new peak, the snapshot holds
// at most MaxProbeTasks entries (everything past the cap is discarded
// by CFSProbe anyway) and those entries are the event-order prefix of
// the in-flight set — the same prefix the probe would have read from
// an uncapped copy.
func TestPeakSnapshotCapped(t *testing.T) {
	const n = 500
	reqs := rampPods(n, 0.5, time.Hour)
	hc, pods := testReplay(t, testConfig(t, "least-loaded"), reqs)
	s := newHostSim(hc, 0)
	for i := range pods {
		s.feed(pods[i], &reqs[i])
		if got := len(s.peakTasks); got > MaxProbeTasks {
			t.Fatalf("after %d arrivals: snapshot holds %d tasks, cap is %d", i+1, got, MaxProbeTasks)
		}
	}
	if len(s.peakTasks) != MaxProbeTasks {
		t.Fatalf("snapshot holds %d tasks at the final peak, want the full cap %d", len(s.peakTasks), MaxProbeTasks)
	}
	for i, q := range s.peakTasks {
		if q.Alloc != s.inflight[i].alloc || q.CPU != s.inflight[i].cpu {
			t.Fatalf("snapshot entry %d = %+v, in-flight prefix has alloc=%v cpu=%v",
				i, q, s.inflight[i].alloc, s.inflight[i].cpu)
		}
	}
	if s.peakDemand != float64(n)*0.5 {
		t.Fatalf("peak demand %v, want %v", s.peakDemand, float64(n)*0.5)
	}
}

// TestDrainedHostIdleHeldExactlyZero is the float-drift property test:
// whatever mix of sandbox sizes a host churned through, once the clock
// runs dry (every sandbox completed, idled, and expired) the idle-held
// vCPU accumulator reads exactly zero — not a few ULPs of residue.
// Sizes like 0.1 and 0.3 are not exactly representable, so the
// add/subtract sequence over many interleaved sandboxes drifts unless
// the drain is clamped when the live idle count hits zero.
func TestDrainedHostIdleHeldExactlyZero(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := stats.NewRand(seed)
			sizes := []float64{0.1, 0.25, 0.3, 0.5, 0.7, 1.3}
			const pods = 400
			// Azure's keep-alive leaves the allocation untouched while
			// idle (RunAsUsual), so idle sandboxes actually hold vCPUs;
			// AWS freezes them (IdleCPU = 0) and would never drift.
			cfg := testConfig(t, "least-loaded")
			cfg.Profile = core.Azure()
			var reqs []trace.Request
			now := time.Duration(0)
			for i := 0; i < pods; i++ {
				vcpu := sizes[rng.Intn(len(sizes))]
				fn := rng.Intn(11)
				init := time.Duration(10+rng.Intn(90)) * time.Millisecond
				reqs = append(reqs, trace.Request{
					FnID: fn, PodID: i, Start: now,
					Duration:  time.Duration(1+rng.Intn(400)) * time.Millisecond,
					CPUTime:   time.Duration(rng.Intn(200)) * time.Millisecond,
					MemUsedMB: 64, AllocCPU: vcpu, AllocMemMB: 128,
					ColdStart: true, InitDuration: init,
				})
				// Dense arrivals keep many sandboxes idle at once, so the
				// accumulator sums long mixed-size chains before draining.
				now += time.Duration(rng.Intn(20)) * time.Millisecond
			}
			hc, fed := testReplay(t, cfg, reqs)
			s := newHostSim(hc, 0)
			for i := range fed {
				s.feed(fed[i], &reqs[i])
			}
			res := s.finish()
			if s.idleCount != 0 {
				t.Fatalf("drained host still counts %d idle sandboxes", s.idleCount)
			}
			if s.idleHeldCPU != 0 {
				t.Fatalf("drained host holds %v idle vCPUs, want exactly 0", s.idleHeldCPU)
			}
			if res.expired != res.sandboxes {
				t.Fatalf("expired %d of %d sandboxes; the drain was incomplete", res.expired, res.sandboxes)
			}
		})
	}
}

// BenchmarkPeakSnapshotRamp measures the host's per-arrival cost on a
// monotone demand ramp — the adversarial shape for peak snapshotting,
// where every admission is a new peak. With the snapshot capped at
// MaxProbeTasks the ramp is linear in arrivals; copying the whole
// in-flight set each peak made it quadratic (a 20k-request ramp copied
// ~200M snapshot entries).
func BenchmarkPeakSnapshotRamp(b *testing.B) {
	const n = 20_000
	reqs := rampPods(n, 0.5, 24*time.Hour)
	hc, pods := testReplay(b, testConfig(b, "least-loaded"), reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newHostSim(hc, 0)
		for j := range pods {
			s.feed(pods[j], &reqs[j])
		}
		if len(s.peakTasks) != MaxProbeTasks {
			b.Fatalf("snapshot holds %d tasks, want %d", len(s.peakTasks), MaxProbeTasks)
		}
	}
	b.SetBytes(n) // arrivals/sec
}
