package keepalive

import (
	"testing"
	"time"
)

// BenchmarkAdaptiveTTL is the benchguard number for the adaptive
// decider's hot pair — one ObserveIdle plus one Window per idle cycle,
// which is what every idle transition in a non-static fleet run costs
// on top of the pre-decider path.
func BenchmarkAdaptiveTTL(b *testing.B) {
	a, err := NewAdaptive(2*time.Hour, 15*time.Second, 5*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	gaps := [8]time.Duration{
		90 * time.Second, 10 * time.Minute, 3 * time.Minute, 45 * time.Second,
		20 * time.Minute, 6 * time.Minute, 30 * time.Second, 12 * time.Minute,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		a.ObserveIdle(gaps[i%len(gaps)])
		sink = a.Window(1)
	}
	_ = sink
}
