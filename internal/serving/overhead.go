package serving

import (
	"context"
	"fmt"
	"time"

	"slscost/internal/stats"
)

// This file is the Figure 8 probe: deploy the same minimal function under
// all three serving architectures and compare the provider-reported
// execution duration, which captures the latency the serving path itself
// adds (polling, HTTP routing, proxying, response forwarding).

// MinimalHandler is the empty function of the Figure 8 measurement: it
// returns an empty body and success immediately.
func MinimalHandler(ctx context.Context, payload []byte) ([]byte, error) {
	return []byte{}, nil
}

// OverheadResult is one architecture's measured serving overhead.
type OverheadResult struct {
	Architecture Architecture
	Samples      []float64 // reported execution durations, milliseconds
	Mean         float64
	P95          float64
}

// MeasureOverhead deploys the minimal function under the given invoker
// and measures n provider-reported execution durations, after warming the
// path with a few unrecorded requests.
func MeasureOverhead(inv Invoker, n int) (OverheadResult, error) {
	res, err := measureInterleaved([]Invoker{inv}, n)
	if err != nil {
		return OverheadResult{Architecture: inv.Architecture()}, err
	}
	return res[0], nil
}

// measureInterleaved warms every invoker, then takes n samples from
// each, sample i from every invoker in turn. Interleaving makes a burst
// of load from elsewhere on the machine land on every invoker alike,
// where sequential blocks of samples would charge it to one of them.
func measureInterleaved(invs []Invoker, n int) ([]OverheadResult, error) {
	if n <= 0 {
		n = 100
	}
	ctx := context.Background()
	out := make([]OverheadResult, len(invs))
	for k, inv := range invs {
		for i := 0; i < 5; i++ { // warm-up: connections, caches, pools
			if _, err := inv.Invoke(ctx, []byte(`{}`)); err != nil {
				return nil, fmt.Errorf("serving: %s warm-up: %w", inv.Architecture(), err)
			}
		}
		out[k] = OverheadResult{Architecture: inv.Architecture(), Samples: make([]float64, 0, n)}
	}
	for i := 0; i < n; i++ {
		for k, inv := range invs {
			r, err := inv.Invoke(ctx, []byte(`{}`))
			if err == nil {
				err = r.Err
			}
			if err != nil {
				return nil, fmt.Errorf("serving: %s probe %d: %w", inv.Architecture(), i, err)
			}
			out[k].Samples = append(out[k].Samples, float64(r.Duration)/float64(time.Millisecond))
		}
	}
	for k := range out {
		out[k].Mean = stats.Mean(out[k].Samples)
		out[k].P95 = stats.Percentile(out[k].Samples, 95)
	}
	return out, nil
}

// CompareArchitectures runs the Figure 8 probe across all three
// architectures with n samples each, interleaved, and returns the
// results in the figure's order (polling, HTTP server, direct
// execution).
func CompareArchitectures(n int) ([]OverheadResult, error) {
	polling, err := DeployPolling(MinimalHandler)
	if err != nil {
		return nil, err
	}
	defer polling.Close()
	httpDep, err := DeployHTTPServer(MinimalHandler, 0)
	if err != nil {
		return nil, err
	}
	defer httpDep.Close()
	direct, err := DeployDirect(MinimalHandler, 0)
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	return measureInterleaved([]Invoker{polling, httpDep, direct}, n)
}
