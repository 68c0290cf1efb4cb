package distsweep

import (
	"context"
	"encoding/json"
	"sync"

	"slscost/internal/api"
)

// Method returns the opt.distsweep namespace. It is not part of
// api.BuiltinRegistry — cmd/slscostd registers it explicitly — so the
// api package never imports distsweep.
func Method() api.Method {
	return api.Method{
		Name:        "opt.distsweep",
		Description: "run the opt.sweep grid through the distributed coordinator with in-process workers; the final sweep document is byte-identical to opt.sweep's",
		Run:         runJob,
	}
}

// runJob executes one opt.distsweep job. Its params are exactly
// opt.sweep's; Local runs them on its default two in-process workers
// and a shard count derived from the grid. Rows arrive shard-by-shard
// rather than in global grid order, so unlike opt.sweep the stream
// carries shard-count progress events instead of per-row events; the
// terminal sweep document is byte-identical to opt.sweep's (that
// identity is exactly what the package tests gate on).
func runJob(ctx context.Context, rt *api.Runtime, params json.RawMessage) error {
	var p api.SweepParams
	if err := api.DecodeParams(params, &p); err != nil {
		return err
	}
	var mu sync.Mutex
	completed := 0
	sr, err := Local(ctx, LocalConfig{
		Spec: Spec{Sweep: p, Seed: rt.Seed},
		Trace: func(event string, shard, index int) {
			if event != "shard-done" {
				return
			}
			mu.Lock()
			completed++
			n := completed
			mu.Unlock()
			_ = rt.Emit(api.Event{Type: api.EventProgress, Phase: "shards", Requests: n})
		},
	})
	if err != nil {
		return err
	}
	doc, err := api.SweepDoc(sr)
	if err != nil {
		return err
	}
	return rt.Emit(api.Event{Type: api.EventSweep, Sweep: doc})
}
