package fleet

import (
	"context"

	"slscost/internal/trace"
)

// This file holds the exported placement and seeding hooks the
// differential verification harness (internal/scenario/diffsim)
// replays hosts independently from.

// PodAssignment is one pod's placement outcome, exposed for the
// differential harness: the pod as the request scan found it, and the
// host the sequential placement pass bound it to (-1 when every host
// rejected it).
type PodAssignment struct {
	trace.PodMeta
	Host int
}

// Place runs only the sequential placement pass of Simulate and returns
// every pod's assignment in first-arrival order — the exact decisions
// the full simulation replays, since placement is a pure function of
// (cfg, trace). internal/scenario/diffsim uses this to rebuild each
// host's workload for an independent replay.
func Place(cfg Config, tr *trace.Trace) ([]PodAssignment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	metas, _, err := scanPods(context.Background(), trace.FromTrace(tr))
	if err != nil {
		return nil, err
	}
	pl := place(cfg, metas, podMetas(metas))
	out := make([]PodAssignment, len(metas))
	for i, m := range metas {
		out[i] = PodAssignment{PodMeta: m, Host: pl.pods[i].host}
	}
	return out, nil
}

// ShardSeed returns the seed of host h's private random stream inside
// Simulate. An external replay drawing keep-alive windows from
// stats.NewRand(ShardSeed(seed, h)) in event order reproduces the
// simulation's draws exactly.
func ShardSeed(seed uint64, host int) uint64 {
	return mix(seed, uint64(host)+1)
}
