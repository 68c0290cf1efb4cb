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

// Place runs only the placement pass of SimulateStream over src and
// returns every pod's assignment in first-arrival order — the exact
// decisions the full simulation replays, since placement is a pure
// function of (cfg, the source's pods) — with an opening of src that
// no one has read, for a second pass over its requests. The pods are
// scanned as the replay scans them, so a source whose streams list
// their pods is opened once and that opening is returned; any other
// is read to the end by the scan and opened again. Cancelling ctx
// stops a per-request scan within cancelCheckMask+1 pulls.
// internal/scenario/diffsim places from this and then replays the
// returned opening host by host with its own interpreter.
func Place(ctx context.Context, cfg Config, src trace.Source) ([]PodAssignment, trace.Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if err := checkCall(ctx, src); err != nil {
		return nil, nil, err
	}
	s, err := src()
	if err != nil {
		return nil, nil, err
	}
	metas, _, pulled, err := scanPods(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	if pulled {
		if s, err = src(); err != nil {
			return nil, nil, err
		}
	}
	pl := place(cfg, metas, podMetas(metas))
	out := make([]PodAssignment, len(metas))
	for i, m := range metas {
		out[i] = PodAssignment{PodMeta: m, Host: pl.pods[i].host}
	}
	return out, s, nil
}

// ShardSeed returns the seed of host h's private random stream inside
// Simulate. An external replay drawing keep-alive windows from
// stats.NewRand(ShardSeed(seed, h)) in event order reproduces the
// simulation's draws exactly.
func ShardSeed(seed uint64, host int) uint64 {
	return mix(seed, uint64(host)+1)
}
