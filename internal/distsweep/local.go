package distsweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"slscost/internal/api"
	"slscost/internal/opt"
)

// LocalConfig parameterizes Local.
type LocalConfig struct {
	// Spec is the sweep to run.
	Spec Spec
	// Dir is the checkpoint directory; empty uses a temporary
	// directory removed on return (no resume across calls).
	Dir string
	// Workers is how many protocol workers to run in-process; zero
	// means 2.
	Workers int
	// EvalWorkers bounds each worker's evaluation pool; zero keeps
	// the optimizer default. With several local workers sharing the
	// machine, set this to roughly GOMAXPROCS / Workers.
	EvalWorkers int
	// Shards, HeartbeatTimeout and Trace pass through to the
	// coordinator.
	Shards           int
	HeartbeatTimeout time.Duration
	Trace            func(event string, shard, index int)
}

// Local runs a complete distributed sweep inside one process: a
// coordinator on an ephemeral localhost port plus N in-process
// workers, run by Coordinator.Run. It is the daemon's opt.distsweep
// engine and the reference harness for the byte-identity tests;
// fleetsim -distribute runs worker processes through the same Run.
func Local(ctx context.Context, lcfg LocalConfig) (*opt.SweepResult, error) {
	n := lcfg.Workers
	if n <= 0 {
		n = 2
	}
	dir := lcfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "distsweep-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	coord, err := Start(CoordinatorConfig{
		Spec:             lcfg.Spec,
		Dir:              dir,
		Shards:           lcfg.Shards,
		HeartbeatTimeout: lcfg.HeartbeatTimeout,
		Trace:            lcfg.Trace,
	}, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return coord.Run(ctx, n, func(ctx context.Context, addr string) error {
		return RunWorker(ctx, WorkerConfig{Addr: addr, Workers: lcfg.EvalWorkers})
	})
}

// ErrDiverged marks Verify's mismatch: a distributed sweep whose
// document differs from the single-process run's.
var ErrDiverged = errors.New("distsweep: distributed sweep document differs from the single-process run")

// Verify runs the single-process opt.Sweep on spec and fails with
// ErrDiverged unless its sweep document is byte-identical to sr's. It
// is the check behind fleetsim -distribute -verify.
func Verify(ctx context.Context, spec Spec, sr *opt.SweepResult) error {
	cfg, space, err := spec.Configs()
	if err != nil {
		return err
	}
	ref, err := opt.Sweep(ctx, cfg, space)
	if err != nil {
		return err
	}
	got, err := api.SweepDoc(sr)
	if err != nil {
		return err
	}
	want, err := api.SweepDoc(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w (%d vs %d bytes)", ErrDiverged, len(got), len(want))
	}
	return nil
}
