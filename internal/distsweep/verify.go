package distsweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"slscost/internal/api"
	"slscost/internal/opt"
)

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
