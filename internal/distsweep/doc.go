// Package distsweep distributes the optimizer's grid sweep
// (internal/opt) across worker processes and merges the shard results
// into output byte-identical to the single-process opt.Sweep.
//
// The design leans on the one property the rest of the repository
// already guarantees: every (candidate, scenario) evaluation is an
// independent pure function of the sweep spec and its grid index, and
// every report metric is merge-exact (integer LogHist merges,
// worker-count-independent percentiles). Distribution therefore never
// has to reconcile results — it only has to deliver every index once.
// The coordinator partitions the grid into contiguous index ranges
// (shards) derived purely from the canonicalized spec, hands them to
// whichever workers are connected, and folds the returned evaluations
// back into the grid by index. Composing per-shard histories through
// this deterministic merge is indistinguishable from the
// single-process history — the compositionality stance the design
// docs cite.
//
// The wire format is a length-prefixed, versioned frame protocol over
// TCP (wire.go): the handshake carries the protocol version and the
// canonical spec hash, so a worker built against a different protocol
// generation or pointed at the wrong sweep is rejected with a typed
// error instead of silently computing garbage. Completed evaluations
// stream back one frame per grid index and are checkpointed to
// per-shard NDJSON logs (checkpoint.go) as they arrive: a worker
// killed or hung mid-shard is detected by heartbeat timeout (or its
// connection dying) and its shard is re-dispatched to a live worker,
// which recomputes the shard while the coordinator keeps the already
// durable rows — duplicate completions are resolved deterministically
// (the first durable write wins, and the replayed bytes must verify
// equal, or the run fails loudly).
//
// Two surfaces use the package: fleetsim -sweep -distribute N
// (spawns N local worker processes and merges) and fleetsim -worker
// -connect addr (a bare worker loop for multi-host use). The first
// starts its workers through Coordinator.Run, the one place that
// decides when a run with dead workers is over, and its -verify
// checks the merged result through Verify.
package distsweep
