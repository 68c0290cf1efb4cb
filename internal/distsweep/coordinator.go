package distsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"slscost/internal/opt"
)

// DefaultHeartbeatTimeout is how long the coordinator waits for any
// frame (row or ping) from a worker holding a shard before declaring
// it dead and re-dispatching. Workers ping every
// DefaultPingInterval, so a healthy-but-slow evaluation never trips
// it.
const DefaultHeartbeatTimeout = 10 * time.Second

// CoordinatorConfig parameterizes Start.
type CoordinatorConfig struct {
	// Spec is the sweep to distribute.
	Spec Spec
	// Dir is the checkpoint directory; shard logs and the manifest
	// live there, and a re-run pointed at the same directory resumes
	// from whatever is durable.
	Dir string
	// Shards overrides the shard count (clamped to the grid size);
	// zero derives it from the grid.
	Shards int
	// HeartbeatTimeout overrides DefaultHeartbeatTimeout; zero keeps
	// the default.
	HeartbeatTimeout time.Duration
	// Trace, when non-nil, observes scheduler events ("assign",
	// "row", "dup-row", "shard-done", "requeue") with the shard and
	// grid index involved (-1 when not applicable). It is called
	// synchronously, sometimes under the coordinator's lock: keep it
	// cheap and never call back into the coordinator.
	Trace func(event string, shard, index int)
}

// Coordinator owns one distributed sweep: the listener workers dial,
// the shard scheduler, and the checkpoint logs. Create one with
// Start, then Run the workers (or block in Wait while workers started
// elsewhere dial in) for the merged result.
type Coordinator struct {
	cfg       CoordinatorConfig
	ocfg      opt.Config
	space     opt.Space
	canonical []byte
	hash      string
	ranges    []Range
	jobs      int
	hbTimeout time.Duration

	ln      net.Listener
	pending chan int

	mu        sync.Mutex
	cp        *checkpoint
	durable   []map[int]json.RawMessage
	done      []bool
	remaining int
	conns     map[net.Conn]struct{}
	closing   bool // set by shutdown; no handler registers after it

	complete chan struct{} // closed when every shard is durable
	fail     chan struct{} // closed on the first fatal error
	failErr  error
	failOnce sync.Once
	doneOnce sync.Once

	handlers sync.WaitGroup
}

// Start resolves the spec, binds the checkpoint directory (resuming
// any durable shards), and begins accepting workers on addr (use
// "127.0.0.1:0" for an ephemeral localhost port; Addr reports the
// bound address).
func Start(cfg CoordinatorConfig, addr string) (*Coordinator, error) {
	ocfg, space, err := cfg.Spec.Configs()
	if err != nil {
		return nil, err
	}
	// The grid sizes the shard table, so it is checked first.
	if err := space.Validate(); err != nil {
		return nil, err
	}
	canonical, err := cfg.Spec.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := cfg.Spec.Hash()
	if err != nil {
		return nil, err
	}
	jobs := ocfg.GridSize(space)
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards(jobs)
	}
	ranges := shardRanges(jobs, shards)
	if cfg.Dir == "" {
		return nil, fmt.Errorf("distsweep: coordinator requires a checkpoint directory")
	}
	cp, st, err := openCheckpoint(cfg.Dir, hash, ranges, jobs)
	if err != nil {
		return nil, err
	}

	c := &Coordinator{
		cfg:       cfg,
		ocfg:      ocfg,
		space:     space,
		canonical: canonical,
		hash:      hash,
		ranges:    ranges,
		jobs:      jobs,
		hbTimeout: cfg.HeartbeatTimeout,
		pending:   make(chan int, len(ranges)),
		cp:        cp,
		durable:   st.durable,
		done:      st.done,
		conns:     make(map[net.Conn]struct{}),
		complete:  make(chan struct{}),
		fail:      make(chan struct{}),
	}
	if c.hbTimeout <= 0 {
		c.hbTimeout = DefaultHeartbeatTimeout
	}
	for shard, d := range c.done {
		if !d {
			c.remaining++
			c.pending <- shard
		}
	}
	if c.remaining == 0 {
		close(c.complete)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cp.Close()
		return nil, err
	}
	c.ln = ln
	go c.acceptLoop()
	return c, nil
}

// Addr returns the address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// SpecHash returns the canonical spec hash announced in the
// handshake.
func (c *Coordinator) SpecHash() string { return c.hash }

// Shards returns the deterministic shard layout.
func (c *Coordinator) Shards() []Range { return append([]Range(nil), c.ranges...) }

// Wait blocks until every shard is durable (returning the merged
// result, byte-identical to opt.Sweep on the same spec), the run
// fails fatally, or ctx is cancelled. It always tears down the
// listener, open connections, and checkpoint files before returning;
// the checkpoint directory itself persists for resume.
func (c *Coordinator) Wait(ctx context.Context) (*opt.SweepResult, error) {
	var werr error
	select {
	case <-c.complete:
	case <-c.fail:
		werr = c.failErr
	case <-ctx.Done():
		werr = ctx.Err()
	}
	c.shutdown()
	if werr != nil {
		return nil, werr
	}

	c.mu.Lock()
	results := make([]opt.Result, c.jobs)
	var merr error
	for shard, r := range c.ranges {
		for i := r.Start; i < r.End; i++ {
			raw, ok := c.durable[shard][i]
			if !ok {
				merr = fmt.Errorf("distsweep: shard %d missing durable result for grid index %d", shard, i)
				break
			}
			if err := json.Unmarshal(raw, &results[i]); err != nil {
				merr = fmt.Errorf("distsweep: shard %d grid index %d: %w", shard, i, err)
				break
			}
		}
		if merr != nil {
			break
		}
	}
	c.mu.Unlock()
	if merr != nil {
		return nil, merr
	}
	return opt.AssembleSweep(c.ocfg, c.space, results)
}

// exitGrace is how long Run waits, once every worker has exited
// cleanly, for the completion a clean exit implies: a worker exits
// zero only after the coordinator announced completion, so Wait is
// at most a teardown away from returning.
const exitGrace = 5 * time.Second

// Run starts n workers through start and waits for the merged result;
// it is the one place that decides when a run with dead workers is
// over. Each start call gets the address to dial and a context Run
// cancels before it returns, and Run returns only after every start
// call has. A worker whose start returns an error other than
// context.Canceled is remembered, and the heartbeat re-dispatches its
// shard to the survivors. Once all n have exited, Run fails at once
// with an error wrapping the first failure if any worker failed, and
// otherwise waits exitGrace for completion before failing. A
// cancelled ctx returns ctx.Err(); a failure of the coordinator
// itself returns as Wait returns it.
func (c *Coordinator) Run(ctx context.Context, n int, start func(ctx context.Context, addr string) error) (*opt.SweepResult, error) {
	wctx, cancel := context.WithCancel(ctx)
	var sr *opt.SweepResult
	var err error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		sr, err = c.Wait(wctx)
	}()
	exited := make(chan error, n)
	for range n {
		go func() { exited <- start(wctx, c.Addr()) }()
	}
	running := n
	defer func() {
		cancel()
		for ; running > 0; running-- {
			<-exited
		}
	}()

	var first, abort error // the first worker failure; why Run cancelled Wait
	var grace <-chan time.Time
	for {
		select {
		case <-waited:
			if abort != nil && errors.Is(err, context.Canceled) && ctx.Err() == nil {
				return nil, abort
			}
			return sr, err
		case werr := <-exited:
			running--
			if werr != nil && !errors.Is(werr, context.Canceled) && first == nil {
				first = werr
			}
			switch {
			case running > 0:
				// The heartbeat hands a dead worker's shard to a survivor.
			case first != nil:
				abort = fmt.Errorf("distsweep: all %d workers exited before the sweep completed, first failure: %w", n, first)
				cancel()
			default:
				grace = time.After(exitGrace)
			}
		case <-grace:
			abort = fmt.Errorf("distsweep: all %d workers exited before the sweep completed", n)
			cancel()
		}
	}
}

// shutdown stops accepting, closes every live connection so handlers
// unblock, waits for them, and releases the checkpoint logs. After a
// clean completion it first gives handlers a moment to deliver
// MsgComplete, so workers exit zero instead of reporting a torn
// connection. The closing flag goes up before any wait, so the accept
// loop cannot register a handler the waits would miss.
func (c *Coordinator) shutdown() {
	c.doneOnce.Do(func() {
		c.mu.Lock()
		c.closing = true
		c.mu.Unlock()
		c.ln.Close()
		select {
		case <-c.complete:
			drained := make(chan struct{})
			go func() {
				c.handlers.Wait()
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(2 * time.Second):
				// A straggler (mid-handshake, or holding a shard someone
				// else finished) is still blocked reading; fall through
				// and tear its connection down.
			}
		default:
		}
		c.mu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.mu.Unlock()
		c.handlers.Wait()
		c.mu.Lock()
		c.cp.Close()
		c.mu.Unlock()
	})
}

func (c *Coordinator) failWith(err error) {
	c.failOnce.Do(func() {
		c.failErr = err
		close(c.fail)
	})
}

func (c *Coordinator) trace(event string, shard, index int) {
	if c.cfg.Trace != nil {
		c.cfg.Trace(event, shard, index)
	}
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed by shutdown
		}
		c.mu.Lock()
		if c.closing {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.handlers.Add(1)
		c.mu.Unlock()
		go c.handleConn(conn)
	}
}

func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.handlers.Done()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
		conn.Close()
	}()
	var wmu sync.Mutex

	if err := c.handshake(conn, &wmu); err != nil {
		return
	}

	for {
		select {
		case <-c.complete:
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			writeMsg(conn, &wmu, MsgComplete, completeMsg{})
			return
		case <-c.fail:
			return
		case shard := <-c.pending:
			if c.isDone(shard) {
				continue // stale entry from a duplicate completion race
			}
			if err := c.runShard(conn, &wmu, shard); err != nil {
				c.requeue(shard)
				return
			}
		}
	}
}

// handshake validates the worker's hello and answers with the spec.
// A version or shape mismatch gets a structured Reject so the worker
// can report a typed error instead of a hung dial.
func (c *Coordinator) handshake(conn net.Conn, wmu *sync.Mutex) error {
	conn.SetReadDeadline(time.Now().Add(c.hbTimeout))
	f, err := readFrame(conn)
	if err != nil {
		var ve *VersionError
		if errors.As(err, &ve) {
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			writeMsg(conn, wmu, MsgReject, rejectMsg{
				Code:    "version_mismatch",
				Message: ve.Error(),
			})
		}
		return err
	}
	reject := func(code, msg string) error {
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		writeMsg(conn, wmu, MsgReject, rejectMsg{Code: code, Message: msg})
		return &ProtocolError{Reason: msg}
	}
	if f.Type != MsgHello {
		return reject("bad_handshake", fmt.Sprintf("expected hello, got message type %d", f.Type))
	}
	var hello helloMsg
	if err := decodeMsg(f.Payload, &hello); err != nil {
		return reject("bad_handshake", err.Error())
	}
	if hello.Version != ProtocolVersion {
		return reject("version_mismatch", (&VersionError{Got: hello.Version, Want: ProtocolVersion}).Error())
	}
	return writeMsg(conn, wmu, MsgWelcome, welcomeMsg{
		Version:  ProtocolVersion,
		SpecHash: c.hash,
		Spec:     json.RawMessage(c.canonical),
		Shards:   len(c.ranges),
		Jobs:     c.jobs,
	})
}

// runShard drives one assignment on one connection: grant the range,
// then consume rows (and pings) under the heartbeat deadline until
// the worker declares the shard done. Any read failure — dead
// connection or heartbeat expiry on a hung worker — returns an error
// and the caller requeues the shard for a live worker.
func (c *Coordinator) runShard(conn net.Conn, wmu *sync.Mutex, shard int) error {
	r := c.ranges[shard]
	if err := writeMsg(conn, wmu, MsgAssign, assignMsg{Shard: shard, Start: r.Start, End: r.End}); err != nil {
		return err
	}
	c.trace("assign", shard, -1)
	for {
		conn.SetReadDeadline(time.Now().Add(c.hbTimeout))
		f, err := readFrame(conn)
		if err != nil {
			c.trace("requeue", shard, -1)
			return err
		}
		switch f.Type {
		case MsgPing:
			continue
		case MsgRow:
			var row rowMsg
			if err := decodeMsg(f.Payload, &row); err != nil {
				return err
			}
			if row.Shard != shard || row.Index < r.Start || row.Index >= r.End {
				return &ProtocolError{Reason: fmt.Sprintf("row for shard %d index %d outside assignment %d [%d, %d)", row.Shard, row.Index, shard, r.Start, r.End)}
			}
			if err := c.addRow(row); err != nil {
				c.failWith(err)
				return err
			}
		case MsgShardDone:
			var sd shardDoneMsg
			if err := decodeMsg(f.Payload, &sd); err != nil {
				return err
			}
			if sd.Shard != shard {
				return &ProtocolError{Reason: fmt.Sprintf("done for shard %d while running shard %d", sd.Shard, shard)}
			}
			return c.finishShard(shard)
		case MsgShardFail:
			var sf shardFailMsg
			if err := decodeMsg(f.Payload, &sf); err != nil {
				return err
			}
			err := &EvalError{Shard: shard, Indices: sf.Indices, Message: sf.Error}
			c.failWith(err)
			return err
		default:
			return &ProtocolError{Reason: fmt.Sprintf("unexpected message type %d during shard run", f.Type)}
		}
	}
}

// addRow makes one evaluation durable. The first write wins: a replay
// of an already-durable index (from a re-dispatched shard that raced
// its predecessor) is verified byte-equal against the checkpoint and
// otherwise dropped; diverging bytes fail the run.
func (c *Coordinator) addRow(row rowMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.durable[row.Shard][row.Index]; ok {
		if !bytes.Equal(prev, row.Result) {
			return &MismatchError{Shard: row.Shard, Index: row.Index}
		}
		c.trace("dup-row", row.Shard, row.Index)
		return nil
	}
	rowCopy := row.Row
	if err := c.cp.appendRecord(row.Shard, logRecord{
		Shard:  row.Shard,
		Index:  row.Index,
		Row:    &rowCopy,
		Result: row.Result,
	}); err != nil {
		return err
	}
	c.durable[row.Shard][row.Index] = append([]byte(nil), row.Result...)
	c.trace("row", row.Shard, row.Index)
	return nil
}

// finishShard verifies full coverage, writes the completion trailer,
// and closes out the run when it was the last shard. A duplicate
// completion (the shard already durable via another worker) is a
// no-op; a premature one (missing rows) is treated like a dead
// worker and requeued by the caller.
func (c *Coordinator) finishShard(shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done[shard] {
		c.trace("dup-shard-done", shard, -1)
		return nil
	}
	r := c.ranges[shard]
	if len(c.durable[shard]) != r.Len() {
		return &ProtocolError{Reason: fmt.Sprintf("shard %d declared done with %d of %d rows durable", shard, len(c.durable[shard]), r.Len())}
	}
	if err := c.cp.appendTrailer(shard, r.Len()); err != nil {
		c.failWith(err)
		return err
	}
	c.done[shard] = true
	c.remaining--
	c.trace("shard-done", shard, -1)
	if c.remaining == 0 {
		close(c.complete)
	}
	return nil
}

func (c *Coordinator) isDone(shard int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[shard]
}

// requeue puts an unfinished shard back on the pending queue after
// its holder died. Each shard has at most one holder at a time, so
// the buffered channel never fills; the guard keeps a completion
// racing the requeue from resurrecting a finished shard.
func (c *Coordinator) requeue(shard int) {
	if c.isDone(shard) {
		return
	}
	select {
	case c.pending <- shard:
	default:
		// Impossible by the one-holder invariant; failing loudly
		// beats deadlocking a sweep if that invariant ever breaks.
		c.failWith(fmt.Errorf("distsweep: pending queue overflow requeuing shard %d", shard))
	}
}
