package distsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slscost/internal/api"
	"slscost/internal/opt"
)

// testSpec is the sweep every distribution test runs: small enough to
// finish fast, wide enough (2 policies × 2 TTLs × 2 scenarios = 8
// grid evaluations, one stateful policy included) to catch ordering
// and merge mistakes.
func testSpec() Spec {
	return Spec{
		Sweep: api.SweepParams{
			Hosts:       8,
			Requests:    2500,
			Scenarios:   []string{"steady", "flash-crowd"},
			Policies:    []string{"least-loaded", "round-robin"},
			TTLs:        []string{"platform", "60s"},
			Overcommits: []float64{2},
		},
		Seed: 20260613,
	}
}

// refDocs computes the single-process reference renderings for spec —
// the byte-identity oracle.
func refDocs(t *testing.T, spec Spec) (jsonDoc, csvDoc, textDoc []byte) {
	t.Helper()
	cfg, space, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := opt.Sweep(context.Background(), cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	return renderDocs(t, sr)
}

func renderDocs(t *testing.T, sr *opt.SweepResult) (jsonDoc, csvDoc, textDoc []byte) {
	t.Helper()
	var j, c, x bytes.Buffer
	if err := sr.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := sr.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	sr.WriteText(&x)
	return j.Bytes(), c.Bytes(), x.Bytes()
}

// runLocal runs a whole distributed sweep in the test process: a
// coordinator for cfg on an ephemeral localhost port and workers
// protocol workers on goroutines, each evaluating on evalWorkers
// goroutines (zero keeps the optimizer default), all through
// Coordinator.Run, as fleetsim -distribute runs its worker processes.
func runLocal(ctx context.Context, cfg CoordinatorConfig, workers, evalWorkers int) (*opt.SweepResult, error) {
	coord, err := Start(cfg, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return coord.Run(ctx, workers, func(ctx context.Context, addr string) error {
		return RunWorker(ctx, WorkerConfig{Addr: addr, Workers: evalWorkers})
	})
}

// recorder captures coordinator trace events for assertions.
type recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *recorder) hook() func(string, int, int) {
	return func(event string, shard, index int) {
		r.mu.Lock()
		r.events = append(r.events, fmt.Sprintf("%s/%d/%d", event, shard, index))
		r.mu.Unlock()
	}
}

func (r *recorder) count(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if len(e) >= len(prefix) && e[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

// TestShardRangesCoverGrid pins the deterministic shard layout:
// contiguous, disjoint, covering, and stable across calls.
func TestShardRangesCoverGrid(t *testing.T) {
	for _, tc := range []struct{ jobs, shards, want int }{
		{8, 8, 8},
		{8, 3, 3},
		{10, 4, 4},
		{3, 16, 3},
		{1, 1, 1},
	} {
		rs := shardRanges(tc.jobs, tc.shards)
		if len(rs) != tc.want {
			t.Fatalf("shardRanges(%d, %d): %d ranges, want %d", tc.jobs, tc.shards, len(rs), tc.want)
		}
		next := 0
		for _, r := range rs {
			if r.Start != next || r.End <= r.Start {
				t.Fatalf("shardRanges(%d, %d): bad range %+v at %d", tc.jobs, tc.shards, r, next)
			}
			next = r.End
		}
		if next != tc.jobs {
			t.Fatalf("shardRanges(%d, %d): covers %d jobs", tc.jobs, tc.shards, next)
		}
	}
}

// TestStartRejectsOversizedGrid: a coordinator sizes its shard table
// from the grid, so a grid over opt.MaxCandidates fails Start with the
// limit named. Without the check these 2^45 evaluations in as many
// shards panic on the table's allocation.
func TestStartRejectsOversizedGrid(t *testing.T) {
	spec := testSpec()
	const k = 1 << 11 // 2^44 candidates over two scenarios
	spec.Sweep.Policies = make([]string, k)
	spec.Sweep.TTLs = make([]string, k)
	spec.Sweep.Overcommits = make([]float64, k)
	spec.Sweep.KeepAliveModes = make([]string, k)
	for i := range k {
		spec.Sweep.Policies[i] = "random"
		spec.Sweep.TTLs[i] = "1s"
		spec.Sweep.Overcommits[i] = 1
		spec.Sweep.KeepAliveModes[i] = "static"
	}
	_, err := Start(CoordinatorConfig{Spec: spec, Dir: t.TempDir(), Shards: 1 << 45}, "127.0.0.1:0")
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("Start = %v, want the grid limit named", err)
	}
}

// TestDistributedMatchesSweep is the core byte-identity gate: a
// distributed run with 1 worker and with 4 workers renders JSON, CSV
// and text documents identical to the single-process opt.Sweep.
func TestDistributedMatchesSweep(t *testing.T) {
	spec := testSpec()
	wantJSON, wantCSV, wantText := refDocs(t, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, workers := range []int{1, 4} {
		sr, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: t.TempDir()}, workers, 2)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		gotJSON, gotCSV, gotText := renderDocs(t, sr)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%d workers: JSON document differs from single-process sweep", workers)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("%d workers: CSV differs from single-process sweep", workers)
		}
		if !bytes.Equal(gotText, wantText) {
			t.Errorf("%d workers: text report differs from single-process sweep", workers)
		}
	}
}

// TestLocalVerified runs a distributed sweep in the test process and
// then Verify, the in-process analogue of fleetsim -distribute -verify, and checks that Verify
// refuses a result the single-process sweep of its spec does not
// reproduce.
func TestLocalVerified(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := testSpec()
	sr, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: t.TempDir()}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ctx, spec, sr); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed++
	if err := Verify(ctx, other, sr); !errors.Is(err, ErrDiverged) {
		t.Fatalf("verifying against another seed: got %v, want ErrDiverged", err)
	}
}

// TestRunFailsFastWhenEveryWorkerFails checks that once every worker
// has exited and any of them failed, Run stops waiting at once, well
// before exitGrace, and returns an error wrapping the failure.
func TestRunFailsFastWhenEveryWorkerFails(t *testing.T) {
	errWorker := errors.New("worker failed")
	for _, tc := range []struct {
		name string
		exit func(worker int32) error
	}{
		{"every worker fails", func(w int32) error { return fmt.Errorf("worker %d: %w", w, errWorker) }},
		{"one fails, the rest exit cleanly", func(w int32) error {
			if w == 0 {
				return errWorker
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := Start(CoordinatorConfig{Spec: testSpec(), Dir: t.TempDir()}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var started atomic.Int32
			begin := time.Now()
			sr, err := coord.Run(context.Background(), 3, func(ctx context.Context, addr string) error {
				return tc.exit(started.Add(1) - 1)
			})
			if sr != nil || !errors.Is(err, errWorker) {
				t.Fatalf("got %v, %v; want an error wrapping %q", sr, err, errWorker)
			}
			if d := time.Since(begin); d >= exitGrace/2 {
				t.Fatalf("Run gave up after %v, want well under exitGrace (%v)", d, exitGrace)
			}
		})
	}
}

// TestRunReturnsContextError ends Run's parent context while the
// workers block; Run must return ctx.Err() even though each worker
// reports the cancellation as a failure of its own, as a killed
// worker process does.
func TestRunReturnsContextError(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(100*time.Millisecond, cancel)
			return ctx, cancel
		}},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 100*time.Millisecond)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := Start(CoordinatorConfig{Spec: testSpec(), Dir: t.TempDir()}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := tc.ctx()
			defer cancel()
			sr, err := coord.Run(ctx, 2, func(ctx context.Context, addr string) error {
				<-ctx.Done()
				return errors.New("signal: killed")
			})
			if sr != nil || err == nil || err != ctx.Err() {
				t.Fatalf("got %v, %v; want ctx.Err() = %v", sr, err, ctx.Err())
			}
		})
	}
}

// TestShutdownRacesAccept starts coordinators over a complete
// checkpoint, so each Wait shuts down at once, while workers dial in.
// A connection accepted as shutdown begins must be closed, never
// registered behind shutdown's wait for the handlers; under -race the
// parent of the closing flag reported that WaitGroup misuse.
func TestShutdownRacesAccept(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: dir}, 2, 2); err != nil {
		t.Fatal(err)
	}
	for range 200 {
		coord, err := Start(CoordinatorConfig{Spec: spec, Dir: dir}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var dialers sync.WaitGroup
		for range 8 {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				if conn, err := net.Dial("tcp", coord.Addr()); err == nil {
					conn.Close()
				}
			}()
		}
		if _, err := coord.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		dialers.Wait()
	}
}

// TestCoordinatorRejectsVersionSkew dials the coordinator raw and
// speaks a future protocol version; the handshake must answer with a
// typed Reject rather than hang or accept.
func TestCoordinatorRejectsVersionSkew(t *testing.T) {
	coord, err := Start(CoordinatorConfig{Spec: testSpec(), Dir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // Wait tears the coordinator down immediately after the check
	defer coord.Wait(ctx)

	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := EncodeFrame(Frame{Type: MsgHello, Payload: []byte(`{"version":2}`)})
	frame[4] = ProtocolVersion + 1 // skew the frame header too
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgReject {
		t.Fatalf("got frame type %d, want reject", f.Type)
	}
	var rej rejectMsg
	if err := decodeMsg(f.Payload, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Code != "version_mismatch" {
		t.Fatalf("reject code %q, want version_mismatch", rej.Code)
	}
}

// fakeCoordinator accepts one worker connection and answers its hello
// with the given welcome, for driving RunWorker's typed error paths.
func fakeCoordinator(t *testing.T, welcome welcomeMsg) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		var wmu sync.Mutex
		writeMsg(conn, &wmu, MsgWelcome, welcome)
		readFrame(conn) // hold the conn until the worker hangs up
	}()
	return ln.Addr().String()
}

// TestWorkerTypedHandshakeErrors checks the worker surfaces spec-hash
// and version mismatches as their dedicated error types.
func TestWorkerTypedHandshakeErrors(t *testing.T) {
	spec := testSpec()
	canonical, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	cfg, space, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	jobs := cfg.GridSize(space)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("spec hash mismatch", func(t *testing.T) {
		addr := fakeCoordinator(t, welcomeMsg{
			Version: ProtocolVersion, SpecHash: "0000deadbeef",
			Spec: json.RawMessage(canonical), Shards: 8, Jobs: jobs,
		})
		var she *SpecHashError
		if err := RunWorker(ctx, WorkerConfig{Addr: addr}); !errors.As(err, &she) {
			t.Fatalf("got %v, want SpecHashError", err)
		}
	})
	t.Run("version skew in welcome", func(t *testing.T) {
		addr := fakeCoordinator(t, welcomeMsg{
			Version: ProtocolVersion + 1, SpecHash: hash,
			Spec: json.RawMessage(canonical), Shards: 8, Jobs: jobs,
		})
		var ve *VersionError
		if err := RunWorker(ctx, WorkerConfig{Addr: addr}); !errors.As(err, &ve) {
			t.Fatalf("got %v, want VersionError", err)
		}
	})
	t.Run("job count mismatch", func(t *testing.T) {
		addr := fakeCoordinator(t, welcomeMsg{
			Version: ProtocolVersion, SpecHash: hash,
			Spec: json.RawMessage(canonical), Shards: 8, Jobs: jobs + 1,
		})
		var pe *ProtocolError
		if err := RunWorker(ctx, WorkerConfig{Addr: addr}); !errors.As(err, &pe) {
			t.Fatalf("got %v, want ProtocolError", err)
		}
	})
}

// TestCheckpointResume runs a sweep to completion, then re-runs it
// against the same checkpoint directory: every shard is already
// durable, so the second run merges without recomputing and the
// document is unchanged.
func TestCheckpointResume(t *testing.T) {
	spec := testSpec()
	wantJSON, _, _ := refDocs(t, spec)
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: dir}, 2, 2); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	sr, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: dir, Trace: rec.hook()}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _, _ := renderDocs(t, sr)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed run differs from single-process sweep")
	}
	if n := rec.count("row/"); n != 0 {
		t.Fatalf("resumed run recomputed %d rows, want 0", n)
	}

	// The same directory with a different spec is a typed refusal.
	other := spec
	other.Seed++
	var cme *CheckpointMismatchError
	if _, err := runLocal(ctx, CoordinatorConfig{Spec: other, Dir: dir}, 1, 0); !errors.As(err, &cme) {
		t.Fatalf("got %v, want CheckpointMismatchError", err)
	}
}

// TestCheckpointRecovery is the satellite-task scenario: a shard log
// corrupted mid-line loses its tail, the shard is re-dispatched, the
// replayed rows verify byte-equal against the surviving prefix, and
// the merged report is unchanged.
func TestCheckpointRecovery(t *testing.T) {
	spec := testSpec()
	wantJSON, _, _ := refDocs(t, spec)
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Two shards of four rows each, so a corrupted tail leaves a
	// non-trivial durable prefix to replay against.
	if _, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: dir, Shards: 2}, 2, 2); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, shardLogName(0))
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The log is row lines, a trailer line, then the split's empty
	// tail. Drop the trailer and cut the last row record mid-line: a
	// torn append, exactly what a crash leaves behind.
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("shard log has %d lines, want at least 4", len(lines))
	}
	lastRow := lines[len(lines)-3]
	keep := bytes.Join(lines[:len(lines)-3], nil)
	torn := append(keep, lastRow[:len(lastRow)/2]...)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var rec recorder
	sr, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: dir, Shards: 2, Trace: rec.hook()}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _, _ := renderDocs(t, sr)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("recovered run differs from single-process sweep")
	}
	if n := rec.count("dup-row/0/"); n == 0 {
		t.Fatal("recovery never exercised the duplicate-row verify path")
	}
	if n := rec.count("shard-done/0/"); n != 1 {
		t.Fatalf("shard 0 completed %d times, want 1", n)
	}
}

// TestCheckpointDivergenceFails plants a durable record whose bytes
// cannot come from the spec'd computation; the replay must fail the
// run with a MismatchError instead of silently preferring either
// side.
func TestCheckpointDivergenceFails(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: dir, Shards: 2}, 2, 2); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, shardLogName(0))
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	first := raw[:bytes.IndexByte(raw, '\n')]
	var recLine logRecord
	if err := json.Unmarshal(first, &recLine); err != nil {
		t.Fatal(err)
	}
	recLine.Result = json.RawMessage(`{"bogus":1}`)
	tampered, err := json.Marshal(recLine)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only the tampered first record: the shard is incomplete, so
	// it re-dispatches and the replay collides with the planted bytes.
	if err := os.WriteFile(logPath, append(tampered, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	var me *MismatchError
	if _, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: dir, Shards: 2}, 1, 0); !errors.As(err, &me) {
		t.Fatalf("got %v, want MismatchError", err)
	}
}

// TestHungWorkerRedispatch connects a worker that accepts a shard and
// then goes silent; the heartbeat timeout must reclaim the shard for
// a live worker and the merged output must still match the reference.
func TestHungWorkerRedispatch(t *testing.T) {
	spec := testSpec()
	wantJSON, _, _ := refDocs(t, spec)
	var rec recorder
	coord, err := Start(CoordinatorConfig{
		Spec:             spec,
		Dir:              t.TempDir(),
		HeartbeatTimeout: 500 * time.Millisecond,
		Trace:            rec.hook(),
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The hung worker: a valid handshake, one accepted assignment,
	// then silence — no rows, no pings.
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wmu sync.Mutex
	if err := writeMsg(conn, &wmu, MsgHello, helloMsg{Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := readFrame(conn); err != nil || f.Type != MsgWelcome {
		t.Fatalf("handshake: %v (type %d)", err, f.Type)
	}
	if f, err := readFrame(conn); err != nil || f.Type != MsgAssign {
		t.Fatalf("assignment: %v (type %d)", err, f.Type)
	}

	// Now the live worker picks up everything, including the
	// reclaimed shard.
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerConfig{Addr: coord.Addr(), Workers: 2, PingInterval: 100 * time.Millisecond})
	}()
	sr, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("live worker: %v", err)
	}
	gotJSON, _, _ := renderDocs(t, sr)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("output after re-dispatch differs from single-process sweep")
	}
	if rec.count("requeue/") == 0 {
		t.Fatal("coordinator never requeued the hung worker's shard")
	}
}

// TestWorkerEvalFailurePropagates makes every evaluation fail (hosts
// of 1 MB fit no flavor, so every pod is rejected and no request is
// served) and checks the coordinator surfaces a typed EvalError
// carrying grid indices.
func TestWorkerEvalFailurePropagates(t *testing.T) {
	spec := testSpec()
	spec.Sweep.HostMemMB = 1 // a valid host shape no sandbox fits: every evaluation fails
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := runLocal(ctx, CoordinatorConfig{Spec: spec, Dir: t.TempDir()}, 1, 0)
	if err == nil {
		t.Fatal("sweep on hosts no sandbox fits succeeded")
	}
	var ee *EvalError
	if errors.As(err, &ee) {
		if len(ee.Indices) == 0 {
			t.Fatalf("EvalError carries no grid indices: %v", ee)
		}
		return
	}
	// Depending on which side validates first the failure may surface
	// as the worker's own SweepError; both are acceptable, silence is
	// not.
	var se *opt.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("got %v (%T), want EvalError or SweepError", err, err)
	}
}
