package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slscost/internal/jobs"
	"slscost/internal/opt"
)

// newTestServer mounts a Server on httptest and returns a client for
// it. Cleanup closes with a short force-cancel deadline so a test
// that leaves jobs running cannot hang the suite.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	srv := NewServer(cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
		hs.Close()
	})
	return srv, NewClient(hs.URL)
}

// blockingRegistry registers test.block, which emits one event and
// then parks until release closes or its context ends (returning the
// context error). It is the controllable job the lifecycle tests use.
func blockingRegistry(t *testing.T, release <-chan struct{}) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register(Method{
		Name: "test.block",
		Run: func(ctx context.Context, rt *Runtime, _ json.RawMessage) error {
			if err := rt.Emit(Event{Type: EventProgress, Phase: "blocked"}); err != nil {
				return err
			}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// waitJobState polls until the job reaches want or the deadline
// passes.
func waitJobState(t *testing.T, c *Client, id string, want jobs.State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// smallSimulate is a fast fleet.simulate params object.
func smallSimulate() json.RawMessage {
	return json.RawMessage(`{"requests":2000,"hosts":4}`)
}

func seedp(v uint64) *uint64 { return &v }

func TestSubmitEndpointTable(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	post := func(body string) (*http.Response, error) {
		return http.Post(c.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	}
	tests := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string // error code; "" means success
	}{
		{"success", `{"method":"fleet.simulate","seed":7,"params":{"requests":2000,"hosts":4}}`,
			http.StatusAccepted, ""},
		{"malformed json", `{"method":`, http.StatusBadRequest, CodeBadRequest},
		{"missing seed", `{"method":"fleet.simulate"}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", `{"method":"fleet.simulate","seed":7,"bogus":1}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown namespace", `{"method":"nope.nothing","seed":7}`, http.StatusNotFound, CodeUnknownMethod},
		{"malformed method", `{"method":"NOPE","seed":7}`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := post(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantCode == "" {
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Fatal(err)
				}
				if st.ID == "" || st.Method != "fleet.simulate" || st.Seed != 7 {
					t.Fatalf("unexpected accepted status: %+v", st)
				}
				return
			}
			var env errorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error == nil || env.Error.Code != tc.wantCode {
				t.Fatalf("error envelope %+v, want code %s", env.Error, tc.wantCode)
			}
		})
	}
}

func TestStatusStreamCancelNotFound(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	ctx := context.Background()
	if _, err := c.Status(ctx, "j999999"); !isCode(err, CodeNotFound) {
		t.Fatalf("status of unknown job: %v", err)
	}
	if _, err := c.Cancel(ctx, "j999999"); !isCode(err, CodeNotFound) {
		t.Fatalf("cancel of unknown job: %v", err)
	}
	if err := c.Stream(ctx, "j999999", func([]byte, Event) error { return nil }); !isCode(err, CodeNotFound) {
		t.Fatalf("stream of unknown job: %v", err)
	}
	// Unrouted paths get the typed shape too.
	resp, err := http.Get(c.BaseURL + "/v2/everything")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != CodeNotFound {
		t.Fatalf("unrouted path: status %d, envelope %+v", resp.StatusCode, env.Error)
	}
}

func isCode(err error, code string) bool {
	var apiErr *Error
	return errors.As(err, &apiErr) && apiErr.Code == code
}

func TestHealth(t *testing.T) {
	srv, c := newTestServer(t, ServerConfig{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || h.Build == "" {
		t.Fatalf("unexpected health: %+v", h)
	}
	want := []string{"fleet.simulate", "opt.pareto", "opt.sweep", "scenario.verify"}
	if fmt.Sprint(h.Methods) != fmt.Sprint(want) {
		t.Fatalf("methods %v, want %v", h.Methods, want)
	}
	// Draining flips the status.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if h, err = c.Health(context.Background()); err != nil || h.Status != "draining" {
		t.Fatalf("health after close: %+v, %v", h, err)
	}
	// And submissions are refused with the typed code.
	_, err = c.Submit(context.Background(),
		JobSpec{Method: "fleet.simulate", Seed: seedp(1), Params: smallSimulate()})
	if !isCode(err, CodeShuttingDown) {
		t.Fatalf("submit while draining: %v", err)
	}
}

func TestQueueFullRejection(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, c := newTestServer(t, ServerConfig{
		Registry: blockingRegistry(t, release),
		Workers:  1,
		Capacity: 1,
	})
	ctx := context.Background()
	spec := JobSpec{Method: "test.block", Seed: seedp(1)}
	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker has picked the first job up, then
	// fill the one pending slot; the next submission must bounce.
	waitJobState(t, c, first.ID, jobs.StateRunning)
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatalf("filling the pending slot: %v", err)
	}
	_, err = c.Submit(ctx, spec)
	if !isCode(err, CodeQueueFull) {
		t.Fatalf("over-capacity submit: %v", err)
	}
}

func TestStreamMidDisconnect(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, c := newTestServer(t, ServerConfig{Registry: blockingRegistry(t, release)})
	st, err := c.Submit(context.Background(), JobSpec{Method: "test.block", Seed: seedp(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Read the first event, then drop the connection mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- c.Stream(ctx, st.ID, func(_ []byte, ev Event) error {
			if ev.Type == EventProgress {
				cancel()
			}
			return nil
		})
	}()
	select {
	case err := <-streamErr:
		if err == nil {
			t.Fatal("disconnected stream reported clean completion")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not unwind after disconnect")
	}
	cancel()
	// The job is unaffected: still running, and a fresh subscriber
	// replays the log from the start and sees it through to done.
	got := waitJobState(t, c, st.ID, jobs.StateRunning)
	if got.Events == 0 {
		t.Fatal("event log lost after disconnect")
	}
	release <- struct{}{}
	var types []string
	err = c.Stream(context.Background(), st.ID, func(_ []byte, ev Event) error {
		types = append(types, ev.Type)
		return nil
	})
	if err != nil {
		t.Fatalf("re-subscribed stream: %v", err)
	}
	if len(types) != 2 || types[0] != EventProgress || types[1] != EventDone {
		t.Fatalf("replayed stream %v, want [progress done]", types)
	}
}

// TestCancelRunningJobPromptly is the DELETE acceptance check: a
// running job observes context.Canceled promptly, the job lands in
// state cancelled, and the worker slot is free for the next job. Run
// with -race in CI.
func TestCancelRunningJobPromptly(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := blockingRegistry(t, release)
	_, c := newTestServer(t, ServerConfig{Registry: reg, Workers: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, JobSpec{Method: "test.block", Seed: seedp(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, c, st.ID, jobs.StateRunning)
	start := time.Now()
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	// The stream's done line carries the cancelled state; waiting for
	// it bounds how promptly the runner observed context.Canceled.
	var final Event
	if err := c.Stream(ctx, st.ID, func(_ []byte, ev Event) error {
		final = ev
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}
	if final.Type != EventDone || final.State != string(jobs.StateCancelled) {
		t.Fatalf("terminal event %+v, want done/cancelled", final)
	}
	// The slot is free: the single worker runs the next job.
	st2, err := c.Submit(ctx, JobSpec{Method: "test.block", Seed: seedp(2)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, c, st2.ID, jobs.StateRunning)
	release <- struct{}{}
	waitJobState(t, c, st2.ID, jobs.StateDone)
}

// sweepSpec is the small grid the e2e tests run: 2 TTLs x 1 policy x
// 1 overcommit on one scenario — 2 evaluations.
func sweepSpec(seed uint64) JobSpec {
	return JobSpec{
		Method: "opt.sweep",
		Seed:   seedp(seed),
		Params: json.RawMessage(
			`{"requests":3000,"scenarios":["steady"],"policies":["least-loaded"],"ttls":["platform","60s"],"overcommits":[1]}`),
	}
}

// runStreamedJob submits spec and consumes its stream to completion,
// returning the events (done excluded) and the terminal event.
func runStreamedJob(t *testing.T, c *Client, spec JobSpec) (id string, events []Event, final Event) {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Stream(ctx, st.ID, func(_ []byte, ev Event) error {
		if ev.Type == EventDone {
			final = ev
		} else {
			events = append(events, ev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != string(jobs.StateDone) {
		t.Fatalf("job %s finished %s (error %q)", st.ID, final.State, final.Error)
	}
	return st.ID, events, final
}

// TestSweepStreamByteIdentical is the tentpole e2e check: an opt.sweep
// job's streamed NDJSON rows and final document are byte-identical to
// the equivalent in-process run with the same seed, and a second
// identical submission is served from the compiled-plan cache.
func TestSweepStreamByteIdentical(t *testing.T) {
	const seed = 20260613
	_, c := newTestServer(t, ServerConfig{})

	// The in-process oracle: the exact library calls the CLI makes,
	// configured through the same spec resolution the daemon uses.
	var p SweepParams
	if err := DecodeParams(sweepSpec(seed).Params, &p); err != nil {
		t.Fatal(err)
	}
	cfg, space, err := SweepConfigs(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := opt.Sweep(context.Background(), cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, err := SweepDoc(sr)
	if err != nil {
		t.Fatal(err)
	}
	var oracle struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(wantDoc, &oracle); err != nil {
		t.Fatal(err)
	}

	id, events, _ := runStreamedJob(t, c, sweepSpec(seed))
	var rows []json.RawMessage
	var gotDoc json.RawMessage
	for _, ev := range events {
		switch ev.Type {
		case EventRow:
			rows = append(rows, ev.Row)
		case EventSweep:
			gotDoc = ev.Sweep
		}
	}
	if len(rows) != len(oracle.Results) {
		t.Fatalf("streamed %d rows, oracle has %d", len(rows), len(oracle.Results))
	}
	for i := range rows {
		if !bytes.Equal(rows[i], oracle.Results[i]) {
			t.Fatalf("row %d differs:\nstream: %s\noracle: %s", i, rows[i], oracle.Results[i])
		}
	}
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Fatalf("sweep document differs:\nstream: %s\noracle: %s", gotDoc, wantDoc)
	}

	// First run compiled the plan (a miss, no hits)...
	st, err := c.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCache.Hits != 0 || st.PlanCache.Misses == 0 {
		t.Fatalf("first run cache stats %+v, want misses only", st.PlanCache)
	}
	// ...and an identical resubmission is served from the plan cache
	// with byte-identical output.
	id2, events2, _ := runStreamedJob(t, c, sweepSpec(seed))
	if st, err = c.Status(context.Background(), id2); err != nil {
		t.Fatal(err)
	}
	if st.PlanCache.Hits == 0 || st.PlanCache.Misses != 0 {
		t.Fatalf("second run cache stats %+v, want hits only", st.PlanCache)
	}
	for i, ev := range events2 {
		if ev.Type == EventSweep && !bytes.Equal(ev.Sweep, wantDoc) {
			t.Fatalf("cached-plan sweep document differs at event %d", i)
		}
	}
}

// TestParetoJob checks opt.pareto streams no per-row events and its
// document carries the frontier.
func TestParetoJob(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	spec := sweepSpec(7)
	spec.Method = "opt.pareto"
	_, events, _ := runStreamedJob(t, c, spec)
	if len(events) != 1 || events[0].Type != EventSweep {
		t.Fatalf("pareto events %+v, want exactly one sweep document", events)
	}
	var doc struct {
		Frontier []string `json:"frontier"`
	}
	if err := json.Unmarshal(events[0].Sweep, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Frontier) == 0 {
		t.Fatal("pareto document has an empty frontier")
	}
}

// TestSimulateAndVerifyJobs runs the two single-replay namespaces end
// to end and cross-checks the daemon's report against the direct
// library call.
func TestSimulateAndVerifyJobs(t *testing.T) {
	_, c := newTestServer(t, ServerConfig{})
	spec := JobSpec{Method: "fleet.simulate", Seed: seedp(11), Params: smallSimulate()}
	_, events, _ := runStreamedJob(t, c, spec)
	var report json.RawMessage
	for _, ev := range events {
		if ev.Type == EventReport {
			report = ev.Report
		}
	}
	if report == nil {
		t.Fatal("simulate job emitted no report")
	}
	var rep struct {
		Scenario string `json:"Scenario"`
		Served   int    `json:"Served"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "steady" || rep.Served == 0 {
		t.Fatalf("unexpected report: scenario %q served %d", rep.Scenario, rep.Served)
	}

	spec.Method = "scenario.verify"
	_, events, _ = runStreamedJob(t, c, spec)
	var verify *VerifyResult
	for _, ev := range events {
		if ev.Type == EventVerify {
			verify = ev.Verify
		}
	}
	if verify == nil {
		t.Fatal("verify job emitted no verify event")
	}
	if verify.Metrics == 0 || verify.MaxRelDelta > verify.Tolerance {
		t.Fatalf("unexpected verify outcome: %+v", verify)
	}

	// A malformed params object fails the job (spec decodes, params
	// do not), and the failure text reaches the done line.
	bad := JobSpec{Method: "fleet.simulate", Seed: seedp(1),
		Params: json.RawMessage(`{"bogus_knob":1}`)}
	st, err := c.Submit(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	var final Event
	if err := c.Stream(context.Background(), st.ID, func(_ []byte, ev Event) error {
		final = ev
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if final.State != string(jobs.StateFailed) || !strings.Contains(final.Error, "unknown field") {
		t.Fatalf("bad-params job terminal event %+v, want failed with unknown field", final)
	}
}
