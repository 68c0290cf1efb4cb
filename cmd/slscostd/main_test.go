package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"slscost/internal/api"
	"slscost/internal/core"
	"slscost/internal/opt"
)

// startDaemon runs the daemon on an ephemeral port and returns a
// client for it plus the daemon's log buffer; cleanup shuts it down
// and asserts a clean exit.
func startDaemon(t *testing.T, args ...string) (*api.Client, *bytes.Buffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("daemon did not shut down")
		}
	})
	return api.NewClient(addr), &out
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "slscost v"+core.Version) {
		t.Fatalf("-version printed %q", out.String())
	}
}

// TestDaemonSmoke is the end-to-end daemon check CI runs: start the
// daemon, submit a small opt.sweep through the client, assert the
// streamed rows are byte-identical to the same sweep run in-process,
// and shut down gracefully with jobs drained.
func TestDaemonSmoke(t *testing.T) {
	client, out := startDaemon(t)

	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != core.Version {
		t.Fatalf("unexpected health: %+v", h)
	}
	// The daemon serves exactly api's built-in namespaces.
	const builtins = "fleet.simulate, opt.pareto, opt.sweep, scenario.verify"
	if got := strings.Join(h.Methods, ", "); got != builtins {
		t.Fatalf("health lists methods %q, want %q", got, builtins)
	}

	const seed = 20260613
	params := api.SweepParams{
		Requests:    3000,
		Scenarios:   []string{"steady"},
		Policies:    []string{"least-loaded", "bin-pack"},
		TTLs:        []string{"platform"},
		Overcommits: []float64{1},
	}
	rawParams, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	seedv := uint64(seed)
	st, err := client.Submit(context.Background(),
		api.JobSpec{Method: "opt.sweep", Seed: &seedv, Params: rawParams})
	if err != nil {
		t.Fatal(err)
	}

	var rows []json.RawMessage
	var final api.Event
	err = client.Stream(context.Background(), st.ID, func(_ []byte, ev api.Event) error {
		switch ev.Type {
		case api.EventRow:
			rows = append(rows, ev.Row)
		case api.EventDone:
			final = ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("job finished %q (error %q)", final.State, final.Error)
	}

	// The in-process oracle: same params, same seed, direct library
	// calls.
	cfg, space, err := api.SweepConfigs(params, seed)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := opt.Sweep(context.Background(), cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sr.Results) {
		t.Fatalf("streamed %d rows, in-process run has %d", len(rows), len(sr.Results))
	}
	for i, r := range sr.Results {
		want, err := json.Marshal(r.Row())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rows[i], want) {
			t.Fatalf("row %d differs:\ndaemon:     %s\nin-process: %s", i, rows[i], want)
		}
	}

	log := out.String()
	if !strings.Contains(log, "listening on http://") || !strings.Contains(log, "\nmethods: "+builtins+"\n") {
		t.Fatalf("startup log missing expected lines (methods: %s):\n%s", builtins, log)
	}
}

// TestDaemonSurvivesHostileSizes submits jobs that would size an
// allocation from the spec: fleet.simulate jobs asking for 2^50 hosts
// and 2^50 tenants fail with their limit named, and an adaptive
// keep-alive histogram of 7.2e15 bins fails on the unknown field,
// since the setting does not exist. An opt.distsweep job asking for
// 2^40 workers is refused at admission with unknown_method, since the
// daemon serves no such namespace. None panics or exhausts memory,
// and the daemon goes on to run the next job.
func TestDaemonSurvivesHostileSizes(t *testing.T) {
	client, _ := startDaemon(t)
	ctx := context.Background()
	run := func(method, params string) api.Event {
		t.Helper()
		seed := uint64(7)
		st, err := client.Submit(ctx, api.JobSpec{Method: method, Seed: &seed, Params: json.RawMessage(params)})
		if err != nil {
			t.Fatal(err)
		}
		var final api.Event
		err = client.Stream(ctx, st.ID, func(_ []byte, ev api.Event) error {
			if ev.Type == api.EventDone {
				final = ev
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return final
	}
	for _, tc := range []struct{ method, params, limit string }{
		{"fleet.simulate", `{"hosts":1125899906842624,"requests":2000}`, "limit of 4096"},
		{"fleet.simulate", `{"tenants":1125899906842624,"requests":2000}`, "function budget"},
		{"fleet.simulate", `{"keepalive":{"mode":"adaptive","seed":1,"max_idle":"2000000h","bin_width":"1ns"}}`,
			`unknown field "max_idle"`},
	} {
		if ev := run(tc.method, tc.params); ev.State != "failed" || !strings.Contains(ev.Error, tc.limit) {
			t.Fatalf("%s %s: job ended %q (error %q), want failed naming %q", tc.method, tc.params, ev.State, ev.Error, tc.limit)
		}
	}
	seed := uint64(7)
	_, err := client.Submit(ctx, api.JobSpec{Method: "opt.distsweep", Seed: &seed, Params: json.RawMessage(`{"workers":1099511627776}`)})
	if apiErr := (*api.Error)(nil); !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnknownMethod {
		t.Fatalf("opt.distsweep submit: %v, want code %s", err, api.CodeUnknownMethod)
	}
	if ev := run("fleet.simulate", `{"hosts":4,"requests":2000}`); ev.State != "done" {
		t.Fatalf("job after the hostile ones ended %q (error %q)", ev.State, ev.Error)
	}
}

// TestDaemonClosesStalledHeader opens a raw connection, sends half a
// request header and waits: the daemon must close the connection once
// readHeaderTimeout passes, instead of holding it open for a client
// that never finishes.
func TestDaemonClosesStalledHeader(t *testing.T) {
	client, _ := startDaemon(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(client.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/health HTTP/1.1\r\nHost: slscostd\r\n")); err != nil {
		t.Fatal(err)
	}
	const margin = 5 * time.Second
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + margin)); err != nil {
		t.Fatal(err)
	}
	// The server may answer the timeout with an error response before
	// it closes; read until the connection ends.
	_, err = io.Copy(io.Discard, conn)
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with half a header still open after %v", time.Since(start).Round(time.Millisecond))
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout (read error %v)", waited, readHeaderTimeout, err)
	}
}

// TestDaemonGracefulDrain checks shutdown waits for a running job.
func TestDaemonGracefulDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "30s"}, &out, ready)
	}()
	client := api.NewClient(<-ready)

	seedv := uint64(7)
	st, err := client.Submit(context.Background(), api.JobSpec{
		Method: "fleet.simulate",
		Seed:   &seedv,
		Params: json.RawMessage(`{"requests":50000,"hosts":4}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // SIGTERM equivalent: drain begins with the job in flight
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("expected a clean drain, log:\n%s", out.String())
	}
	_ = st
}
