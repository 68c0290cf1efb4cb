// Command slscostd is the long-running simulation service: the
// slscost engines (fleet replay, differential verification, policy
// optimization) behind an HTTP/JSON job API instead of one-shot CLI
// invocations.
//
// Usage:
//
//	slscostd -addr 127.0.0.1:9155
//	slscostd -workers 8 -capacity 128 -plan-cache 64
//
// Clients POST a namespaced job spec with an explicit seed to
// /v1/jobs, poll GET /v1/jobs/{id}, and follow the NDJSON event
// stream at GET /v1/jobs/{id}/stream; DELETE /v1/jobs/{id} cancels.
// Results are byte-identical to the equivalent one-shot run (fleetsim
// -sweep -format json and friends) for the same seed: the daemon
// calls the exact library entry points the CLI does, and compiled
// scenario plans it caches across jobs are immutable with
// deterministic openings. See internal/api for the wire surface and
// docs/DESIGN.md for the layering.
//
// On SIGINT/SIGTERM the daemon stops admitting (submissions get
// code "shutting_down"), drains queued and running jobs up to
// -drain-timeout, then force-cancels survivors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slscost/internal/api"
	"slscost/internal/core"
)

// readHeaderTimeout bounds how long a client may take to send a
// request's header. Without it a connection that never finishes its
// header holds a connection and a goroutine for the daemon's lifetime.
// The body and the response stay unbounded: a job's event stream is a
// long-lived NDJSON response.
const readHeaderTimeout = 5 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "slscostd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (the signal
// path in main, the test harness in tests), then shuts down
// gracefully. If ready is non-nil the bound address is sent on it
// once the listener is up — how tests using -addr 127.0.0.1:0 learn
// the port.
func run(ctx context.Context, args []string, w io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("slscostd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9155", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "jobs run concurrently (0 = GOMAXPROCS)")
	capacity := fs.Int("capacity", 0, "admitted jobs that may wait for a worker (0 = 64)")
	planCache := fs.Int("plan-cache", 0, "compiled scenario plans kept across jobs (0 = 32, negative disables)")
	drain := fs.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for queued and running jobs before force-cancelling")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, core.BuildInfo())
		return nil
	}

	srv := api.NewServer(api.ServerConfig{
		Workers:       *workers,
		Capacity:      *capacity,
		PlanCacheSize: *planCache,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Fprintln(w, core.BuildInfo())
	fmt.Fprintf(w, "listening on http://%s\n", bound)
	fmt.Fprintf(w, "methods: %s\n", strings.Join(srv.Methods(), ", "))
	if ready != nil {
		ready <- bound
	}

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(w, "shutting down: draining jobs (up to %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop admitting and drain the queue first, then close the HTTP
	// side — streams of draining jobs stay readable to the end.
	closeErr := srv.Close(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if closeErr != nil {
		fmt.Fprintln(w, "drain deadline hit: cancelled surviving jobs")
	} else {
		fmt.Fprintln(w, "drained cleanly")
	}
	return nil
}
