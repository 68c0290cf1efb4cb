package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"slscost/internal/fleet"
	"slscost/internal/opt"
	"slscost/internal/scenario/diffsim"
	"slscost/internal/trace"
)

// The built-in methods are thin adapters from job specs to the exact
// library entry points the fleetsim CLI calls — fleet.SimulateStream,
// diffsim.VerifyStream, opt.Sweep — which is what makes a daemon
// result byte-identical to the equivalent one-shot run for the same
// seed: there is no daemon-side re-implementation to drift.

// The event types every job stream is built from. A stream is NDJSON:
// zero or more progress/row lines as the engines produce them, one
// result line (report, verify, or sweep), then the queue's terminal
// done line.
const (
	// EventProgress: periodic request-count heartbeat from a running
	// simulation ({"type":"progress","phase":...,"requests":...}).
	EventProgress = "progress"
	// EventRow: one completed sweep evaluation, emitted in grid order
	// ({"type":"row","row":{...}}). The row object is byte-identical
	// to the corresponding entry of the in-process sweep document's
	// results array.
	EventRow = "row"
	// EventSweep: the full sweep document, compacted onto one line —
	// the same document fleetsim -sweep -format json writes.
	EventSweep = "sweep"
	// EventReport: a fleet.simulate or scenario.verify cluster report.
	EventReport = "report"
	// EventVerify: scenario.verify's differential-replay outcome.
	EventVerify = "verify"
	// EventDone: the queue's terminal line carrying the job's final
	// state; after it the stream is complete.
	EventDone = "done"
)

// Event is the one NDJSON line shape every job emits and every
// consumer decodes: Type selects which of the optional fields are
// present. Raw sub-documents (Row, Sweep, Report) stay []byte so
// byte-identity survives a decode/re-encode round trip on the client.
type Event struct {
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Phase and Requests carry progress heartbeats ("scan" while the
	// placement pass reads the trace, "replay" while hosts simulate).
	Phase    string `json:"phase,omitempty"`
	Requests int    `json:"requests,omitempty"`
	// Row is one sweep evaluation (opt.ResultRow).
	Row json.RawMessage `json:"row,omitempty"`
	// Sweep is the full opt sweep document.
	Sweep json.RawMessage `json:"sweep,omitempty"`
	// Report is a fleet.Report.
	Report json.RawMessage `json:"report,omitempty"`
	// Verify is the differential-replay outcome.
	Verify *VerifyResult `json:"verify,omitempty"`
	// State and Error carry the terminal done line.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// VerifyResult is scenario.verify's summary of the differential
// replay: how far apart the two implementations were, over how many
// compared metrics, against what tolerance. A job whose delta exceeds
// the tolerance fails (done line state "failed") after emitting this.
type VerifyResult struct {
	MaxRelDelta float64 `json:"max_rel_delta"`
	Metrics     int     `json:"metrics"`
	Tolerance   float64 `json:"tolerance"`
}

// BuiltinRegistry returns a registry with the four built-in
// namespaces registered: fleet.simulate, scenario.verify, opt.sweep,
// opt.pareto.
func BuiltinRegistry() *Registry {
	r := NewRegistry()
	for _, m := range []Method{
		{
			Name:        "fleet.simulate",
			Description: "replay one scenario through the streaming cluster simulator and report cost/latency/utilization",
			Run:         runSimulateJob,
		},
		{
			Name:        "scenario.verify",
			Description: "simulate one scenario and cross-check the report against the independent differential replay",
			Run:         runVerifyJob,
		},
		{
			Name:        "opt.sweep",
			Description: "sweep the policy/TTL/overcommit grid over scenarios, streaming result rows in grid order",
			Run:         runSweepJob(false),
		},
		{
			Name:        "opt.pareto",
			Description: "like opt.sweep without per-row events; the final document carries the Pareto frontier",
			Run:         runSweepJob(true),
		},
	} {
		if err := r.Register(m); err != nil {
			// The built-in set is static; a registration failure is a
			// programming error, not a runtime condition.
			panic(err)
		}
	}
	return r
}

// progressEvery is how many pulled requests pass between progress
// heartbeats on a simulate job's event stream.
const progressEvery = 100000

// fastStream is a stream with both fast paths. Every source a simulate
// job replays (trace.GenerateSource, scenario.Plan.Source) opens one.
type fastStream interface {
	trace.IntoStream
	trace.PodScanner
}

// countingStream decorates a stream with progress events. The method
// the simulator calls names the phase: PodScan is the placement pass,
// reported as one "scan" event with the scanned total, and NextInto
// the replay, reported as a "replay" event every progressEvery
// requests. It only observes requests on their way through; it cannot
// change what the simulation computes.
type countingStream struct {
	s  fastStream
	rt *Runtime
	n  int
}

func (c *countingStream) Next() (trace.Request, bool) {
	var r trace.Request
	ok := c.NextInto(&r)
	return r, ok
}

func (c *countingStream) NextInto(r *trace.Request) bool {
	if !c.s.NextInto(r) {
		return false
	}
	c.n++
	if c.n%progressEvery == 0 {
		_ = c.rt.Emit(Event{Type: EventProgress, Phase: "replay", Requests: c.n})
	}
	return true
}

func (c *countingStream) PodScan() []trace.PodMeta {
	metas := c.s.PodScan()
	total := 0
	for _, m := range metas {
		total += m.NReqs
	}
	_ = c.rt.Emit(Event{Type: EventProgress, Phase: "scan", Requests: total})
	return metas
}

// countingSource wraps a source so each opened stream emits progress
// events. It refuses a stream without both fast paths: the placement
// pass would scan one request by request, and its pulls would be
// reported as replay.
func (rt *Runtime) countingSource(src trace.Source) trace.Source {
	return func() (trace.Stream, error) {
		s, err := src()
		if err != nil {
			return nil, err
		}
		fs, ok := s.(fastStream)
		if !ok {
			return nil, fmt.Errorf("api: progress reporting needs a stream with NextInto and PodScan, not %T", s)
		}
		return &countingStream{s: fs, rt: rt}, nil
	}
}

// simulateSource resolves SimulateParams to the trace source a
// simulate or verify job replays, compiling scenarios through the
// daemon's plan cache. The returned label is the report's scenario
// name ("" for raw).
func (rt *Runtime) simulateSource(p SimulateParams) (fleet.Config, trace.Source, string, error) {
	fc, sc, scfg, err := SimulateConfigs(p, rt.Seed)
	if err != nil {
		return fleet.Config{}, nil, "", err
	}
	if p.Scenario == "raw" {
		return fc, trace.GenerateSource(scfg.Base), "", nil
	}
	plan, err := rt.CompilePlan(sc, scfg)
	if err != nil {
		return fleet.Config{}, nil, "", err
	}
	return fc, plan.Source(), plan.Name(), nil
}

// marshalRaw marshals v for embedding in an Event; the built-in
// result types cannot fail to marshal.
func marshalRaw(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("api: marshaling %T: %v", v, err))
	}
	return b
}

func runSimulateJob(ctx context.Context, rt *Runtime, params json.RawMessage) error {
	var p SimulateParams
	if err := DecodeParams(params, &p); err != nil {
		return err
	}
	fc, src, label, err := rt.simulateSource(p)
	if err != nil {
		return err
	}
	rep, err := fleet.SimulateStream(ctx, fc, rt.countingSource(src))
	if err != nil {
		return err
	}
	rep.Scenario = label
	return rt.Emit(Event{Type: EventReport, Report: marshalRaw(rep)})
}

func runVerifyJob(ctx context.Context, rt *Runtime, params json.RawMessage) error {
	var p SimulateParams
	if err := DecodeParams(params, &p); err != nil {
		return err
	}
	fc, src, label, err := rt.simulateSource(p)
	if err != nil {
		return err
	}
	const tol = diffsim.DefaultTolerance
	res, rep, err := diffsim.VerifyStream(ctx, fc, src, tol)
	if res == nil {
		// The comparison never ran (cancellation, source failure);
		// there is no outcome to report.
		return err
	}
	rep.Scenario = label
	if emitErr := rt.Emit(Event{
		Type:   EventVerify,
		Report: marshalRaw(rep),
		Verify: &VerifyResult{MaxRelDelta: res.MaxRelDelta, Metrics: len(res.Metrics), Tolerance: tol},
	}); emitErr != nil {
		return emitErr
	}
	// err is res.Check(tol): non-nil names the divergent metrics and
	// fails the job after the outcome event is on the stream.
	return err
}

// runSweepJob builds the opt.sweep / opt.pareto implementation; the
// two differ only in whether per-evaluation rows stream as they
// complete.
func runSweepJob(paretoOnly bool) func(context.Context, *Runtime, json.RawMessage) error {
	return func(ctx context.Context, rt *Runtime, params json.RawMessage) error {
		var p SweepParams
		if err := DecodeParams(params, &p); err != nil {
			return err
		}
		cfg, space, err := SweepConfigs(p, rt.Seed)
		if err != nil {
			return err
		}
		cfg.Planner = rt.CompilePlan
		if !paretoOnly {
			// Rows arrive here in grid order (opt.Config.OnResult's
			// contract), so the stream needs no index field: line
			// order is result order, for any worker count.
			cfg.OnResult = func(r opt.Result) {
				_ = rt.Emit(Event{Type: EventRow, Row: marshalRaw(r.Row())})
			}
		}
		sr, err := opt.Sweep(ctx, cfg, space)
		if err != nil {
			return err
		}
		doc, err := SweepDoc(sr)
		if err != nil {
			return err
		}
		return rt.Emit(Event{Type: EventSweep, Sweep: doc})
	}
}

// SweepDoc renders the sweep as the same JSON document fleetsim
// -sweep -format json writes, compacted onto one line so it can ride
// a single NDJSON event. Compaction only strips inter-token
// whitespace — field order and value spellings are untouched — so
// clients can compare it byte-for-byte against a compacted in-process
// document.
func SweepDoc(sr *opt.SweepResult) (json.RawMessage, error) {
	var pretty, compact bytes.Buffer
	if err := sr.WriteJSON(&pretty); err != nil {
		return nil, err
	}
	if err := json.Compact(&compact, pretty.Bytes()); err != nil {
		return nil, err
	}
	return compact.Bytes(), nil
}
