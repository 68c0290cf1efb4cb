package distsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"slscost/internal/api"
)

// TestMethodByteIdenticalToOptSweep stands up the daemon surface with
// the opt.distsweep namespace registered (exactly as cmd/slscostd
// does) and checks the distributed job's terminal sweep document is
// byte-identical to the built-in opt.sweep's for the same spec and
// seed.
func TestMethodByteIdenticalToOptSweep(t *testing.T) {
	reg := api.BuiltinRegistry()
	if err := reg.Register(Method()); err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(api.ServerConfig{Registry: reg, Workers: 2, Capacity: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())
	client := api.NewClient(ts.URL)

	spec := testSpec()
	params, err := json.Marshal(spec.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	runJob := func(method string, params json.RawMessage) (doc json.RawMessage, progress int) {
		t.Helper()
		st, err := client.Submit(ctx, api.JobSpec{Method: method, Seed: &spec.Seed, Params: params})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		err = client.Stream(ctx, st.ID, func(line []byte, ev api.Event) error {
			switch ev.Type {
			case api.EventSweep:
				doc = append(json.RawMessage(nil), ev.Sweep...)
			case api.EventProgress:
				progress++
			case api.EventDone:
				if ev.State != "done" || ev.Error != "" {
					t.Fatalf("%s: job state %s (%s)", method, ev.State, ev.Error)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s stream: %v", method, err)
		}
		return doc, progress
	}

	wantDoc, _ := runJob("opt.sweep", params)
	gotDoc, progress := runJob("opt.distsweep", params)
	if len(wantDoc) == 0 || len(gotDoc) == 0 {
		t.Fatalf("missing sweep documents: opt.sweep %d bytes, opt.distsweep %d bytes", len(wantDoc), len(gotDoc))
	}
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Fatal("opt.distsweep sweep document differs from opt.sweep's")
	}
	if progress == 0 {
		t.Fatal("opt.distsweep streamed no shard progress events")
	}
}
