package billing

import (
	"math"
	"testing"
	"time"

	"slscost/internal/stats"
	"slscost/internal/trace"
)

// refMapRequest and refBill are the string-switching MapRequest and
// Model.Bill the tariff replaced, kept here as the reference the
// compiled path must reproduce bit for bit.
func refMapRequest(m Model, r trace.Request) Invocation {
	inv := Invocation{
		Duration:     r.Duration,
		InitDuration: r.InitDuration,
		AllocCPU:     r.AllocCPU,
		AllocMemGB:   r.AllocMemMB / 1024,
		CPUTime:      r.CPUTime,
		MemUsedGB:    r.MemUsedMB / 1024,
	}
	switch m.Platform {
	case AWSLambdaName, VercelName, AzureFlexName:
		memMB := r.AllocMemMB
		if implied := r.AllocCPU * AWSMemPerVCPUMB; implied > memMB {
			memMB = implied
		}
		inv.AllocMemGB = memMB / 1024
		inv.AllocCPU = ProportionalCPU(memMB)
	case AzureConsName:
		inv.AllocCPU = 1
		inv.AllocMemGB = 1.5
	case CloudflareName:
		inv.AllocCPU = 1
		inv.AllocMemGB = MBToGB(128)
	}
	return inv
}

func refBillableTime(m Model, inv Invocation) time.Duration {
	var t time.Duration
	switch m.Basis {
	case ExecutionTime:
		t = inv.Duration
	case TurnaroundTime:
		t = inv.Duration + inv.InitDuration
	case InstanceTime:
		t = inv.InstanceLifespan
		if turnaround := inv.Duration + inv.InitDuration; t < turnaround {
			t = turnaround
		}
	}
	if t < m.MinBillableTime {
		t = m.MinBillableTime
	}
	return roundUpDur(t, m.TimeGranularity)
}

func refBill(m Model, inv Invocation) Charge {
	bt := refBillableTime(m, inv)
	ch := Charge{BillableTime: bt, Fee: m.InvocationFee}
	secs := bt.Seconds()
	for _, r := range m.Rules {
		var amount float64
		switch r.Source {
		case FromAllocation:
			switch r.Resource {
			case CPU:
				amount = inv.AllocCPU
			case Memory:
				amount = inv.AllocMemGB
			}
			amount = roundUpF(amount, r.Granularity) * secs
		case FromUsage:
			switch r.Resource {
			case CPU:
				amount = inv.CPUTime.Seconds()
			case Memory:
				amount = inv.MemUsedGB
			}
			if r.PerDuration {
				amount = roundUpF(amount, r.Granularity) * secs
			} else {
				amount = roundUpF(amount, r.Granularity)
			}
		}
		switch r.Resource {
		case CPU:
			ch.CPUSeconds += amount
		case Memory:
			ch.MemGBSeconds += amount
		}
		ch.ResourceCost += amount * r.UnitPrice
	}
	return ch
}

// sameCharge reports whether two charges agree field by field, bit for
// bit.
func sameCharge(a, b Charge) bool {
	return a.BillableTime == b.BillableTime &&
		math.Float64bits(a.CPUSeconds) == math.Float64bits(b.CPUSeconds) &&
		math.Float64bits(a.MemGBSeconds) == math.Float64bits(b.MemGBSeconds) &&
		math.Float64bits(a.ResourceCost) == math.Float64bits(b.ResourceCost) &&
		math.Float64bits(a.Fee) == math.Float64bits(b.Fee)
}

// tariffModels is every catalog model plus custom models exercising
// what the catalog does not: a usage rule per duration and one
// without, on both resources; a minimum cutoff under every basis; a
// rule-less model; and the resource and source no catalog entry names.
func tariffModels() []Model {
	ms := Catalog()
	ms = append(ms,
		Model{Platform: "usage-mixed", Basis: TurnaroundTime, TimeGranularity: 10 * time.Millisecond,
			MinBillableTime: 50 * time.Millisecond, InvocationFee: 1e-7,
			Rules: []Rule{
				{Resource: CPU, Source: FromUsage, Granularity: 0.01, UnitPrice: 3e-5, PerDuration: true},
				{Resource: Memory, Source: FromUsage, Granularity: MBToGB(64), UnitPrice: 2e-6},
				{Resource: CPU, Source: FromAllocation, Granularity: 0.25, UnitPrice: 1e-5, PerDuration: true},
				{Resource: Memory, Source: FromAllocation, UnitPrice: 1e-6, PerDuration: true},
			}},
		Model{Platform: "instance-cutoff", Basis: InstanceTime, TimeGranularity: time.Second,
			MinBillableTime: 3 * time.Second,
			Rules:           []Rule{{Resource: Memory, Source: FromAllocation, Granularity: 0.5, UnitPrice: 4e-6, PerDuration: true}}},
		Model{Platform: "no-rules", Basis: ExecutionTime, InvocationFee: 5e-7},
		Model{Platform: "odd", Basis: ExecutionTime, TimeGranularity: time.Millisecond,
			Rules: []Rule{
				{Resource: "disk", Source: FromAllocation, Granularity: 1, UnitPrice: 1, PerDuration: true},
				{Resource: CPU, Source: Source(7), Granularity: 1, UnitPrice: 1, PerDuration: true},
			}},
	)
	return ms
}

// tariffRequests returns trace records over the edges the tariff must
// reproduce: zero and negative durations, durations at and one
// nanosecond around every time granularity and cutoff in the catalog,
// allocations at and around the memory and CPU granularities, and
// random draws.
func tariffRequests() []trace.Request {
	durs := []time.Duration{0, -time.Millisecond, -1, 1}
	for _, g := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, time.Second, 3 * time.Second} {
		for _, k := range []time.Duration{1, 2, 7} {
			durs = append(durs, k*g-1, k*g, k*g+1)
		}
	}
	allocs := [][2]float64{
		{0.1, 128}, {0.25, 256}, {0.5, 1769}, {1, 1769}, {1, 1770}, {1.5, 2048},
		{2, 4096}, {0.01, 1}, {0.05, 64}, {0.125, 63.999}, {4, 10240}, {0, 0},
	}
	var out []trace.Request
	for i, d := range durs {
		a := allocs[i%len(allocs)]
		out = append(out,
			trace.Request{Duration: d, CPUTime: d / 2, MemUsedMB: 128, AllocCPU: a[0], AllocMemMB: a[1]},
			trace.Request{Duration: d, InitDuration: d + time.Millisecond, ColdStart: true,
				CPUTime: d, MemUsedMB: 64 * float64(i%5), AllocCPU: a[0], AllocMemMB: a[1]})
	}
	for _, a := range allocs {
		for _, mem := range []float64{0, 1, 63.999, 64, 64.001, 128, 1024, 2048} {
			out = append(out, trace.Request{Duration: 123456789, CPUTime: 10 * time.Millisecond,
				MemUsedMB: mem, AllocCPU: a[0], AllocMemMB: a[1]})
		}
	}
	rng := stats.NewRand(19)
	for range 2000 {
		d := time.Duration(rng.Float64() * float64(5*time.Second))
		out = append(out, trace.Request{
			Duration:     d,
			InitDuration: time.Duration(rng.Float64() * float64(time.Second)),
			CPUTime:      time.Duration(rng.Float64() * float64(d)),
			MemUsedMB:    rng.Float64() * 4096,
			AllocCPU:     allocs[rng.Intn(len(allocs))][0] * (0.5 + rng.Float64()),
			AllocMemMB:   allocs[rng.Intn(len(allocs))][1] * (0.5 + rng.Float64()),
		})
	}
	return out
}

// TestTariffMatchesReference pins the compiled tariff to the reference
// arithmetic: for every model and request, Charge over the request's
// resolved flavor, Model.Bill over MapRequest, and MapRequest itself
// agree with the reference bit for bit.
func TestTariffMatchesReference(t *testing.T) {
	reqs := tariffRequests()
	for _, m := range tariffModels() {
		tf := Compile(m)
		for i := range reqs {
			r := &reqs[i]
			want := refBill(m, refMapRequest(m, *r))
			f := tf.Flavor(r.AllocCPU, r.AllocMemMB)
			var got Charge
			if tf.Charge(&f, RequestUsage(r), &got); !sameCharge(got, want) {
				t.Fatalf("%s request %d (%+v): Charge = %+v, reference %+v", m.Platform, i, *r, got, want)
			}
			inv := MapRequest(m, *r)
			if ref := refMapRequest(m, *r); inv != ref {
				t.Fatalf("%s request %d: MapRequest = %+v, reference %+v", m.Platform, i, inv, ref)
			}
			if got := m.Bill(inv); !sameCharge(got, want) {
				t.Fatalf("%s request %d: Model.Bill = %+v, reference %+v", m.Platform, i, got, want)
			}
			if mi := refMapRequest(m, *r); f.AllocCPU != mi.AllocCPU || f.AllocMemGB != mi.AllocMemGB {
				t.Fatalf("%s request %d: flavor allocation %v/%v, reference %v/%v",
					m.Platform, i, f.AllocCPU, f.AllocMemGB, mi.AllocCPU, mi.AllocMemGB)
			}
		}
	}
}

// TestBillInstanceLifespan covers the one Invocation field a request
// never sets: under InstanceTime the lifespan, floored at the
// turnaround, is what Model.Bill bills.
func TestBillInstanceLifespan(t *testing.T) {
	for _, m := range tariffModels() {
		for _, life := range []time.Duration{0, -time.Second, 150 * time.Millisecond, 2*time.Second + 1, time.Hour} {
			inv := Invocation{Duration: 200 * time.Millisecond, InitDuration: 300 * time.Millisecond,
				InstanceLifespan: life, AllocCPU: 1, AllocMemGB: 2, CPUTime: 90 * time.Millisecond, MemUsedGB: 0.3}
			if got, want := m.Bill(inv), refBill(m, inv); !sameCharge(got, want) {
				t.Fatalf("%s lifespan %v: Model.Bill = %+v, reference %+v", m.Platform, life, got, want)
			}
			if got, want := m.BillableTime(inv), refBillableTime(m, inv); got != want {
				t.Fatalf("%s lifespan %v: BillableTime = %v, reference %v", m.Platform, life, got, want)
			}
		}
	}
}

// TestCompileRejectsOversizedModel pins Compile's one refusal: a model
// with more rules than a tariff holds panics, and Validate rejects the
// duplicate rule that any such model must carry.
func TestCompileRejectsOversizedModel(t *testing.T) {
	rules := []Rule{
		{Resource: CPU, Source: FromAllocation, PerDuration: true},
		{Resource: Memory, Source: FromAllocation, PerDuration: true},
		{Resource: CPU, Source: FromUsage},
		{Resource: Memory, Source: FromUsage},
		{Resource: CPU, Source: FromAllocation, PerDuration: true},
	}
	m := Model{Platform: "five", Rules: rules}
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted two CPU allocation rules")
	}
	defer func() {
		if recover() == nil {
			t.Error("Compile accepted five rules")
		}
	}()
	Compile(m)
}
