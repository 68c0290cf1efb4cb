package billing

import (
	"fmt"
	"math"
	"time"
)

// This file is the package's one evaluation of Equation (1). Compile
// turns a Model into a Tariff once: rule resources become enums, and
// the platform's allocation mapping (MapRequest's rules) is chosen by
// platform name. Tariff.Flavor resolves a sandbox flavor once: its
// mapped allocation and each allocation rule's rounded amount. Per
// request, Charge is plain arithmetic: the billable time, then each
// rule's amount. Model.Bill, Model.BillableTime and MapRequest are
// views over this code, so a caller that bills many requests compiles
// once and gets the digits a one-off Model.Bill gets.

// resource is a rule's Resource as an enum. A rule naming neither CPU
// nor Memory (Validate rejects it) bills a zero amount to neither.
type resource uint8

const (
	resOther resource = iota
	resCPU
	resMem
)

// maxRules is the most rules a tariff holds: one per (resource,
// source) pair, which Validate enforces.
const maxRules = 4

// rate is one compiled Rule.
type rate struct {
	res         resource
	src         Source
	perDuration bool
	gran        float64
	price       float64
}

// of returns the resource's share of a CPU and a memory amount.
func (r resource) of(cpu, mem float64) float64 {
	switch r {
	case resCPU:
		return cpu
	case resMem:
		return mem
	}
	return 0
}

// allocMapping is how a platform maps a recorded flavor onto its
// control knobs (see MapRequest).
type allocMapping uint8

const (
	// mapRecorded adopts the recorded allocation directly.
	mapRecorded allocMapping = iota
	// mapProportional allocates the larger of the recorded memory and
	// the memory the recorded vCPUs imply, and CPU proportionally.
	mapProportional
	// mapAzureSandbox runs every request in a fixed 1.5 GB / 1 vCPU
	// sandbox.
	mapAzureSandbox
	// mapCloudflareSandbox runs every request in a fixed 128 MB
	// sandbox.
	mapCloudflareSandbox
)

// mappingFor returns the allocation mapping of a catalog platform.
func mappingFor(platform string) allocMapping {
	switch platform {
	case AWSLambdaName, VercelName, AzureFlexName:
		return mapProportional
	case AzureConsName:
		return mapAzureSandbox
	case CloudflareName:
		return mapCloudflareSandbox
	}
	return mapRecorded
}

// apply maps a recorded flavor (vCPUs, MB) to the billed allocation
// (vCPUs, GB).
func (a allocMapping) apply(vcpu, memMB float64) (cpu, memGB float64) {
	switch a {
	case mapProportional:
		if implied := vcpu * AWSMemPerVCPUMB; implied > memMB {
			memMB = implied
		}
		return ProportionalCPU(memMB), memMB / 1024
	case mapAzureSandbox:
		return 1, 1.5
	case mapCloudflareSandbox:
		return 1, MBToGB(128)
	}
	return vcpu, memMB / 1024
}

// roundUpDur rounds d up to a multiple of gran (gran <= 0 keeps d).
func roundUpDur(d, gran time.Duration) time.Duration {
	if gran <= 0 || d <= 0 {
		if d < 0 {
			return 0
		}
		return d
	}
	n := (d + gran - 1) / gran
	return n * gran
}

// roundUpF rounds x up to a multiple of gran (gran <= 0 keeps x).
func roundUpF(x, gran float64) float64 {
	if gran <= 0 || x <= 0 {
		return math.Max(x, 0)
	}
	return math.Ceil(x/gran-1e-9) * gran
}

// timing is the billable-time half of Equation (1): the basis, the
// minimum cutoff and the granularity.
type timing struct {
	basis   TimeBasis
	minTime time.Duration
	gran    time.Duration
}

// billable returns the billable wall-clock time of an invocation that
// ran for d after an initialization of init, in a sandbox that lived
// lifespan (zero when unknown).
func (c timing) billable(d, init, lifespan time.Duration) time.Duration {
	var t time.Duration
	switch c.basis {
	case ExecutionTime:
		t = d
	case TurnaroundTime:
		t = d + init
	case InstanceTime:
		t = lifespan
		if turnaround := d + init; t < turnaround {
			t = turnaround
		}
	}
	if t < c.minTime {
		t = c.minTime
	}
	return roundUpDur(t, c.gran)
}

// Tariff is a Model compiled for billing many requests: Equation (1)
// with its rules resolved to enums and the platform's allocation
// mapping chosen. Build one with Compile, resolve each sandbox flavor
// once with Flavor, and bill each request with Charge. A Tariff is
// read-only after Compile, so goroutines may share it.
type Tariff struct {
	timing
	fee     float64
	mapping allocMapping
	n       int
	rules   [maxRules]rate
}

// Compile resolves a model into its tariff. It panics on a model with
// more than four rules, which Validate rejects.
func Compile(m Model) Tariff {
	var t Tariff
	t.compile(&m)
	t.mapping = mappingFor(m.Platform)
	return t
}

// compile resolves m's billable-time rule, fee and rules into t, all
// of Compile but the allocation mapping, which a caller billing an
// already mapped allocation does not need.
func (t *Tariff) compile(m *Model) {
	if len(m.Rules) > maxRules {
		panic(fmt.Sprintf("billing: %s has %d rules; a tariff holds at most %d", m.Platform, len(m.Rules), maxRules))
	}
	t.timing = m.timing()
	t.fee = m.InvocationFee
	t.n = len(m.Rules)
	for i := range m.Rules {
		r := &m.Rules[i]
		res := resOther
		switch r.Resource {
		case CPU:
			res = resCPU
		case Memory:
			res = resMem
		}
		t.rules[i] = rate{res: res, src: r.Source, perDuration: r.PerDuration, gran: r.Granularity, price: r.UnitPrice}
	}
}

// timing returns the model's billable-time rule.
func (m *Model) timing() timing {
	return timing{basis: m.Basis, minTime: m.MinBillableTime, gran: m.TimeGranularity}
}

// Flavor is a sandbox flavor as one tariff bills it: the allocation
// the platform bills after its mapping, and each allocation rule's
// rounded amount, so a request of the flavor only scales them by its
// billable seconds. Build one with Tariff.Flavor; the zero Flavor
// bills no allocation.
type Flavor struct {
	// AllocCPU is the billed vCPU allocation.
	AllocCPU float64
	// AllocMemGB is the billed memory allocation in GB.
	AllocMemGB float64
	// rounded[i] is allocation rule i's amount after its granularity.
	rounded [maxRules]float64
}

// Flavor resolves a recorded sandbox flavor (vCPUs, MB) under the
// tariff: the platform's allocation mapping applies, as in MapRequest.
func (t *Tariff) Flavor(vcpu, memMB float64) Flavor {
	return t.flavor(t.mapping.apply(vcpu, memMB))
}

// flavor resolves an already mapped allocation (vCPUs, GB).
func (t *Tariff) flavor(cpu, memGB float64) Flavor {
	f := Flavor{AllocCPU: cpu, AllocMemGB: memGB}
	for i := range t.rules[:t.n] {
		if r := &t.rules[i]; r.src == FromAllocation {
			f.rounded[i] = roundUpF(r.res.of(cpu, memGB), r.gran)
		}
	}
	return f
}

// Usage is the per-request input of Equation (1): how long a request
// ran and what it consumed.
type Usage struct {
	// Duration is the wall-clock execution duration.
	Duration time.Duration
	// InitDuration is the billed initialization time (cold starts).
	InitDuration time.Duration
	// InstanceLifespan is the sandbox lifespan for instance-based
	// billing; zero floors it at the turnaround time.
	InstanceLifespan time.Duration
	// CPUTime is the consumed CPU time.
	CPUTime time.Duration
	// MemUsedGB is the peak consumed memory in GB.
	MemUsedGB float64
}

// Charge applies Equation (1) to one request of flavor f, which must
// come from the same tariff, and writes the outcome to ch. A Charge has
// more fields than the compiler keeps in registers, so a returned one
// would be copied through the stack on every request; writing into the
// caller's avoids the copy.
func (t *Tariff) Charge(f *Flavor, u Usage, ch *Charge) {
	bt := t.billable(u.Duration, u.InitDuration, u.InstanceLifespan)
	secs := bt.Seconds()
	// The sums live in locals, not in ch, so they stay in registers
	// across the rules.
	var cpu, mem, cost float64
	for i := range t.rules[:t.n] {
		r := &t.rules[i]
		var amount float64 // in resource units (vCPU or GB), or resource-seconds
		switch r.src {
		case FromAllocation:
			amount = f.rounded[i] * secs
		case FromUsage:
			amount = roundUpF(r.res.of(u.CPUTime.Seconds(), u.MemUsedGB), r.gran)
			if r.perDuration {
				amount *= secs
			}
		}
		switch r.res {
		case resCPU:
			cpu += amount
		case resMem:
			mem += amount
		}
		cost += amount * r.price
	}
	// Field by field: a composite literal would be built on the stack
	// and copied into *ch.
	ch.BillableTime, ch.CPUSeconds, ch.MemGBSeconds, ch.ResourceCost, ch.Fee = bt, cpu, mem, cost, t.fee
}
