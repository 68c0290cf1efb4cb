// Package billing implements the generic serverless billing model of the
// paper's Equation (1) and the Table 1 catalog of public-platform billing
// practices.
//
// A Model converts one function invocation into a Charge: the billable
// wall-clock time after granularity rounding and minimum cutoffs, the
// billable resource vector (vCPU-seconds and GB-seconds, price-independent
// so inflation ratios can be compared across platforms), and the monetary
// cost including the fixed invocation fee.
package billing

import (
	"fmt"
	"time"
)

// Resource identifies a billable computing resource.
type Resource string

const (
	// CPU is measured in vCPU-seconds.
	CPU Resource = "cpu"
	// Memory is measured in GB-seconds.
	Memory Resource = "memory"
)

// TimeBasis selects which wall-clock span an invocation is billed over
// (Table 1's "Billable Time" column).
type TimeBasis int

const (
	// ExecutionTime bills the request execution duration only.
	ExecutionTime TimeBasis = iota
	// TurnaroundTime bills execution plus initialization (cold start).
	TurnaroundTime
	// InstanceTime bills the whole runtime-instance lifespan regardless of
	// requests (instance-based billing).
	InstanceTime
)

// String returns a short name for the basis.
func (b TimeBasis) String() string {
	switch b {
	case ExecutionTime:
		return "execution"
	case TurnaroundTime:
		return "turnaround"
	case InstanceTime:
		return "instance"
	default:
		return fmt.Sprintf("TimeBasis(%d)", int(b))
	}
}

// Source says whether a rule bills the allocated amount or the consumed
// amount of a resource (R_ALLOC vs R_USG in Equation 1).
type Source int

const (
	// FromAllocation bills the provisioned amount over the billable time.
	FromAllocation Source = iota
	// FromUsage bills the actually consumed amount.
	FromUsage
)

// Rule bills one resource.
type Rule struct {
	// Resource is the billed resource.
	Resource Resource
	// Source selects allocation- or usage-based billing.
	Source Source
	// Granularity rounds the resource amount up (vCPUs for CPU, GB for
	// Memory; for usage rules with PerDuration=false, resource-seconds).
	// Zero means no rounding.
	Granularity float64
	// UnitPrice is dollars per vCPU-second or per GB-second.
	UnitPrice float64
	// PerDuration multiplies the (rounded) amount by the billable time.
	// Allocation rules always do; usage rules that bill an integral
	// quantity directly (Cloudflare's consumed CPU seconds) do not.
	PerDuration bool
}

// Model is one platform's billing model: Equation (1) with the Table 1
// parameters.
type Model struct {
	// Platform is the display name.
	Platform string
	// Basis is the billable wall-clock time definition.
	Basis TimeBasis
	// TimeGranularity rounds billable time up (e.g. 1 ms, 100 ms).
	TimeGranularity time.Duration
	// MinBillableTime is the minimum billing cutoff (e.g. Azure's 100 ms).
	MinBillableTime time.Duration
	// Rules bill individual resources.
	Rules []Rule
	// InvocationFee is the fixed per-request charge C0 in dollars.
	InvocationFee float64
	// Notes documents knob constraints (for the catalog listing).
	Notes string
}

// Invocation is the billable view of one request.
type Invocation struct {
	// Duration is the wall-clock execution duration.
	Duration time.Duration
	// InitDuration is the sandbox initialization time (cold starts).
	InitDuration time.Duration
	// InstanceLifespan is the sandbox lifespan for instance-based billing;
	// if zero, the turnaround time is used as a floor.
	InstanceLifespan time.Duration
	// AllocCPU is the allocated vCPUs.
	AllocCPU float64
	// AllocMemGB is the allocated memory in GB.
	AllocMemGB float64
	// CPUTime is the consumed CPU time.
	CPUTime time.Duration
	// MemUsedGB is the peak consumed memory in GB.
	MemUsedGB float64
}

// Charge is the outcome of billing one invocation.
type Charge struct {
	// BillableTime is the rounded, cutoff-applied wall-clock time.
	BillableTime time.Duration
	// CPUSeconds is the billable CPU in vCPU-seconds (0 when the model has
	// no CPU rule; memory-priced platforms embed CPU in the memory rate).
	CPUSeconds float64
	// MemGBSeconds is the billable memory in GB-seconds.
	MemGBSeconds float64
	// ResourceCost is the dollar cost of the resource rules.
	ResourceCost float64
	// Fee is the fixed invocation fee applied.
	Fee float64
}

// Total returns the total dollar cost of the invocation.
func (c Charge) Total() float64 { return c.ResourceCost + c.Fee }

// BillableTime returns the billable wall-clock time for inv under the
// model's basis, granularity, and minimum cutoff.
func (m Model) BillableTime(inv Invocation) time.Duration {
	return m.timing().billable(inv.Duration, inv.InitDuration, inv.InstanceLifespan)
}

// Bill applies Equation (1) to one invocation, billing its allocation
// as given (MapRequest applies the platform's mapping). It compiles the
// model per call, and panics as Compile does on a model with more than
// four rules; to bill many requests, Compile once and Charge each.
func (m Model) Bill(inv Invocation) Charge {
	var t Tariff
	t.compile(&m)
	f := t.flavor(inv.AllocCPU, inv.AllocMemGB)
	var ch Charge
	t.Charge(&f, Usage{
		Duration:         inv.Duration,
		InitDuration:     inv.InitDuration,
		InstanceLifespan: inv.InstanceLifespan,
		CPUTime:          inv.CPUTime,
		MemUsedGB:        inv.MemUsedGB,
	}, &ch)
	return ch
}

// PerSecondRate returns the dollars per second this model charges for a
// steadily running invocation with the given allocation (usage assumed
// equal to allocation). It ignores granularity, cutoffs, and the fee; it
// is the rate used for the price-comparison scatter of Figure 1 and the
// fee-equivalent-time conversion of Figure 5 (left).
func (m Model) PerSecondRate(allocCPU, allocMemGB float64) float64 {
	var rate float64
	for _, r := range m.Rules {
		var amt float64
		switch r.Resource {
		case CPU:
			amt = allocCPU
		case Memory:
			amt = allocMemGB
		}
		// A usage rule billing CPU-seconds accrues allocCPU seconds of CPU
		// per wall-clock second when fully busy.
		rate += amt * r.UnitPrice
	}
	return rate
}

// FeeEquivalentTime converts the invocation fee into the equivalent
// billable wall-clock time at the given allocation — Figure 5 (left).
func (m Model) FeeEquivalentTime(allocCPU, allocMemGB float64) time.Duration {
	rate := m.PerSecondRate(allocCPU, allocMemGB)
	if rate <= 0 || m.InvocationFee <= 0 {
		return 0
	}
	return time.Duration(m.InvocationFee / rate * float64(time.Second))
}

// Validate reports whether the model is internally consistent.
func (m Model) Validate() error {
	if m.Platform == "" {
		return fmt.Errorf("billing: model without platform name")
	}
	if m.TimeGranularity < 0 || m.MinBillableTime < 0 {
		return fmt.Errorf("billing: %s: negative time parameter", m.Platform)
	}
	if m.InvocationFee < 0 {
		return fmt.Errorf("billing: %s: negative invocation fee", m.Platform)
	}
	if len(m.Rules) == 0 {
		return fmt.Errorf("billing: %s: no billing rules", m.Platform)
	}
	for i, r := range m.Rules {
		if r.Resource != CPU && r.Resource != Memory {
			return fmt.Errorf("billing: %s rule %d: unknown resource %q", m.Platform, i, r.Resource)
		}
		if r.Source != FromAllocation && r.Source != FromUsage {
			return fmt.Errorf("billing: %s rule %d: unknown source %d", m.Platform, i, int(r.Source))
		}
		for j := range i {
			if o := m.Rules[j]; o.Resource == r.Resource && o.Source == r.Source {
				return fmt.Errorf("billing: %s rules %d and %d bill %s from the same source", m.Platform, j, i, r.Resource)
			}
		}
		if r.UnitPrice < 0 || r.Granularity < 0 {
			return fmt.Errorf("billing: %s rule %d: negative price or granularity", m.Platform, i)
		}
		if r.Source == FromAllocation && !r.PerDuration {
			return fmt.Errorf("billing: %s rule %d: allocation rules must be per-duration", m.Platform, i)
		}
	}
	return nil
}
