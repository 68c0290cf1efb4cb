// Package core is the library's primary public API: the top-down
// serverless cost analyzer the paper builds. It ties the three layers of
// the study together — user-facing billing models (§2), request serving
// architecture (§3), and OS scheduling (§4) — into one per-platform
// profile, and decomposes a workload's cost across those layers, labeling
// each finding with the paper's implications (I1–I10).
package core

import (
	"fmt"
	"time"

	"slscost/internal/billing"
	"slscost/internal/cfs"
	"slscost/internal/keepalive"
	"slscost/internal/serving"
	"slscost/internal/trace"
)

// Profile is a complete cost model of one public serverless platform:
// what it bills, how it serves requests, how it keeps sandboxes alive,
// and how the host kernel schedules them (Table 1 + Figure 7 + Table 2 +
// Table 3).
type Profile struct {
	// Name is the platform's display name.
	Name string
	// Billing is the Table 1 billing model.
	Billing billing.Model
	// Serving is the request serving architecture.
	Serving serving.Architecture
	// ServingOverhead is the per-request latency the serving layer adds
	// (the Figure 8 measurement).
	ServingOverhead time.Duration
	// KeepAlive is the Table 2 keep-alive policy.
	KeepAlive keepalive.Policy
	// SchedPeriod and SchedTickHz are the Table 3 scheduling parameters.
	SchedPeriod time.Duration
	SchedTickHz int
	// Concurrency is the serving concurrency model: 1 for
	// single-concurrency platforms, the default container concurrency
	// otherwise.
	Concurrency int
}

// SchedConfig builds the platform's bandwidth-control config for a
// fractional vCPU allocation.
func (p Profile) SchedConfig(vcpuFraction float64) cfs.Config {
	return cfs.ConfigFor(vcpuFraction, p.SchedPeriod, p.SchedTickHz, cfs.CFS)
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("core: profile without name")
	}
	if err := p.Billing.Validate(); err != nil {
		return err
	}
	if err := p.KeepAlive.Validate(); err != nil {
		return err
	}
	if p.SchedPeriod <= 0 || p.SchedTickHz <= 0 {
		return fmt.Errorf("core: %s: missing scheduling parameters", p.Name)
	}
	if p.Concurrency < 1 {
		return fmt.Errorf("core: %s: concurrency below 1", p.Name)
	}
	return nil
}

// The built-in platform profiles, assembled from the paper's Tables 1–3
// and Figures 8–9.
func AWS() Profile {
	return Profile{
		Name:            "aws-lambda",
		Billing:         billing.AWSLambda,
		Serving:         serving.APIPolling,
		ServingOverhead: 1170 * time.Microsecond, // Figure 8: ≈1.17 ms
		KeepAlive:       keepalive.AWS,
		SchedPeriod:     20 * time.Millisecond, // Table 3
		SchedTickHz:     250,
		Concurrency:     1,
	}
}

func GCP() Profile {
	return Profile{
		Name:            "gcp-cloud-run",
		Billing:         billing.GCPRequest,
		Serving:         serving.HTTPServer,
		ServingOverhead: 5930 * time.Microsecond, // Figure 8: up to ≈5.93 ms
		KeepAlive:       keepalive.GCP,
		SchedPeriod:     100 * time.Millisecond, // Table 3
		SchedTickHz:     1000,
		Concurrency:     80,
	}
}

func Azure() Profile {
	return Profile{
		Name:            "azure-consumption",
		Billing:         billing.AzureConsumption,
		Serving:         serving.HTTPServer,
		ServingOverhead: 4200 * time.Microsecond,
		KeepAlive:       keepalive.Azure,
		SchedPeriod:     20 * time.Millisecond, // not inferred; CFS-like default
		SchedTickHz:     250,
		Concurrency:     100,
	}
}

func IBM() Profile {
	return Profile{
		Name:            "ibm-code-engine",
		Billing:         billing.IBMCodeEngine,
		Serving:         serving.HTTPServer,
		ServingOverhead: 3500 * time.Microsecond,
		KeepAlive:       keepalive.GCP,         // scale-down delay, Knative-based
		SchedPeriod:     10 * time.Millisecond, // Table 3
		SchedTickHz:     250,
		Concurrency:     100,
	}
}

func Cloudflare() Profile {
	return Profile{
		Name:            "cloudflare-workers",
		Billing:         billing.Cloudflare,
		Serving:         serving.DirectExecution,
		ServingOverhead: 10 * time.Microsecond, // below Cloudflare's 0.01 ms floor
		KeepAlive:       keepalive.Cloudflare,
		SchedPeriod:     100 * time.Millisecond,
		SchedTickHz:     1000,
		Concurrency:     1,
	}
}

// Profiles returns all built-in platform profiles.
func Profiles() []Profile {
	return []Profile{AWS(), GCP(), Azure(), IBM(), Cloudflare()}
}

// ProfileByName returns a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// BillingLayer is the §2 portion of a cost report.
type BillingLayer struct {
	// BilledCPUSeconds and ActualCPUSeconds are totals over the trace.
	BilledCPUSeconds float64
	ActualCPUSeconds float64
	// BilledMemGBs and ActualMemGBs likewise for memory.
	BilledMemGBs float64
	ActualMemGBs float64
	// CPUInflation and MemInflation are billed/actual (I3).
	CPUInflation float64
	MemInflation float64
	// FeeShare is the invocation fees' fraction of the total bill (I5).
	FeeShare float64
	// TotalCost is the trace's total bill in dollars.
	TotalCost float64
	// ColdStartBilledShare is the fraction of billable time attributable
	// to initialization under turnaround billing (I4).
	ColdStartBilledShare float64
}

// ArchitectureLayer is the §3 portion of a cost report.
type ArchitectureLayer struct {
	// Architecture is the serving model.
	Architecture serving.Architecture
	// OverheadPerRequest is the serving layer's added latency (I7).
	OverheadPerRequest time.Duration
	// OverheadBilledSeconds is that overhead summed over the trace —
	// latency the user pays for under wall-clock billing.
	OverheadBilledSeconds float64
	// ColdStartRate is the fraction of requests that cold-started.
	ColdStartRate float64
	// MultiConcurrency reports whether requests share sandboxes (I6).
	MultiConcurrency bool
	// IdleCPUHeld and IdleMemGBHeld are the resources a keep-alive
	// sandbox retains while idle (I9).
	IdleCPUHeld   float64
	IdleMemGBHeld float64
}

// SchedulingLayer is the §4 portion of a cost report.
type SchedulingLayer struct {
	// Period and TickHz are the platform's Table 3 parameters.
	Period time.Duration
	TickHz int
	// MeanVCPUFraction is the trace's mean fractional allocation.
	MeanVCPUFraction float64
	// OverallocationFactor is reciprocal-expected duration divided by
	// simulated duration for the trace's mean request (>1 means the
	// function runs faster than its allocation should allow — I10).
	OverallocationFactor float64
	// QuantizationJumpVCPUs lists the fractional allocations where the
	// mean request's duration jumps (Figure 10's harmonic sequence).
	QuantizationJumpVCPUs []float64
}

// Report is the full top-down decomposition for one platform and trace.
type Report struct {
	Platform     string
	Requests     int
	Billing      BillingLayer
	Architecture ArchitectureLayer
	Scheduling   SchedulingLayer
	// Implications are the paper's I-labels this report's numbers
	// trigger, with a short explanation each.
	Implications []string
}

// Analyzer decomposes workload cost on one platform profile.
type Analyzer struct {
	Profile Profile
}

// NewAnalyzer creates an analyzer after validating the profile.
func NewAnalyzer(p Profile) (*Analyzer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{Profile: p}, nil
}

// AnalyzeTrace produces the top-down cost report for a request trace.
func (a *Analyzer) AnalyzeTrace(tr *trace.Trace) (Report, error) {
	if tr == nil || tr.Len() == 0 {
		return Report{}, fmt.Errorf("core: empty trace")
	}
	p := a.Profile
	rep := Report{Platform: p.Name, Requests: tr.Len()}

	// Billing layer (§2).
	var billedCPU, actualCPU, billedMem, actualMem float64
	var totalCost, totalFees float64
	var billedTime, initTime float64
	cold := 0
	var fracSum float64
	tf := billing.Compile(p.Billing)
	var ch billing.Charge
	for i := range tr.Requests {
		r := &tr.Requests[i]
		f := tf.Flavor(r.AllocCPU, r.AllocMemMB)
		tf.Charge(&f, billing.RequestUsage(r), &ch)
		billedCPU += ch.CPUSeconds
		billedMem += ch.MemGBSeconds
		actualCPU += r.ActualCPUSeconds()
		actualMem += r.ActualMemGBSeconds()
		totalCost += ch.Total()
		totalFees += ch.Fee
		billedTime += ch.BillableTime.Seconds()
		if r.ColdStart {
			cold++
			if p.Billing.Basis == billing.TurnaroundTime {
				initTime += r.InitDuration.Seconds()
			}
		}
		fracSum += minF(f.AllocCPU, 1)
	}
	bl := &rep.Billing
	bl.BilledCPUSeconds, bl.ActualCPUSeconds = billedCPU, actualCPU
	bl.BilledMemGBs, bl.ActualMemGBs = billedMem, actualMem
	if actualCPU > 0 {
		bl.CPUInflation = billedCPU / actualCPU
	}
	if actualMem > 0 {
		bl.MemInflation = billedMem / actualMem
	}
	bl.TotalCost = totalCost
	if totalCost > 0 {
		bl.FeeShare = totalFees / totalCost
	}
	if billedTime > 0 {
		bl.ColdStartBilledShare = initTime / billedTime
	}

	// Architecture layer (§3).
	al := &rep.Architecture
	al.Architecture = p.Serving
	al.OverheadPerRequest = p.ServingOverhead
	al.OverheadBilledSeconds = p.ServingOverhead.Seconds() * float64(tr.Len())
	al.ColdStartRate = float64(cold) / float64(tr.Len())
	al.MultiConcurrency = p.Concurrency > 1
	al.IdleCPUHeld = p.KeepAlive.IdleCPU(1)
	al.IdleMemGBHeld = p.KeepAlive.IdleMemGB(1)

	// Scheduling layer (§4): simulate the trace's mean request at its
	// mean fractional allocation.
	sl := &rep.Scheduling
	sl.Period, sl.TickHz = p.SchedPeriod, p.SchedTickHz
	sl.MeanVCPUFraction = fracSum / float64(tr.Len())
	meanCPU := time.Duration(actualCPU / float64(tr.Len()) * float64(time.Second))
	if meanCPU > 0 && sl.MeanVCPUFraction > 0 && sl.MeanVCPUFraction < 1 {
		cfg := p.SchedConfig(sl.MeanVCPUFraction)
		sim := cfs.Simulate(cfg, meanCPU)
		recip := cfs.ReciprocalDuration(meanCPU, sl.MeanVCPUFraction)
		if sim.WallTime > 0 {
			sl.OverallocationFactor = float64(recip) / float64(sim.WallTime)
		}
		sl.QuantizationJumpVCPUs = quantizationJumps(meanCPU, p.SchedPeriod)
	} else {
		sl.OverallocationFactor = 1
	}

	rep.Implications = implications(rep)
	return rep, nil
}

// minF returns the smaller of two float64s.
func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// quantizationJumps returns the fractional vCPU allocations at which
// Equation (2) predicts duration discontinuities for a task of the given
// CPU demand: quota = demand/n for integer n (Figure 10's harmonic
// sequence), restricted to fractions in (0, 1).
func quantizationJumps(demand, period time.Duration) []float64 {
	var out []float64
	for n := 1; n <= 24; n++ {
		f := float64(demand) / float64(n) / float64(period)
		if f < 1 && f > 0.01 {
			out = append(out, f)
		}
		if f <= 0.01 {
			break
		}
	}
	return out
}

// implications maps a report's numbers to the paper's I-labels.
func implications(r Report) []string {
	var out []string
	if r.Billing.CPUInflation > 1.5 || r.Billing.MemInflation > 1.5 {
		out = append(out, fmt.Sprintf(
			"I3: billable resources inflated %.2fx (CPU) / %.2fx (memory) beyond actual consumption under wall-clock allocation-based billing",
			r.Billing.CPUInflation, r.Billing.MemInflation))
	}
	if r.Billing.ColdStartBilledShare > 0.01 {
		out = append(out, fmt.Sprintf(
			"I4: turnaround-time billing charges initialization: %.1f%% of billable time is cold-start delay",
			r.Billing.ColdStartBilledShare*100))
	}
	if r.Billing.FeeShare > 0.05 {
		out = append(out, fmt.Sprintf(
			"I5: invocation fees are %.1f%% of the bill — disproportionate for short invocations",
			r.Billing.FeeShare*100))
	}
	if r.Architecture.MultiConcurrency {
		out = append(out, "I6: multi-concurrency serving can impose a dual penalty (slowdown and higher bills) if the concurrency knob is left at its default")
	}
	if r.Architecture.Architecture == serving.HTTPServer &&
		r.Architecture.OverheadPerRequest > 2*time.Millisecond {
		out = append(out, fmt.Sprintf(
			"I7: the HTTP-server serving architecture adds %.2f ms per request",
			float64(r.Architecture.OverheadPerRequest)/float64(time.Millisecond)))
	}
	if r.Architecture.IdleCPUHeld > 0 || r.Architecture.IdleMemGBHeld > 0 {
		out = append(out, fmt.Sprintf(
			"I9: keep-alive retains %.2f vCPU / %.2f GB per idle GB allocated — idle capacity someone pays for",
			r.Architecture.IdleCPUHeld, r.Architecture.IdleMemGBHeld))
	}
	if r.Scheduling.OverallocationFactor > 1.05 {
		out = append(out, fmt.Sprintf(
			"I10: coarse OS scheduling overallocates CPU: the mean request runs %.2fx faster than its fractional allocation should allow",
			r.Scheduling.OverallocationFactor))
	}
	return out
}
