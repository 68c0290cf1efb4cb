package billing

import (
	"time"

	"slscost/internal/stats"
	"slscost/internal/trace"
)

// This file implements the trace-driven billing analyses of §2.3–§2.5:
// billable-resource inflation under representative billing models
// (Figure 2), cold-start cost accounting (Figure 4), and rounding/fee
// inflation (Figure 5).

// MapRequest converts one trace record into the Invocation a platform
// would bill, applying the platform's control-knob constraints the way
// §2.3 maps Huawei allocations to each provider:
//
//   - AWS-style proportional allocation picks the larger of the recorded
//     memory and the memory implied by the recorded vCPUs, so neither
//     resource is under-provisioned.
//   - Azure Consumption runs every request in its fixed 1.5 GB / 1 vCPU
//     sandbox and bills consumed memory.
//   - Cloudflare runs in fixed 128 MB sandboxes and bills consumed CPU.
//   - Other platforms adopt the recorded allocation directly.
func MapRequest(m Model, r trace.Request) Invocation {
	cpu, memGB := mappingFor(m.Platform).apply(r.AllocCPU, r.AllocMemMB)
	return Invocation{
		Duration:     r.Duration,
		InitDuration: r.InitDuration,
		AllocCPU:     cpu,
		AllocMemGB:   memGB,
		CPUTime:      r.CPUTime,
		MemUsedGB:    r.MemUsedMB / 1024,
	}
}

// RequestUsage is the billable usage of one trace record as recorded:
// its execution and initialization times and its consumption.
func RequestUsage(r *trace.Request) Usage {
	return Usage{
		Duration:     r.Duration,
		InitDuration: r.InitDuration,
		CPUTime:      r.CPUTime,
		MemUsedGB:    r.MemUsedMB / 1024,
	}
}

// InflationResult is the Figure 2 output for one billing model: billable
// resource distributions and their inflation over actual consumption.
type InflationResult struct {
	Model string
	// BillableCPUSeconds and BillableMemGBSeconds are per-request billable
	// resources; entries are omitted when the model does not bill the
	// resource at all (e.g. CPU for Azure Consumption).
	BillableCPUSeconds   []float64
	BillableMemGBSeconds []float64
	// MeanCPUInflation is the aggregate inflation factor
	// sum(billable)/sum(actual) over requests with non-zero actual CPU
	// use; MeanMemInflation likewise for memory. The aggregate ratio is
	// what the paper's "billable vCPU time exceeds actual CPU usage by a
	// factor of 1.01×…3.63× on average" headline measures: it weights
	// requests by their resource consumption instead of letting very short
	// requests dominate.
	MeanCPUInflation float64
	MeanMemInflation float64
}

// billsCPU reports whether the model has any CPU rule (even zero-priced,
// as with proportional-allocation platforms whose CPU charge is embedded).
func billsCPU(m Model) bool {
	for _, r := range m.Rules {
		if r.Resource == CPU {
			return true
		}
	}
	return false
}

func billsMem(m Model) bool {
	for _, r := range m.Rules {
		if r.Resource == Memory {
			return true
		}
	}
	return false
}

// AnalyzeInflation computes Figure 2 for the given models over a trace:
// per-request billable vCPU-seconds and GB-seconds under each model, and
// the mean inflation ratio versus actual consumption.
func AnalyzeInflation(tr *trace.Trace, models []Model) []InflationResult {
	out := make([]InflationResult, 0, len(models))
	for _, m := range models {
		res := InflationResult{Model: m.Platform}
		var billedCPU, actualCPU, billedMem, actualMem []float64
		t := Compile(m)
		cpu, mem := billsCPU(m), billsMem(m)
		var ch Charge
		for i := range tr.Requests {
			r := &tr.Requests[i]
			f := t.Flavor(r.AllocCPU, r.AllocMemMB)
			t.Charge(&f, RequestUsage(r), &ch)
			if cpu {
				res.BillableCPUSeconds = append(res.BillableCPUSeconds, ch.CPUSeconds)
				if actual := r.ActualCPUSeconds(); actual > 0 {
					billedCPU = append(billedCPU, ch.CPUSeconds)
					actualCPU = append(actualCPU, actual)
				}
			}
			if mem {
				res.BillableMemGBSeconds = append(res.BillableMemGBSeconds, ch.MemGBSeconds)
				if actual := r.ActualMemGBSeconds(); actual > 0 {
					billedMem = append(billedMem, ch.MemGBSeconds)
					actualMem = append(actualMem, actual)
				}
			}
		}
		res.MeanCPUInflation = stats.RatioOfSums(billedCPU, actualCPU)
		res.MeanMemInflation = stats.RatioOfSums(billedMem, actualMem)
		out = append(out, res)
	}
	return out
}

// ActualUsage returns the per-request actual vCPU-seconds and GB-seconds
// of the trace — the "Actual Usage" baseline curve in Figure 2.
func ActualUsage(tr *trace.Trace) (cpuSeconds, memGBSeconds []float64) {
	cpuSeconds = make([]float64, tr.Len())
	memGBSeconds = make([]float64, tr.Len())
	for i, r := range tr.Requests {
		cpuSeconds[i] = r.ActualCPUSeconds()
		memGBSeconds[i] = r.ActualMemGBSeconds()
	}
	return cpuSeconds, memGBSeconds
}

// ColdStartDiff is one Figure 4 sample: the billable resources consumed by
// a sandbox's initialization versus all subsequent request executions in
// that sandbox, in wall-clock allocation terms.
type ColdStartDiff struct {
	PodID int
	// CPUDiff = requests' billable vCPU-seconds − cold start's billable
	// vCPU-seconds; negative means initialization alone out-consumed every
	// later request combined. MemDiff likewise in GB-seconds.
	CPUDiff float64
	MemDiff float64
}

// AnalyzeColdStarts computes Figure 4 over a trace: for every traceable
// cold start (pod whose first request is cold), the difference between the
// wall-clock allocation-based billable resources of all request executions
// in the pod and those of the initialization phase.
func AnalyzeColdStarts(tr *trace.Trace) []ColdStartDiff {
	pods := tr.ByPod()
	var out []ColdStartDiff
	for pod, idxs := range pods {
		first := tr.Requests[idxs[0]]
		if !first.ColdStart || first.InitDuration <= 0 {
			continue
		}
		initSecs := first.InitDuration.Seconds()
		initCPU := first.AllocCPU * initSecs
		initMem := first.AllocMemMB / 1024 * initSecs
		var execCPU, execMem float64
		for _, i := range idxs {
			r := tr.Requests[i]
			execCPU += r.AllocCPUSeconds()
			execMem += r.AllocMemGBSeconds()
		}
		out = append(out, ColdStartDiff{
			PodID:   pod,
			CPUDiff: execCPU - initCPU,
			MemDiff: execMem - initMem,
		})
	}
	return out
}

// FractionNonPositive returns the fraction of diffs (selected by sel) that
// are zero or negative — the paper's 42.1% headline for Figure 4.
func FractionNonPositive(diffs []ColdStartDiff, sel func(ColdStartDiff) float64) float64 {
	if len(diffs) == 0 {
		return 0
	}
	n := 0
	for _, d := range diffs {
		if sel(d) <= 0 {
			n++
		}
	}
	return float64(n) / float64(len(diffs))
}

// RoundingInflation is the Figure 5 (right) output: how much billable time
// and billable memory the rounding practices add per request.
type RoundingInflation struct {
	// RoundedUpTimeMs are per-request (billable − raw) wall-clock times in
	// milliseconds added by the time policy.
	RoundedUpTimeMs []float64
	// MeanRoundedUpTimeMs is their mean (paper: 77.12 ms for 100 ms
	// granularity; 61.35 ms for 1 ms granularity with a 100 ms cutoff).
	MeanRoundedUpTimeMs float64
	// RoundedUpMemGBSeconds are per-request billable-memory additions from
	// the memory granularity (paper: mean 2.67e-2 GB-s at 128 MB).
	RoundedUpMemGBSeconds []float64
	// MeanRoundedUpMemGBSeconds is their mean.
	MeanRoundedUpMemGBSeconds float64
}

// TimePolicy describes a billable-time rounding policy for Figure 5.
type TimePolicy struct {
	Name        string
	Granularity time.Duration
	MinCutoff   time.Duration
}

// AnalyzeRounding computes Figure 5 (right) for a time policy and a memory
// granularity (in GB; 0 disables the memory analysis), considering only
// requests of at least minDuration (the paper filters to ≥1 ms).
func AnalyzeRounding(tr *trace.Trace, pol TimePolicy, memGranGB float64, minDuration time.Duration) RoundingInflation {
	// The policy is an execution-time tariff that bills consumed memory
	// per second at the memory granularity.
	t := Compile(Model{
		Platform:        pol.Name,
		Basis:           ExecutionTime,
		TimeGranularity: pol.Granularity,
		MinBillableTime: pol.MinCutoff,
		Rules:           []Rule{{Resource: Memory, Source: FromUsage, Granularity: memGranGB, PerDuration: true}},
	})
	var f Flavor // the tariff bills no allocation
	var out RoundingInflation
	var ch Charge
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Duration < minDuration {
			continue
		}
		t.Charge(&f, Usage{Duration: r.Duration, MemUsedGB: r.MemUsedMB / 1024}, &ch)
		out.RoundedUpTimeMs = append(out.RoundedUpTimeMs,
			float64(ch.BillableTime-r.Duration)/float64(time.Millisecond))
		if memGranGB > 0 {
			rawMem := r.MemUsedMB / 1024 * r.Duration.Seconds()
			out.RoundedUpMemGBSeconds = append(out.RoundedUpMemGBSeconds, ch.MemGBSeconds-rawMem)
		}
	}
	out.MeanRoundedUpTimeMs = stats.Mean(out.RoundedUpTimeMs)
	out.MeanRoundedUpMemGBSeconds = stats.Mean(out.RoundedUpMemGBSeconds)
	return out
}

// FeeEquivalent is one Figure 5 (left) point: the invocation fee of a
// platform expressed as equivalent billable wall-clock milliseconds at a
// given vCPU allocation.
type FeeEquivalent struct {
	Platform     string
	AllocCPU     float64
	EquivalentMs float64
}

// FeeEquivalents sweeps vCPU allocations for each model, pairing each
// fractional allocation with a proportional memory size (AWS's ratio) —
// Figure 5 (left).
func FeeEquivalents(models []Model, vcpus []float64) []FeeEquivalent {
	var out []FeeEquivalent
	for _, m := range models {
		for _, v := range vcpus {
			memGB := v * AWSMemPerVCPUMB / 1024
			eq := m.FeeEquivalentTime(v, memGB)
			out = append(out, FeeEquivalent{
				Platform:     m.Platform,
				AllocCPU:     v,
				EquivalentMs: float64(eq) / float64(time.Millisecond),
			})
		}
	}
	return out
}
