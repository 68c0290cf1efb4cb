package fleet

import (
	"fmt"

	"slscost/internal/stats"
)

// This file implements the pluggable sandbox placement policies the
// cluster scheduler chooses hosts with. Placement happens at sandbox
// (pod) granularity: a pod is placed once, on its first request, and
// every later request of the pod routes to the same host — mirroring how
// production FaaS schedulers bind a sandbox to a machine for its
// lifetime.

// HostLoad is the placement-time view of one host: its capacity and the
// resources currently committed to live sandboxes.
type HostLoad struct {
	// Spec is the host's capacity.
	Spec HostSpec
	// CommittedVCPU and CommittedMemMB are the flavor resources of every
	// sandbox currently placed (running or in keep-alive) on the host.
	CommittedVCPU  float64
	CommittedMemMB float64
	// Sandboxes is the number of live sandboxes on the host.
	Sandboxes int
	// Unavailable marks a host the fault plan has draining or down at
	// the placement instant; Fits fails, so every policy skips it.
	Unavailable bool
}

// Fits reports whether a sandbox of the given flavor can be added without
// over-committing either resource. A fault-masked host fits nothing.
func (h HostLoad) Fits(vcpu, memMB float64) bool {
	if h.Unavailable {
		return false
	}
	return h.CommittedVCPU+vcpu <= h.Spec.VCPU+capacityEpsilon &&
		h.CommittedMemMB+memMB <= h.Spec.MemMB+capacityEpsilon
}

// capacityEpsilon absorbs float rounding when summed flavor fractions
// (e.g. ten 0.1-vCPU sandboxes) meet an integral capacity exactly.
const capacityEpsilon = 1e-9

// VCPUFraction returns committed vCPUs over capacity.
func (h HostLoad) VCPUFraction() float64 {
	if h.Spec.VCPU <= 0 {
		return 0
	}
	return h.CommittedVCPU / h.Spec.VCPU
}

// View is the cluster state a policy chooses from.
type View struct {
	Hosts []HostLoad
	// Next is the host after the last placement, wrapped to the size
	// of that placement's view: where round-robin resumes. The
	// placement pass sets it.
	Next int
}

// Policy decides which host a new sandbox lands on.
//
// Place returns the index of a host in v that Fits the flavor, or -1 when
// no host can take it (the sandbox is then rejected). rng is the
// placer's deterministic stream. A policy decides from its arguments
// alone, so placement is a pure function of the configuration and the
// pods, and one Config replays identically any number of times. The
// built-in policies are stateless values.
type Policy interface {
	Name() string
	Place(v *View, vcpu, memMB float64, rng *stats.Rand) int
}

// randomPolicy picks uniformly among the hosts with room.
type randomPolicy struct{}

func (randomPolicy) Name() string { return "random" }

func (randomPolicy) Place(v *View, vcpu, memMB float64, rng *stats.Rand) int {
	n := 0
	for _, h := range v.Hosts {
		if h.Fits(vcpu, memMB) {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	// Draw the k-th fitting host, then walk to it: the draw and the
	// pick are those of indexing a list of the fitting hosts, without
	// building one.
	k := rng.Intn(n)
	for i, h := range v.Hosts {
		if h.Fits(vcpu, memMB) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("unreachable: fewer fitting hosts on the second walk")
}

// roundRobinPolicy cycles through hosts from v.Next, skipping full
// ones.
type roundRobinPolicy struct{}

func (roundRobinPolicy) Name() string { return "round-robin" }

func (roundRobinPolicy) Place(v *View, vcpu, memMB float64, _ *stats.Rand) int {
	n := len(v.Hosts)
	for off := 0; off < n; off++ {
		if i := (v.Next + off) % n; v.Hosts[i].Fits(vcpu, memMB) {
			return i
		}
	}
	return -1
}

// leastLoadedPolicy spreads sandboxes onto the host with the lowest
// committed vCPU fraction (ties break toward the lower host index).
type leastLoadedPolicy struct{}

func (leastLoadedPolicy) Name() string { return "least-loaded" }

func (leastLoadedPolicy) Place(v *View, vcpu, memMB float64, _ *stats.Rand) int {
	best := -1
	for i, h := range v.Hosts {
		if !h.Fits(vcpu, memMB) {
			continue
		}
		if best == -1 || h.VCPUFraction() < v.Hosts[best].VCPUFraction() {
			best = i
		}
	}
	return best
}

// binPackPolicy concentrates sandboxes best-fit-style: among hosts with
// room it picks the one left with the least free vCPU (ties broken by
// least free memory, then lower index), keeping the rest of the fleet
// empty for large flavors.
type binPackPolicy struct{}

func (binPackPolicy) Name() string { return "bin-pack" }

func (binPackPolicy) Place(v *View, vcpu, memMB float64, _ *stats.Rand) int {
	best := -1
	var bestCPU, bestMem float64
	for i, h := range v.Hosts {
		if !h.Fits(vcpu, memMB) {
			continue
		}
		freeCPU := h.Spec.VCPU - h.CommittedVCPU - vcpu
		freeMem := h.Spec.MemMB - h.CommittedMemMB - memMB
		if best == -1 || freeCPU < bestCPU || (freeCPU == bestCPU && freeMem < bestMem) {
			best, bestCPU, bestMem = i, freeCPU, freeMem
		}
	}
	return best
}

// NewPolicy returns the named built-in policy.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "random":
		return randomPolicy{}, nil
	case "round-robin":
		return roundRobinPolicy{}, nil
	case "least-loaded":
		return leastLoadedPolicy{}, nil
	case "bin-pack":
		return binPackPolicy{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown placement policy %q (have %v)", name, PolicyNames())
}

// PolicyNames lists the built-in policies.
func PolicyNames() []string {
	return []string{"random", "round-robin", "least-loaded", "bin-pack"}
}
