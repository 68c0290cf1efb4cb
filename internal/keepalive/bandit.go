package keepalive

import (
	"fmt"
	"time"

	"slscost/internal/stats"
)

// This file implements the epsilon-greedy catalog bandit: instead of
// learning a window directly (adaptive.go), it learns which of the
// Table 2 static policies is cheapest for this function's traffic and
// pulls that arm, with ε-exploration to keep re-checking the others
// under non-stationary load. Cost is scored in idle-vCPU-seconds plus
// a cold-start penalty, evaluated counterfactually for every arm on
// every observed gap, so the bandit converges on full information per
// pull rather than the single realized reward.

// Bandit is an epsilon-greedy decider over a set of static policy
// arms. All randomness comes from its own construction-time seeded
// stream — never the host's — so its decisions are a pure function of
// (seed, call sequence) and replay identically in the differential
// oracle regardless of worker count.
type Bandit struct {
	arms []Policy
	rng  *stats.Rand
	// epsilon is the exploration probability per decision.
	epsilon float64
	// coldCost is the penalty (in idle-vCPU-second units) charged when a
	// gap outlives a window and the next arrival starts cold.
	coldCost float64

	// Per-arm running mean of counterfactual cost and pull/update counts.
	mean    []float64
	updates []int

	// The most recent decision, awaiting its realized gap. Several pods
	// of one function share the decider, so attribution of a gap to the
	// exact decision that produced it is approximate (last decision
	// wins); the regret metric inherits that approximation.
	pendingArm    int
	pendingWindow time.Duration
	hasPending    bool

	st Stats
}

// NewBandit creates an epsilon-greedy bandit over the given arms (the
// Table 2 catalog when arms is nil) with its own stream seeded by
// fnSeed.
func NewBandit(arms []Policy, epsilon, coldCost float64, fnSeed uint64) (*Bandit, error) {
	if arms == nil {
		arms = Catalog()
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("keepalive: bandit with no arms")
	}
	if epsilon < 0 || epsilon > 1 {
		return nil, fmt.Errorf("keepalive: bandit epsilon %v outside [0,1]", epsilon)
	}
	if coldCost < 0 {
		return nil, fmt.Errorf("keepalive: negative bandit cold cost %v", coldCost)
	}
	for _, a := range arms {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	return &Bandit{
		arms:     arms,
		rng:      stats.NewRand(fnSeed),
		epsilon:  epsilon,
		coldCost: coldCost,
		mean:     make([]float64, len(arms)),
		updates:  make([]int, len(arms)),
	}, nil
}

// Name identifies the decider family.
func (b *Bandit) Name() string { return "bandit" }

// expectedWindow is the arm's midpoint window, the deterministic proxy
// used for counterfactual scoring (the realized decision uses the
// arm's actual sampled window).
func expectedWindow(p Policy) time.Duration {
	return (p.MinWindow + p.MaxWindow) / 2
}

// armCost scores holding a sandbox for window against a realized idle
// gap: idle vCPU-seconds actually held, plus the cold penalty if the
// window closed before the next arrival.
func (b *Bandit) armCost(p Policy, window, gap time.Duration) float64 {
	held := window
	if gap < held {
		held = gap
	}
	cost := p.IdleCPU(1) * held.Seconds()
	if gap > window {
		cost += b.coldCost
	}
	return cost
}

// ObserveIdle scores every arm counterfactually against the realized
// gap, charges the pending decision its realized cost, and accumulates
// regret against the best arm in hindsight.
func (b *Bandit) ObserveIdle(gap time.Duration) {
	b.st.Observations++
	if gap < 0 {
		return
	}
	best := -1.0
	for i, arm := range b.arms {
		c := b.armCost(arm, expectedWindow(arm), gap)
		b.updates[i]++
		b.mean[i] += (c - b.mean[i]) / float64(b.updates[i])
		if best < 0 || c < best {
			best = c
		}
	}
	if b.hasPending {
		realized := b.armCost(b.arms[b.pendingArm], b.pendingWindow, gap)
		b.st.RealizedCost += realized
		if excess := realized - best; excess > 0 {
			b.st.Regret += excess
		}
		b.hasPending = false
	}
}

// Window pulls an arm — exploring with probability epsilon, otherwise
// exploiting the cheapest mean (never-updated arms are optimistically
// cheapest; ties break to the lowest index) — and samples the chosen
// arm's window on the bandit's own stream.
func (b *Bandit) Window(instances int) time.Duration {
	b.st.Decisions++
	var arm int
	if b.epsilon > 0 && b.rng.Float64() < b.epsilon {
		arm = b.rng.Intn(len(b.arms))
		b.st.Explored++
	} else {
		arm = 0
		for i := 1; i < len(b.arms); i++ {
			if b.score(i) < b.score(arm) {
				arm = i
			}
		}
		b.st.Exploited++
	}
	window := b.arms[arm].Window(b.rng, instances)
	b.pendingArm = arm
	b.pendingWindow = window
	b.hasPending = true
	return window
}

// score is the arm's exploitation key: optimistic zero before the
// first update so every arm gets tried.
func (b *Bandit) score(i int) float64 {
	if b.updates[i] == 0 {
		return 0
	}
	return b.mean[i]
}

// Arm returns the arm the bandit would currently exploit.
func (b *Bandit) Arm() Policy {
	arm := 0
	for i := 1; i < len(b.arms); i++ {
		if b.score(i) < b.score(arm) {
			arm = i
		}
	}
	return b.arms[arm]
}

// Stats returns the decider's cumulative telemetry.
func (b *Bandit) Stats() Stats { return b.st }
