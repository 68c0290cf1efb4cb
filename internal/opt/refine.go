package opt

import (
	"context"
	"time"
)

// RefineStep records one probe of the descent.
type RefineStep struct {
	// Coordinate names the knob moved: "ttl" or "overcommit".
	Coordinate string
	// Candidate is the probed configuration.
	Candidate Candidate
	// Objectives are its mean objectives across the scenarios.
	Objectives Objectives
	// Score is the scalarized fitness relative to the start (the start
	// scores exactly 1; lower is better).
	Score float64
	// Accepted reports whether the probe became the new incumbent.
	Accepted bool
}

// RefineResult is a completed refinement: where the descent started,
// where it ended, and every probe along the way.
type RefineResult struct {
	// Start is the grid point the descent began from (TTL resolved to
	// an explicit duration) with its mean objectives.
	Start Summary
	// Best is the incumbent after the final round.
	Best Summary
	// Score is Best's scalarized fitness (start = 1; lower is better).
	Score float64
	// Steps lists every probe in evaluation order.
	Steps []RefineStep
	// Evaluations counts candidate evaluations, start included.
	Evaluations int
}

// The descent's schedule: refineRounds full coordinate passes, each
// probing both neighbors of each continuous knob and then multiplying
// the step by refineShrink, so the search narrows geometrically.
const (
	refineRounds = 3
	refineShrink = 0.5
)

// Refine narrows the continuous knobs — keep-alive TTL and overcommit
// ratio — around a grid point by deterministic coordinate descent:
// each round probes both neighbors of each knob at the current step
// (TTL clamped to ≥ 0, overcommit to ≥ 1), accepts strict
// improvements of the score, then shrinks the step. The score is the
// equal-weight mean of the three objectives, each normalized by the
// start's value. A PlatformTTL start is first resolved to the profile
// window's midpoint so the knob is explicit. Probes that shed more
// load than the start (higher rejected share) are rejected outright —
// cheaper per *served* request by rejecting requests is not an
// optimum. Each scenario is compiled (or fetched through cfg.Planner)
// and pod-scanned once per call, and every probe replays from them.
// Deterministic for any cfg.Workers. Cancelling ctx abandons the
// descent and returns ctx.Err().
func Refine(ctx context.Context, cfg Config, start Candidate) (*RefineResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := start.Validate(); err != nil {
		return nil, err
	}
	if start.KeepAliveTTL < 0 {
		ka := cfg.Profile.KeepAlive
		start.KeepAliveTTL = (ka.MinWindow + ka.MaxWindow) / 2
	}

	scenes, err := resolveScenes(cfg)
	if err != nil {
		return nil, err
	}
	startObj, startRej, err := evalMean(ctx, cfg, scenes, start)
	if err != nil {
		return nil, err
	}
	score := func(o Objectives) float64 {
		sum := 0.0
		for _, t := range [...]struct{ v, base float64 }{
			{o.CostPerMillion, startObj.CostPerMillion},
			{o.ColdStartRate, startObj.ColdStartRate},
			{o.SlowdownP99, startObj.SlowdownP99},
		} {
			base := t.base
			if base <= 0 {
				base = 1 // objective already at its floor: compare absolutely
			}
			sum += t.v / base
		}
		return sum / 3
	}

	res := &RefineResult{
		Start:       Summary{Candidate: start, Objectives: startObj, RejectedShare: startRej},
		Evaluations: 1,
	}
	best, bestObj, bestRej, bestScore := start, startObj, startRej, score(startObj)

	// Initial steps: half the current value, floored so a knob at its
	// lower bound can still move.
	ttlStep := best.KeepAliveTTL / 2
	if ttlStep < 15*time.Second {
		ttlStep = 15 * time.Second
	}
	ocStep := best.Overcommit / 2
	if ocStep < 0.25 {
		ocStep = 0.25
	}

	const improveEps = 1e-9
	for round := 0; round < refineRounds; round++ {
		for _, coord := range []string{"ttl", "overcommit"} {
			for _, dir := range []float64{-1, +1} {
				probe := best
				switch coord {
				case "ttl":
					probe.KeepAliveTTL += time.Duration(dir * float64(ttlStep))
					if probe.KeepAliveTTL < 0 {
						probe.KeepAliveTTL = 0
					}
				case "overcommit":
					probe.Overcommit += dir * ocStep
					if probe.Overcommit < 1 {
						probe.Overcommit = 1
					}
				}
				if probe == best {
					continue // clamped onto the incumbent: nothing to probe
				}
				obj, rej, err := evalMean(ctx, cfg, scenes, probe)
				if err != nil {
					return nil, err
				}
				res.Evaluations++
				sc := score(obj)
				accepted := sc < bestScore-improveEps && rej <= startRej+improveEps
				res.Steps = append(res.Steps, RefineStep{
					Coordinate: coord, Candidate: probe,
					Objectives: obj, Score: sc, Accepted: accepted,
				})
				if accepted {
					best, bestObj, bestRej, bestScore = probe, obj, rej, sc
				}
			}
		}
		ttlStep = time.Duration(float64(ttlStep) * refineShrink)
		ocStep *= refineShrink
	}

	res.Best = Summary{Candidate: best, Objectives: bestObj, RejectedShare: bestRej}
	res.Score = bestScore
	return res, nil
}
