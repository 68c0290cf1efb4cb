package keepalive

import (
	"testing"
	"time"

	"slscost/internal/stats"
)

// deciderOp is one step of a recorded decider call sequence: an
// observation, or a decision at a given instance count.
type deciderOp struct {
	observe   bool
	gap       time.Duration
	instances int
}

// opStream builds a mixed call sequence with regular-ish gaps and
// occasional instance-count changes.
func opStream(n int) []deciderOp {
	rng := stats.NewRand(42)
	ops := make([]deciderOp, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.6 {
			gap := time.Duration(rng.Uniform(5, 900)) * time.Second
			ops = append(ops, deciderOp{observe: true, gap: gap})
		} else {
			ops = append(ops, deciderOp{instances: 1 + rng.Intn(4)})
		}
	}
	return ops
}

// replay feeds ops to the decider and returns the decision sequence.
func replay(d Decider, ops []deciderOp) []time.Duration {
	var decisions []time.Duration
	for _, op := range ops {
		if op.observe {
			d.ObserveIdle(op.gap)
		} else {
			decisions = append(decisions, d.Window(op.instances))
		}
	}
	return decisions
}

// TestDeciderResumeMetamorphic: a decider's decisions are a pure
// function of its call sequence — replaying any prefix on a fresh
// decider and resuming with the suffix yields exactly the decisions of
// the uninterrupted run. This is the property the differential oracle
// (and any future checkpoint/restore of decider state) relies on.
func TestDeciderResumeMetamorphic(t *testing.T) {
	ops := opStream(300)
	builders := map[string]func() Decider{
		"adaptive": func() Decider {
			a, err := NewAdaptive(time.Hour, 15*time.Second, 5*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"bandit": func() Decider {
			b, err := NewBandit(nil, 0.1, 60, FunctionSeed(7, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			want := replay(build(), ops)
			for split := 0; split <= len(ops); split += 17 {
				d := build()
				got := replay(d, ops[:split])
				got = append(got, replay(d, ops[split:])...)
				if len(got) != len(want) {
					t.Fatalf("split %d: %d decisions, want %d", split, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("split %d: decision %d = %v, want %v", split, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestBanditDeterminismAndAccounting: two bandits with the same seed
// replay identically; different seeds diverge; the pull counters
// partition the decisions.
func TestBanditDeterminismAndAccounting(t *testing.T) {
	ops := opStream(400)
	mk := func(seed uint64) *Bandit {
		b, err := NewBandit(nil, 0.2, 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(99), mk(99)
	da := replay(a, ops)
	db := replay(b, ops)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same-seed bandits diverged at decision %d: %v vs %v", i, da[i], db[i])
		}
	}
	st := a.Stats()
	if st.Explored+st.Exploited != st.Decisions || st.Decisions != len(da) {
		t.Errorf("pull accounting broken: %+v over %d decisions", st, len(da))
	}
	if st.Explored == 0 {
		t.Error("epsilon=0.2 over 100+ pulls never explored")
	}
	if st.Regret < 0 || st.RealizedCost < 0 {
		t.Errorf("negative cost accounting: %+v", st)
	}

	c := mk(100)
	dc := replay(c, ops)
	same := true
	for i := range da {
		if da[i] != dc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical decision streams")
	}
}

// TestBanditLearnsCheapestArm: with 30-second gaps, AWS (freeze, long
// window) is free while Azure burns full idle CPU and Cloudflare cold
// starts every time — the bandit must converge on exploiting AWS.
func TestBanditLearnsCheapestArm(t *testing.T) {
	b, err := NewBandit(nil, 0, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b.Window(1)
		b.ObserveIdle(30 * time.Second)
	}
	if got := b.Arm().Name; got != "aws" {
		t.Errorf("exploited arm = %q, want aws (free warm hits at 30s gaps)", got)
	}
	st := b.Stats()
	if st.Explored != 0 || st.Exploited != 50 {
		t.Errorf("epsilon=0 pulls: %+v", st)
	}
}

// TestBanditValidation covers constructor rejection paths.
func TestBanditValidation(t *testing.T) {
	if _, err := NewBandit([]Policy{}, 0.1, 60, 1); err == nil {
		t.Error("empty arm set accepted")
	}
	if _, err := NewBandit(nil, -0.1, 60, 1); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := NewBandit(nil, 1.5, 60, 1); err == nil {
		t.Error("epsilon > 1 accepted")
	}
	if _, err := NewBandit(nil, 0.1, -1, 1); err == nil {
		t.Error("negative cold cost accepted")
	}
	if _, err := NewBandit([]Policy{{}}, 0.1, 60, 1); err == nil {
		t.Error("invalid arm accepted")
	}
}

// TestFunctionSeedDecorrelates: distinct (host, fn) pairs get distinct
// streams, and the derivation is stable (the oracle recomputes it
// independently).
func TestFunctionSeedDecorrelates(t *testing.T) {
	seen := map[uint64]string{}
	for host := 0; host < 8; host++ {
		for fn := 0; fn < 64; fn++ {
			s := FunctionSeed(7, host, fn)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: host=%d fn=%d vs %s", host, fn, prev)
			}
			seen[s] = ""
		}
	}
	if FunctionSeed(7, 3, 5) != FunctionSeed(7, 3, 5) {
		t.Error("FunctionSeed is not deterministic")
	}
	if FunctionSeed(7, 3, 5) == FunctionSeed(8, 3, 5) {
		t.Error("FunctionSeed ignores the spec seed")
	}
}
