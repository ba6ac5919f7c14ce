// The consensus scenario suite: Byzantine nodes inside average
// consensus (the paper's probabilistic-fusion baseline), scored against
// the analytic drift law — Metropolis weights are symmetric, so the
// state sum is preserved each round and a persistent bias steers the
// network mean by exactly rounds*bias/n — and against interval fusion's
// soundness on the same measurements, quantifying the contrast the
// paper draws.

package experiments

import (
	"fmt"
	"math/rand"

	"sensorfusion/internal/consensus"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/results"
	"sensorfusion/internal/verdict"
)

// consensusScenario is one Byzantine-consensus configuration: a
// topology, a Byzantine node count, and a per-round bias.
type consensusScenario struct {
	name     string
	nodes    int
	complete bool // complete graph (shared bus) vs path
	byz      int  // compromised node count (first byz nodes)
	bias     float64
	noise    float64 // half-range of the initial measurement noise
}

func consensusScenarios() []scenarioRunner {
	return []scenarioRunner{
		&consensusScenario{name: "complete n=5 clean", nodes: 5, complete: true, noise: 0.5},
		&consensusScenario{name: "complete n=5 byz=1", nodes: 5, complete: true, byz: 1, bias: 0.4, noise: 0.5},
		&consensusScenario{name: "complete n=4 byz=f", nodes: 4, complete: true, byz: 1, bias: 0.6, noise: 0.5},
		&consensusScenario{name: "path n=7 byz=2", nodes: 7, byz: 2, bias: 0.3, noise: 0.5},
	}
}

func (s *consensusScenario) label() string { return s.name }

func (s *consensusScenario) canon() string {
	return fmt.Sprintf("nodes=%d|complete=%t|byz=%d|bias=%g|noise=%g",
		s.nodes, s.complete, s.byz, s.bias, s.noise)
}

func (s *consensusScenario) run(steps int, rng *rand.Rand) ([]results.Metric, error) {
	g, err := func() (*consensus.Graph, error) {
		if s.complete {
			return consensus.Complete(s.nodes)
		}
		return consensus.Path(s.nodes)
	}()
	if err != nil {
		return nil, err
	}
	p, err := consensus.NewProtocol(g)
	if err != nil {
		return nil, err
	}
	for k := 0; k < s.byz; k++ {
		if err := p.Compromise(k, s.bias); err != nil {
			return nil, err
		}
	}
	truth := rng.Float64()*20 - 10
	initial := make([]float64, s.nodes)
	for k := range initial {
		initial[k] = truth + (rng.Float64()*2-1)*s.noise
	}
	final, err := p.Run(initial, steps)
	if err != nil {
		return nil, err
	}
	shift := consensus.Mean(final) - consensus.Mean(initial)
	expected := float64(steps) * float64(s.byz) * s.bias / float64(s.nodes)

	// Interval fusion over the same initial measurements, with the
	// Byzantine nodes replacing their intervals by the drifted agreement
	// value they steer consensus toward: with byz <= f the fused
	// interval must still contain the truth (the contrast the paper
	// draws with consensus, whose mean provably drifts above).
	f := fusion.SafeFaultBound(s.nodes)
	budgetOK := 0.0
	fusionSound := 0.0
	if s.byz <= f {
		budgetOK = 1
		ivs := make([]interval.Interval, s.nodes)
		for k := range ivs {
			center := initial[k]
			if k < s.byz {
				center = initial[k] + expected + 10*s.noise
			}
			ivs[k] = interval.MustCentered(center, 2*s.noise)
		}
		// One fusion per run, through a Sweeper for the same zero-alloc
		// path the fault scenarios ride; f = SafeFaultBound is always in
		// range, so ok=false can only mean what ErrNoFusion means.
		var sw interval.Sweeper
		fused, ok := sw.FuseWith(ivs, f)
		if !ok {
			return nil, fmt.Errorf("%w: n=%d f=%d", fusion.ErrNoFusion, s.nodes, f)
		}
		if fused.Contains(truth) {
			fusionSound = 1
		}
	}
	complete := 0.0
	if s.complete {
		complete = 1
	}
	return []results.Metric{
		{Key: "nodes", Val: float64(s.nodes)},
		{Key: "byz", Val: float64(s.byz)},
		{Key: "rounds", Val: float64(steps)},
		{Key: "complete", Val: complete},
		{Key: "consensus_shift", Val: shift},
		{Key: "consensus_spread", Val: consensus.Spread(final)},
		{Key: "expected_shift", Val: expected},
		{Key: "budget_ok", Val: budgetOK},
		{Key: "fusion_sound", Val: fusionSound},
	}, nil
}

// consensusCriteria encodes the consensus claims: the network mean
// drifts by exactly the analytic rounds*byz*bias/n (to float rounding),
// a complete graph agrees exactly after each exchange, and interval
// fusion over the same measurements stays sound whenever the Byzantine
// count fits the fusion fault budget — the paper's resilience contrast.
func consensusCriteria() []verdict.Criterion {
	one := func(v float64) bool { return v == 1 }
	return []verdict.Criterion{
		verdict.AtLeast("drift-floor", "consensus_shift", "expected_shift", 1e-6),
		verdict.AtMost("drift-ceil", "consensus_shift", "expected_shift", 1e-6),
		verdict.When("complete", one, verdict.Max("agreement", "consensus_spread", 1e-9)),
		verdict.When("budget_ok", one, verdict.Equals("soundness", "fusion_sound", 1)),
	}
}
