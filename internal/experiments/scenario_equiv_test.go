package experiments

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sensorfusion/internal/consensus"
	"sensorfusion/internal/faults"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/results"
)

// These tests pin the scenario generators' Sweeper routing to the exact
// output of the per-step fusion.Fuse path it replaced: the reference
// implementations below are the pre-Sweeper run() bodies, and the
// metrics — floats included — must match bit for bit on the same seeds.

// refFaultScenarioRun is faultScenario.run as it stood when every step
// called fusion.Fuse on a freshly allocated slice.
func refFaultScenarioRun(s *faultScenario, steps int, rng *rand.Rand) ([]results.Metric, error) {
	n := len(s.widths)
	det, err := faults.NewWindowDetector(n, s.window, s.threshold)
	if err != nil {
		return nil, err
	}
	inj := faults.Injector{Rate: s.rate, MaxShift: s.maxShift}
	truth := rng.Float64()*20 - 10
	correct := make([]interval.Interval, n)
	var (
		injected, budgetRounds, overBudget int
		soundnessViolations, noFusion      int
		detections, deemedRounds           int
		widthSum                           float64
		fusedRounds                        int
	)
	for step := 0; step < steps; step++ {
		truth += rng.Float64()*0.2 - 0.1
		for k, w := range s.widths {
			center := truth + (rng.Float64()-0.5)*w
			correct[k] = interval.MustCentered(center, w)
		}
		ivs, faulted, err := inj.Apply(correct, truth, nil, rng)
		if err != nil {
			return nil, err
		}
		injected += len(faulted)
		within := len(faulted) <= s.f
		if within {
			budgetRounds++
		} else {
			overBudget++
		}
		fused, err := fusion.Fuse(ivs, s.f)
		switch {
		case errors.Is(err, fusion.ErrNoFusion):
			if within {
				noFusion++
			}
			det.Reset()
			continue
		case err != nil:
			return nil, err
		}
		fusedRounds++
		widthSum += fused.Width()
		if within && !fused.Contains(truth) {
			soundnessViolations++
		}
		suspects := fusion.Detect(nil, ivs, fused)
		if len(suspects) > 0 {
			detections++
		}
		deemed, err := det.Record(suspects)
		if err != nil {
			return nil, err
		}
		if len(deemed) > 0 {
			deemedRounds++
		}
	}
	meanWidth := 0.0
	if fusedRounds > 0 {
		meanWidth = widthSum / float64(fusedRounds)
	}
	return []results.Metric{
		{Key: "rounds", Val: float64(steps)},
		{Key: "fault_rate", Val: s.rate},
		{Key: "faults_injected", Val: float64(injected)},
		{Key: "budget_rounds", Val: float64(budgetRounds)},
		{Key: "over_budget_rounds", Val: float64(overBudget)},
		{Key: "soundness_violations", Val: float64(soundnessViolations)},
		{Key: "no_fusion_rounds", Val: float64(noFusion)},
		{Key: "detections", Val: float64(detections)},
		{Key: "deemed_rounds", Val: float64(deemedRounds)},
		{Key: "mean_fused_width", Val: meanWidth},
	}, nil
}

// refConsensusScenarioRun is consensusScenario.run with the original
// one-shot fusion.Fuse call.
func refConsensusScenarioRun(s *consensusScenario, steps int, rng *rand.Rand) ([]results.Metric, error) {
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
		fused, err := fusion.Fuse(ivs, f)
		if err != nil {
			return nil, err
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

func requireMetricsIdentical(t *testing.T, label string, seed int64, got, want []results.Metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s seed=%d: %d metrics, want %d", label, seed, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("%s seed=%d: metric %d key %q, want %q", label, seed, i, got[i].Key, want[i].Key)
		}
		if math.Float64bits(got[i].Val) != math.Float64bits(want[i].Val) {
			t.Errorf("%s seed=%d: metric %q = %v (bits %#x), want %v (bits %#x)",
				label, seed, got[i].Key, got[i].Val, math.Float64bits(got[i].Val),
				want[i].Val, math.Float64bits(want[i].Val))
		}
	}
}

func TestFaultScenariosByteIdenticalToFuseReference(t *testing.T) {
	const steps = 300
	for _, sr := range faultScenarios() {
		s := sr.(*faultScenario)
		for seed := int64(1); seed <= 5; seed++ {
			got, err := s.run(steps, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s seed=%d: run: %v", s.name, seed, err)
			}
			want, err := refFaultScenarioRun(s, steps, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s seed=%d: reference: %v", s.name, seed, err)
			}
			requireMetricsIdentical(t, s.name, seed, got, want)
		}
	}
}

func TestConsensusScenariosByteIdenticalToFuseReference(t *testing.T) {
	const steps = 300
	for _, sr := range consensusScenarios() {
		s := sr.(*consensusScenario)
		for seed := int64(1); seed <= 5; seed++ {
			got, err := s.run(steps, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s seed=%d: run: %v", s.name, seed, err)
			}
			want, err := refConsensusScenarioRun(s, steps, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s seed=%d: reference: %v", s.name, seed, err)
			}
			requireMetricsIdentical(t, s.name, seed, got, want)
		}
	}
}
