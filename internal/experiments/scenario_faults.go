// The faults scenario suite: random transient faults injected into a
// static sensor array (the conclusion's "random faults alongside
// attacks" extension), scored for soundness within the fault budget,
// availability, and the windowed fault model's quiescence on clean runs.

package experiments

import (
	"fmt"
	"math/rand"

	"sensorfusion/internal/faults"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/results"
	"sensorfusion/internal/verdict"
)

// faultScenario is one fault-injection configuration: n sensors of the
// given widths around a drifting truth, a per-round fault injector, and
// footnote 1's windowed detector.
type faultScenario struct {
	name      string
	widths    []float64
	f         int
	rate      float64 // per-sensor per-round fault probability
	maxShift  float64 // injector displacement bound (widths)
	window    int     // windowed-detector window
	threshold int     // windowed-detector threshold
}

func faultScenarios() []scenarioRunner {
	return []scenarioRunner{
		&faultScenario{name: "clean n=5", widths: []float64{1, 1, 2, 3, 4}, f: 2, rate: 0, maxShift: 2, window: 10, threshold: 2},
		&faultScenario{name: "transient n=5 rate=0.08", widths: []float64{1, 1, 2, 3, 4}, f: 2, rate: 0.08, maxShift: 2, window: 10, threshold: 2},
		&faultScenario{name: "bursty n=7 rate=0.15", widths: []float64{0.5, 1, 1, 2, 2, 3, 4}, f: 3, rate: 0.15, maxShift: 3, window: 8, threshold: 3},
		&faultScenario{name: "harsh n=4 rate=0.25", widths: []float64{1, 2, 3, 4}, f: 1, rate: 0.25, maxShift: 2, window: 6, threshold: 1},
	}
}

func (s *faultScenario) label() string { return s.name }

func (s *faultScenario) canon() string {
	return fmt.Sprintf("widths=%v|f=%d|rate=%g|maxshift=%g|window=%d|threshold=%d",
		s.widths, s.f, s.rate, s.maxShift, s.window, s.threshold)
}

func (s *faultScenario) run(steps int, rng *rand.Rand) ([]results.Metric, error) {
	n := len(s.widths)
	det, err := faults.NewWindowDetector(n, s.window, s.threshold)
	if err != nil {
		return nil, err
	}
	inj := faults.Injector{Rate: s.rate, MaxShift: s.maxShift}
	// Per-step fusion runs through one reused empty-base Sweeper —
	// bit-identical to fusion.Fuse (pinned by the equivalence and
	// differential tests) without its per-call sort allocations. Fuse's
	// fault-bound validation happens once up front; with a valid bound
	// the only scalar error left is ErrNoFusion, which FuseWith reports
	// as ok=false.
	if n > 0 && (s.f < 0 || s.f >= n) {
		return nil, fmt.Errorf("%w: f=%d with n=%d", fusion.ErrBadFaultBound, s.f, n)
	}
	var sw interval.Sweeper
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
		fused, ok := sw.FuseWith(ivs, s.f)
		if !ok {
			// Within budget the truth is covered by the n-f correct
			// intervals, so fusion must exist; counting the impossible
			// case is the availability claim the verdicts pin to zero.
			if within {
				noFusion++
			}
			det.Reset()
			continue
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

// faultCriteria encodes the fault-suite claims: fusion never loses the
// truth while the fault budget holds, fusion always exists within
// budget, and a fault-free system triggers neither the instantaneous
// nor the windowed detector.
func faultCriteria() []verdict.Criterion {
	clean := func(rate float64) bool { return rate == 0 }
	return []verdict.Criterion{
		verdict.Zero("soundness", "soundness_violations"),
		verdict.Zero("availability", "no_fusion_rounds"),
		verdict.When("fault_rate", clean, verdict.Zero("stealth", "detections")),
		verdict.When("fault_rate", clean, verdict.Zero("window-quiet", "deemed_rounds")),
	}
}
