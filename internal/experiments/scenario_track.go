// The track scenario suite: tracking a bounded-rate drifting truth
// through full communication rounds (bus, schedule, optimal attacker,
// fusion) filtered by the track package's interval tracker, scored for
// raw and tracked soundness, prediction consistency, stealth, and the
// tracker's precision gain (tracked never looser than raw fusion).

package experiments

import (
	"fmt"
	"math/rand"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/results"
	"sensorfusion/internal/schedule"
	"sensorfusion/internal/sim"
	"sensorfusion/internal/track"
	"sensorfusion/internal/verdict"
)

// trackScenario is one tracking-under-attack configuration.
type trackScenario struct {
	name    string
	widths  []float64
	f       int
	targets []int   // attacked sensors (nil = clean)
	drift   float64 // truth rate bound per round = tracker MaxRate
	ascKind bool    // ascending vs descending schedule
}

func trackScenarios() []scenarioRunner {
	return []scenarioRunner{
		&trackScenario{name: "clean asc", widths: []float64{0.4, 0.4, 2, 4}, f: 1, drift: 0.25, ascKind: true},
		&trackScenario{name: "clean desc", widths: []float64{0.4, 0.4, 2, 4}, f: 1, drift: 0.25},
		&trackScenario{name: "attacked asc", widths: []float64{0.4, 0.4, 2, 4}, f: 1, targets: []int{2}, drift: 0.25, ascKind: true},
		&trackScenario{name: "attacked desc", widths: []float64{0.4, 0.4, 2, 4}, f: 1, targets: []int{3}, drift: 0.25},
	}
}

func (s *trackScenario) label() string { return s.name }

func (s *trackScenario) canon() string {
	return fmt.Sprintf("widths=%v|f=%d|targets=%v|drift=%g|asc=%t",
		s.widths, s.f, s.targets, s.drift, s.ascKind)
}

func (s *trackScenario) run(steps int, rng *rand.Rand) ([]results.Metric, error) {
	var sched schedule.Scheduler
	var err error
	if s.ascKind {
		sched, err = schedule.NewAscending(s.widths)
	} else {
		sched, err = schedule.NewDescending(s.widths)
	}
	if err != nil {
		return nil, err
	}
	setup := sim.Setup{Widths: s.widths, F: s.f, Scheduler: sched}
	if len(s.targets) > 0 {
		setup.Targets = s.targets
		setup.Strategy = attack.NewOptimal()
		setup.Step = 0.1
		setup.MaxExact = 600
		setup.MCSamples = 80
	}
	sm, err := sim.NewSimulator(setup)
	if err != nil {
		return nil, err
	}
	tr, err := track.New(s.drift)
	if err != nil {
		return nil, err
	}
	truth := rng.Float64()*20 - 10
	correct := make([]interval.Interval, len(s.widths))
	var (
		rawLosses, trackedLosses     int
		inconsistencies, detections  int
		rawWidthSum, trackedWidthSum float64
	)
	for step := 0; step < steps; step++ {
		truth += (rng.Float64()*2 - 1) * s.drift
		for k, w := range s.widths {
			center := truth + (rng.Float64()-0.5)*w
			correct[k] = interval.MustCentered(center, w)
		}
		rr, err := sm.Round(correct)
		if err != nil {
			return nil, err
		}
		if !rr.Fused.Contains(truth) {
			rawLosses++
		}
		if len(rr.Suspects) > 0 {
			detections++
		}
		rawWidthSum += rr.Fused.Width()
		tracked, err := tr.Update(rr.Fused)
		if err != nil {
			// ErrInconsistent resets the track; with the rate bound
			// honored and the attacker inside the budget it cannot
			// happen, which is the consistency claim below.
			inconsistencies++
			continue
		}
		if !tracked.Contains(truth) {
			trackedLosses++
		}
		trackedWidthSum += tracked.Width()
	}
	meanRaw, meanTracked := 0.0, 0.0
	if steps > 0 {
		meanRaw = rawWidthSum / float64(steps)
	}
	if tr.Rounds() > 0 {
		meanTracked = trackedWidthSum / float64(tr.Rounds())
	}
	attacked := 0.0
	if len(s.targets) > 0 {
		attacked = 1
	}
	return []results.Metric{
		{Key: "rounds", Val: float64(steps)},
		{Key: "attacked", Val: attacked},
		{Key: "raw_truth_losses", Val: float64(rawLosses)},
		{Key: "tracked_truth_losses", Val: float64(trackedLosses)},
		{Key: "inconsistencies", Val: float64(inconsistencies)},
		{Key: "detections", Val: float64(detections)},
		{Key: "clamps", Val: float64(tr.Clamps())},
		{Key: "mean_raw_width", Val: meanRaw},
		{Key: "mean_tracked_width", Val: meanTracked},
	}, nil
}

// trackCriteria encodes the tracking claims: raw fusion and the
// filtered track both never lose the truth while the attacker respects
// the budget, the prediction never goes disjoint from fusion (the rate
// bound holds), the optimal attacker stays stealthy, and the track is
// at least as tight as raw fusion on average.
func trackCriteria() []verdict.Criterion {
	return []verdict.Criterion{
		verdict.Zero("soundness-raw", "raw_truth_losses"),
		verdict.Zero("soundness-tracked", "tracked_truth_losses"),
		verdict.Zero("consistency", "inconsistencies"),
		verdict.Zero("stealth", "detections"),
		verdict.AtMost("precision", "mean_tracked_width", "mean_raw_width", 1e-9),
	}
}
