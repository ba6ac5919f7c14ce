// The platoon scenario suite: multi-vehicle Section IV-B traffic under
// a per-round attacked sensor, optionally routed through the CAN bus
// codec (canbus.RoundTrip), scored for soundness (no fusion interval
// ever loses the true speed), stealth (the optimal attacker is never
// detected), safety (no collisions), and platoon cohesion.

package experiments

import (
	"fmt"
	"math/rand"

	"sensorfusion/internal/platoon"
	"sensorfusion/internal/results"
	"sensorfusion/internal/schedule"
	"sensorfusion/internal/sensor"
	"sensorfusion/internal/verdict"
)

// platoonScenario is one platoon traffic configuration.
type platoonScenario struct {
	name          string
	vehicles      int
	kind          schedule.Kind
	wire          bool // route correct measurements through the CAN codec
	trustedImmune bool // add an IMU and exempt it from the attacked draw
}

func platoonScenarios() []scenarioRunner {
	return []scenarioRunner{
		&platoonScenario{name: "asc 3-veh", vehicles: 3, kind: schedule.Ascending},
		&platoonScenario{name: "desc 3-veh wired", vehicles: 3, kind: schedule.Descending, wire: true},
		&platoonScenario{name: "random 4-veh wired", vehicles: 4, kind: schedule.Random, wire: true},
		&platoonScenario{name: "trusted-immune trustedlast", vehicles: 3, kind: schedule.TrustedLast, trustedImmune: true},
	}
}

func (s *platoonScenario) label() string { return s.name }

func (s *platoonScenario) canon() string {
	return fmt.Sprintf("vehicles=%d|sched=%s|wire=%t|trusted=%t",
		s.vehicles, s.kind, s.wire, s.trustedImmune)
}

func (s *platoonScenario) params() platoon.Params {
	p := platoon.NewParams(s.kind)
	p.Vehicles = s.vehicles
	p.Wire = s.wire
	if s.trustedImmune {
		p.Suite = append(p.Suite, sensor.IMU())
		p.TrustedImmune = true
	}
	return p
}

func (s *platoonScenario) run(steps int, rng *rand.Rand) ([]results.Metric, error) {
	r, err := platoon.NewRunner(s.params(), rng)
	if err != nil {
		return nil, err
	}
	res, err := r.Run(steps, false)
	if err != nil {
		return nil, err
	}
	spread := 0.0
	if len(res.FinalSpeeds) > 0 {
		lo, hi := res.FinalSpeeds[0], res.FinalSpeeds[0]
		for _, v := range res.FinalSpeeds[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		spread = hi - lo
	}
	wired := 0.0
	if s.wire {
		wired = 1
	}
	return []results.Metric{
		{Key: "rounds", Val: float64(res.Rounds)},
		{Key: "wired", Val: wired},
		{Key: "upper_violations", Val: float64(res.Upper)},
		{Key: "lower_violations", Val: float64(res.Lower)},
		{Key: "preemptions", Val: float64(res.Preemptions)},
		{Key: "detections", Val: float64(res.Detections)},
		{Key: "collisions", Val: float64(res.Collisions)},
		{Key: "truth_losses", Val: float64(res.TruthLosses)},
		{Key: "final_spread", Val: spread},
	}, nil
}

// platoonCriteria encodes the platoon claims: fusion soundness holds at
// every vehicle round even through the lossy wire quantization (which
// only widens intervals outward), the optimal attacker stays stealthy,
// the safety monitor prevents collisions, and the platoon stays
// coherent around the setpoint.
func platoonCriteria() []verdict.Criterion {
	return []verdict.Criterion{
		verdict.Zero("soundness", "truth_losses"),
		verdict.Zero("stealth", "detections"),
		verdict.Zero("safety", "collisions"),
		verdict.Max("cohesion", "final_spread", 2),
	}
}
