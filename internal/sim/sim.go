// Package sim wires sensors, a communication schedule, the attacker, and
// Marzullo fusion into complete communication rounds, and provides the
// paper's evaluation engine: exhaustive expectation over a discretized
// measurement space (the Section IV-A simulations behind Table I). The
// Section IV-B case study behind Table II runs through internal/platoon.
//
// A round models the shared broadcast medium of the paper's Section II
// system (a CAN bus): sensors transmit their intervals in the slots of
// the schedule, every message is visible to every component connected
// to the network, and in particular an attacker transmitting in a later
// slot has seen all earlier messages — the information asymmetry that
// makes the communication schedule matter (Section IV) and that the
// Ascending/Descending analysis quantifies. Each sensor transmits at
// most once per round, and the attacker observes every transmission,
// her own included, in slot order.
//
// The expectation engine evaluates the same rounds in one of two ways
// with the same result. Under a schedule that replays one order
// (schedule.FixedOrder) it enumerates by attacker decision: she plans
// her whole block at her first slot from Delta and the prefix sent
// before it, so the attacker runs once per distinct (Delta, prefix)
// and each completion of the later correct sensors costs one fusion
// against the preloaded prefix and plan. Random schedules, clean
// setups, and any enumeration where regrouping the float sum could
// change its bits run one full round per combination.
package sim

import (
	"errors"
	"fmt"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/schedule"
)

// Setup fixes everything about a fusion round except the measurements.
type Setup struct {
	// Widths are the sensor interval widths, indexed by sensor.
	Widths []float64
	// F is the fusion fault bound (the paper always uses ceil(n/2)-1).
	F int
	// Targets are the compromised sensor indices (may be empty for a
	// clean system).
	Targets []int
	// Scheduler yields the per-round transmission order.
	Scheduler schedule.Scheduler
	// Strategy is the attacker's placement strategy; shared across rounds
	// so memoized strategies amortize. Ignored when Targets is empty.
	Strategy attack.Strategy
	// Step, MaxExact, MCSamples tune the attacker's discretization.
	Step      float64
	MaxExact  int
	MCSamples int
}

func (s Setup) validate() error {
	if len(s.Widths) == 0 {
		return errors.New("sim: no sensors")
	}
	if s.F < 0 || s.F >= len(s.Widths) {
		return fmt.Errorf("sim: bad f=%d for n=%d", s.F, len(s.Widths))
	}
	if s.Scheduler == nil {
		return errors.New("sim: nil scheduler")
	}
	return nil
}

// RoundResult is the outcome of one communication round. Its slices
// alias buffers owned by the Simulator (and, for Order, the Scheduler)
// and are only valid until the next Round/RoundInto call on the same
// Simulator: the evaluation engines drive millions of rounds per
// configuration and the round pipeline is allocation-free because
// nothing is detached per round. Callers that keep a round's data across
// rounds — the trace recorder, tests — copy what they retain.
type RoundResult struct {
	// Order is the slot order used this round.
	Order []int
	// Final are the intervals received by the controller, indexed by
	// sensor.
	Final []interval.Interval
	// Fused is the Marzullo fusion interval.
	Fused interval.Interval
	// Suspects are sensors flagged by the detector (empty against a
	// stealthy attacker).
	Suspects []int
}

// Simulator executes rounds for a fixed Setup, reusing the attacker (and
// hence the strategy's plan cache), the fusion sweeper's buffers, the
// per-round transmitted flags, and the round result buffers across
// rounds: the clean (no attacker) round path performs zero heap
// allocations per round, pinned by TestRoundCleanPathZeroAllocs. A
// Simulator is not safe for concurrent use; the campaign engine gives
// each worker task its own.
type Simulator struct {
	setup    Setup
	attacker *attack.Attacker // nil when no targets
	sweeper  interval.Sweeper // reused endpoint buffers for the round's fusion
	final    []interval.Interval
	sent     []bool // per-sensor transmitted flag for the current round
	suspects []int
}

// NewSimulator validates the setup and builds a Simulator.
func NewSimulator(setup Setup) (*Simulator, error) {
	if err := setup.validate(); err != nil {
		return nil, err
	}
	n := len(setup.Widths)
	s := &Simulator{setup: setup, final: make([]interval.Interval, n), sent: make([]bool, n)}
	if len(setup.Targets) > 0 {
		a, err := attack.New(attack.Config{
			N:         len(setup.Widths),
			F:         setup.F,
			Widths:    setup.Widths,
			Targets:   setup.Targets,
			Strategy:  setup.Strategy,
			Step:      setup.Step,
			MaxExact:  setup.MaxExact,
			MCSamples: setup.MCSamples,
		})
		if err != nil {
			return nil, err
		}
		s.attacker = a
	}
	return s, nil
}

// Attacker exposes the simulator's attacker (nil for clean setups); used
// by tests asserting on attacker state.
func (s *Simulator) Attacker() *attack.Attacker { return s.attacker }

// Round runs one communication round. correct[i] is sensor i's correct
// interval for this round (what the sensor actually measured); the
// attacker substitutes her own placements for compromised sensors. The
// result's slices follow RoundResult's reuse contract.
func (s *Simulator) Round(correct []interval.Interval) (RoundResult, error) {
	var res RoundResult
	if err := s.RoundInto(correct, &res); err != nil {
		return RoundResult{}, err
	}
	return res, nil
}

// RoundInto runs one communication round into out, reusing out's
// Suspects buffer — the explicit-reuse form the evaluation engines call
// so that no per-combination allocation survives on the round path.
func (s *Simulator) RoundInto(correct []interval.Interval, out *RoundResult) error {
	n := len(s.setup.Widths)
	if len(correct) != n {
		return fmt.Errorf("sim: %d correct intervals for %d sensors", len(correct), n)
	}
	order := s.setup.Scheduler.Order()
	if len(order) != n {
		return fmt.Errorf("sim: scheduler produced %d slots for %d sensors", len(order), n)
	}
	clear(s.sent)
	if s.attacker != nil {
		if err := s.attacker.BeginRound(correct); err != nil {
			return err
		}
	}
	final := s.final[:n]
	for slot, idx := range order {
		if idx < 0 || idx >= n {
			return fmt.Errorf("sim: scheduler slot %d names unknown sensor %d", slot, idx)
		}
		if s.sent[idx] {
			return fmt.Errorf("sim: sensor %d transmitted twice in one round", idx)
		}
		s.sent[idx] = true
		iv := correct[idx]
		if s.attacker != nil && s.attacker.Compromised(idx) {
			var err error
			iv, err = s.attacker.Transmit(idx, order[slot+1:])
			if err != nil {
				return err
			}
		}
		if !iv.Valid() {
			return fmt.Errorf("sim: sensor %d sent invalid interval %v", idx, iv)
		}
		if s.attacker != nil {
			s.attacker.Observe(iv)
		}
		final[idx] = iv
	}
	s.sweeper.Preload(final)
	fused, ok := s.sweeper.FuseWith(nil, s.setup.F)
	if !ok {
		return fmt.Errorf("%w: n=%d f=%d", fusion.ErrNoFusion, n, s.setup.F)
	}
	// Against a stealthy attacker nothing is appended to the reused
	// suspect buffer.
	s.suspects = fusion.Detect(s.suspects[:0], final, fused)
	out.Order = order
	out.Final = final
	out.Fused = fused
	out.Suspects = s.suspects
	return nil
}
