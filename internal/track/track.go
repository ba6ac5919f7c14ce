// Package track adds the time dimension to attack-resilient fusion: a
// bounded-dynamics interval filter that intersects each round's fusion
// interval with a prediction propagated from the previous round.
//
// The paper fuses each round independently; its conclusion points to
// dynamics over time as the natural extension. If the measured variable
// cannot change by more than MaxRate per round (a physical bound, e.g.
// maximum acceleration times the control period), then the previous
// estimate widened by MaxRate still contains the true value, and so does
// its intersection with the new fusion interval. The tracker therefore
// (a) never loses the truth, (b) is at least as tight as raw fusion, and
// (c) detects attacks that raw fusion cannot: an attacker who inflates
// the fusion interval gains nothing outside the prediction, and a fusion
// interval DISJOINT from the prediction proves the fault bound was
// violated.
package track

import (
	"errors"
	"fmt"

	"sensorfusion/internal/interval"
)

// Tracker filters fusion intervals over time under a bounded-rate
// dynamics model.
type Tracker struct {
	maxRate float64
	state   interval.Interval
	started bool
	rounds  int
	clamped int
}

// ErrInconsistent is returned when the new fusion interval does not
// intersect the prediction: impossible unless more than f sensors lie
// (or the rate bound is wrong), so it is reported as an integrity alarm
// rather than silently repaired.
var ErrInconsistent = errors.New("track: fusion interval disjoint from prediction")

// New returns a tracker for a variable whose per-round change is bounded
// by maxRate (> 0).
func New(maxRate float64) (*Tracker, error) {
	if maxRate <= 0 {
		return nil, fmt.Errorf("track: maxRate %v must be positive", maxRate)
	}
	return &Tracker{maxRate: maxRate}, nil
}

// State returns the current estimate interval (zero value before the
// first Update).
func (t *Tracker) State() interval.Interval { return t.state }

// Rounds returns the number of successful updates.
func (t *Tracker) Rounds() int { return t.rounds }

// Clamps returns how many updates were tightened by the prediction (the
// fusion interval was not already inside it) — a measure of how much the
// dynamics bound is helping.
func (t *Tracker) Clamps() int { return t.clamped }

// Predict returns the set of values the variable may hold this round
// given the previous estimate: the state widened by maxRate on each
// side. Before the first update the prediction is unbounded, represented
// by ok=false.
func (t *Tracker) Predict() (interval.Interval, bool) {
	if !t.started {
		return interval.Interval{}, false
	}
	return interval.Interval{Lo: t.state.Lo - t.maxRate, Hi: t.state.Hi + t.maxRate}, true
}

// Update folds one round's fusion interval into the track and returns
// the filtered estimate. On ErrInconsistent the state is reset (the next
// Update starts fresh) because either the fault bound or the rate bound
// was violated and the old state cannot be trusted.
func (t *Tracker) Update(fused interval.Interval) (interval.Interval, error) {
	if !fused.Valid() {
		return interval.Interval{}, fmt.Errorf("track: invalid fusion interval %v", fused)
	}
	pred, ok := t.Predict()
	if !ok {
		t.state = fused
		t.started = true
		t.rounds++
		return t.state, nil
	}
	next, overlap := pred.Intersect(fused)
	if !overlap {
		t.started = false
		t.state = interval.Interval{}
		return interval.Interval{}, fmt.Errorf("%w: prediction %v vs fused %v", ErrInconsistent, pred, fused)
	}
	if !pred.ContainsInterval(fused) {
		t.clamped++
	}
	t.state = next
	t.rounds++
	return t.state, nil
}

// Reset clears the track.
func (t *Tracker) Reset() {
	t.state = interval.Interval{}
	t.started = false
	t.rounds = 0
	t.clamped = 0
}
