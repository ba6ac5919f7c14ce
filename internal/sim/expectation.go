package sim

import (
	"fmt"
	"math"

	"sensorfusion/internal/grid"
	"sensorfusion/internal/interval"
)

// Expectation summarizes the fusion-interval width distribution over an
// enumeration or sample of measurement combinations.
type Expectation struct {
	// Mean is the average fusion width — the paper's E|S_{N,f}|.
	Mean float64
	// Min and Max are the extreme widths observed.
	Min, Max float64
	// Count is the number of combinations evaluated.
	Count int
	// Detected counts rounds in which the detector flagged any sensor
	// (zero against a stealthy attacker).
	Detected int
}

// ExpectedWidth reproduces the paper's Table I methodology: the true
// value is fixed (WLOG 0), every sensor's measurement offset ranges over
// a discretized grid of its feasible positions (a correct interval of
// width w containing the truth has center offset in [-w/2, +w/2]), all
// combinations are enumerated, and the average fusion width is returned.
//
// Compromised sensors' grids enumerate their CORRECT readings — what the
// attacker's sensors actually measured; the attacker then decides what to
// transmit.
//
// step is the measurement discretization (the attacker's internal
// discretization comes from the Setup).
func ExpectedWidth(setup Setup, step float64) (Expectation, error) {
	if step <= 0 {
		return Expectation{}, fmt.Errorf("sim: bad step %v", step)
	}
	simr, err := NewSimulator(setup)
	if err != nil {
		return Expectation{}, err
	}
	grids := make([]grid.Grid, len(setup.Widths))
	for k, w := range setup.Widths {
		grids[k] = grid.Symmetric(w/2, step)
	}
	exp := Expectation{Min: math.Inf(1), Max: math.Inf(-1)}
	correct := make([]interval.Interval, len(setup.Widths))
	var res RoundResult // reused across combinations (RoundInto contract)
	var roundErr error
	grid.Enumerate(grids, func(offsets []float64) bool {
		for k, off := range offsets {
			correct[k] = interval.MustCentered(off, setup.Widths[k])
		}
		if err := simr.RoundInto(correct, &res); err != nil {
			roundErr = err
			return false
		}
		w := res.Fused.Width()
		exp.Mean += w
		exp.Count++
		if w < exp.Min {
			exp.Min = w
		}
		if w > exp.Max {
			exp.Max = w
		}
		if len(res.Suspects) > 0 {
			exp.Detected++
		}
		return true
	})
	if roundErr != nil {
		return Expectation{}, roundErr
	}
	if exp.Count == 0 {
		return Expectation{}, fmt.Errorf("sim: empty enumeration")
	}
	exp.Mean /= float64(exp.Count)
	return exp, nil
}
