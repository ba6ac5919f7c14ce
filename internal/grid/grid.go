// Package grid provides the explicit discretization of the real line that
// the paper uses to compute expectations ("we have discretized the real
// line with a sufficiently high precision in order to compute the
// expectation in the optimization problem", Section IV-A footnote).
//
// All enumeration-based experiments (Table I, the optimal attacker) draw
// candidate positions from these grids, so the step size is a single,
// visible knob.
package grid

import (
	"errors"
	"fmt"
)

// Grid is an inclusive arithmetic progression lo, lo+step, ..., hi.
type Grid struct {
	lo, hi, step float64
	count        int
}

// ErrBadGrid reports invalid grid parameters.
var ErrBadGrid = errors.New("grid: invalid parameters")

// New returns the grid covering [lo, hi] with the given step. hi is
// always included, and no point ever lies outside [lo, hi]: when
// (hi-lo) is not an exact multiple of step, the last point is CLAMPED
// to hi instead of overshooting it. The clamp matters for correctness,
// not just tidiness — Symmetric grids enumerate the feasible offsets of
// correct sensor readings, and an overshooting point would fabricate a
// "correct" interval that does not contain the true value (which the
// detector then rightly flags, poisoning stealth-invariant accounting
// for any step that does not tile every sensor width).
func New(lo, hi, step float64) (Grid, error) {
	if step <= 0 || hi < lo {
		return Grid{}, fmt.Errorf("%w: lo=%v hi=%v step=%v", ErrBadGrid, lo, hi, step)
	}
	const eps = 1e-9
	count := 1
	for x := lo; x < hi-eps; x += step {
		count++
	}
	return Grid{lo: lo, hi: hi, step: step, count: count}, nil
}

// MustNew is like New but panics on invalid parameters.
func MustNew(lo, hi, step float64) Grid {
	g, err := New(lo, hi, step)
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the number of grid points.
func (g Grid) Len() int { return g.count }

// At returns the k-th grid point, clamped to the grid's upper bound so
// every point lies in [lo, hi].
func (g Grid) At(k int) float64 {
	x := g.lo + float64(k)*g.step
	if x > g.hi {
		return g.hi
	}
	return x
}

// Step returns the grid spacing.
func (g Grid) Step() float64 { return g.step }

// Symmetric returns the grid over [-half, +half] with the given step,
// which is the feasible center-offset range of a correct sensor interval
// of width 2*half containing the true value at 0.
func Symmetric(half, step float64) Grid {
	if half < 0 {
		half = 0
	}
	if half == 0 {
		return Grid{lo: 0, step: step, count: 1}
	}
	return MustNew(-half, half, step)
}

// Enumerate calls fn with every combination of indices drawn from the
// given grids (odometer order). fn receives a shared scratch slice of
// values that it must not retain. Enumeration stops early if fn returns
// false. It returns the number of combinations visited.
func Enumerate(grids []Grid, fn func(values []float64) bool) int {
	if len(grids) == 0 {
		// A single empty combination, matching product-of-nothing = 1.
		fn(nil)
		return 1
	}
	idx := make([]int, len(grids))
	vals := make([]float64, len(grids))
	visited := 0
	for {
		for k, g := range grids {
			vals[k] = g.At(idx[k])
		}
		visited++
		if !fn(vals) {
			return visited
		}
		// Odometer increment.
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < grids[k].Len() {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return visited
		}
	}
}

// Size returns the total number of combinations Enumerate would visit.
func Size(grids []Grid) int {
	total := 1
	for _, g := range grids {
		total *= g.Len()
	}
	return total
}
