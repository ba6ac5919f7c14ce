package fusion

import (
	"sort"

	"sensorfusion/internal/interval"
)

// This file provides the worst-case width bounds from Section III-B of
// the paper as checkable predicates. They are used by property tests and
// by the experiments package to validate generated configurations.

// Theorem2Bound returns the paper's Theorem 2 upper bound on the fusion
// interval width: the sum of the widths of the two largest-width correct
// intervals. When only one correct interval exists its width is doubled
// conceptually (lower+upper roles coincide); with zero correct intervals
// the bound is 0 and meaningless, so callers should ensure correct
// intervals exist.
func Theorem2Bound(correct []interval.Interval) float64 {
	if len(correct) == 0 {
		return 0
	}
	ws := interval.Widths(correct)
	sort.Float64s(ws)
	if len(ws) == 1 {
		return 2 * ws[0]
	}
	return ws[len(ws)-1] + ws[len(ws)-2]
}

// CheckTheorem2 fuses the full set (correct plus attacked) with fault
// bound f and reports whether the fusion width respects the Theorem 2
// bound computed from the correct intervals alone. It requires
// f < ceil(n/2); outside that regime the theorem does not apply and the
// function returns true vacuously. It is a property oracle for the
// tests; no binary calls it.
func CheckTheorem2(correct, attacked []interval.Interval, f int) (bool, error) {
	all := append(append([]interval.Interval(nil), correct...), attacked...)
	if !IsSafe(len(all), f) {
		return true, nil
	}
	fused, err := Fuse(all, f)
	if err != nil {
		return false, err
	}
	const eps = 1e-9
	return fused.Width() <= Theorem2Bound(correct)+eps, nil
}

// MarzulloWidthBound returns the width bound implied by Marzullo's
// original analysis for a given f and n:
//
//   - f < ceil(n/3): bounded by the width of some correct interval, so at
//     most the largest correct width;
//   - f < ceil(n/2): bounded by the width of some interval (not
//     necessarily correct), so at most the largest width overall;
//   - otherwise: unbounded (returns +Inf semantics via ok=false).
//
// It is a property oracle for the tests; no binary calls it.
func MarzulloWidthBound(correct, all []interval.Interval, f int) (bound float64, ok bool) {
	n := len(all)
	maxW := func(ivs []interval.Interval) float64 {
		m := 0.0
		for _, iv := range ivs {
			if w := iv.Width(); w > m {
				m = w
			}
		}
		return m
	}
	switch {
	case f < (n+2)/3: // f < ceil(n/3)
		return maxW(correct), true
	case f < (n+1)/2: // f < ceil(n/2)
		return maxW(all), true
	default:
		return 0, false
	}
}

// WorstCaseNoAttack computes |S_na|: the largest fusion width achievable
// over all placements of n correct intervals with the given widths, each
// required to contain the true value (taken as 0 WLOG), with placements
// restricted to a discrete grid of the given step over each sensor's
// feasible offsets. It exhaustively enumerates placements, which is only
// feasible for the small n used in the paper (n <= 5).
//
// A correct interval of width w containing 0 has center offset in
// [-w/2, +w/2]. It is a property oracle for the tests; no binary calls
// it.
func WorstCaseNoAttack(widths []float64, f int, step float64) (float64, error) {
	n := len(widths)
	ivs := make([]interval.Interval, n)
	worst := 0.0
	var rec func(k int) error
	rec = func(k int) error {
		if k == n {
			fused, err := Fuse(ivs, f)
			if err != nil {
				return err
			}
			if w := fused.Width(); w > worst {
				worst = w
			}
			return nil
		}
		w := widths[k]
		for off := -w / 2; off <= w/2+1e-9; off += step {
			ivs[k] = interval.MustCentered(off, w)
			if err := rec(k + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return 0, err
	}
	return worst, nil
}
