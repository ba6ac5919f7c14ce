// Package fusion implements Marzullo's fault-tolerant sensor fusion
// algorithm and the attack-detection procedure built on top of it, as used
// in "Attack-Resilient Sensor Fusion" (Ivanov, Pajic, Lee, DATE 2014).
//
// Given n sensor intervals and a fault bound f, the fusion interval
// S_{N,f} spans from the smallest point contained in at least n-f
// intervals to the largest such point. Since at least n-f intervals are
// correct, any point covered n-f times may be the true value, so the
// fusion interval conservatively contains the true value whenever at most
// f sensors are faulty.
package fusion

import (
	"errors"
	"fmt"

	"sensorfusion/internal/interval"
)

// ErrNoFusion is returned when no point is covered by at least n-f
// intervals, i.e. the fusion interval is empty. With at most f faulty
// sensors this cannot happen; observing it therefore indicates that the
// fault bound f was violated.
var ErrNoFusion = errors.New("fusion: no point is covered by n-f intervals")

// ErrBadFaultBound is returned when f is negative or f >= n.
var ErrBadFaultBound = errors.New("fusion: fault bound out of range")

// Fuse computes Marzullo's fusion interval S_{N,f} for the given
// intervals and fault bound f with interval.Sweeper's endpoint scan —
// the same scan the round simulator and the attacker run.
//
// f must satisfy 0 <= f < n. The paper additionally assumes f < ceil(n/2)
// so that the result is bounded by sensor widths (see SafeFaultBound);
// Fuse itself does not enforce that stronger condition because the
// algorithm is well defined without it.
func Fuse(ivs []interval.Interval, f int) (interval.Interval, error) {
	n := len(ivs)
	if n == 0 {
		return interval.Interval{}, fmt.Errorf("%w: no intervals", ErrNoFusion)
	}
	if f < 0 || f >= n {
		return interval.Interval{}, fmt.Errorf("%w: f=%d with n=%d", ErrBadFaultBound, f, n)
	}
	var sw interval.Sweeper
	sw.Preload(ivs)
	s, ok := sw.FuseWith(nil, f)
	if !ok {
		return interval.Interval{}, fmt.Errorf("%w: n=%d f=%d", ErrNoFusion, n, f)
	}
	return s, nil
}

// FuseNaive computes the same fusion interval by scanning every endpoint
// with an O(n^2) containment count. It exists as an independently simple
// reference implementation for differential testing and as the baseline
// of the sweep-vs-naive ablation benchmark. Its values equal Fuse's; on
// a tie between -0 and +0 it returns the first qualifying endpoint in
// input order, which can be the other zero than Fuse's.
func FuseNaive(ivs []interval.Interval, f int) (interval.Interval, error) {
	n := len(ivs)
	if n == 0 {
		return interval.Interval{}, fmt.Errorf("%w: no intervals", ErrNoFusion)
	}
	if f < 0 || f >= n {
		return interval.Interval{}, fmt.Errorf("%w: f=%d with n=%d", ErrBadFaultBound, f, n)
	}
	need := n - f
	count := func(x float64) int {
		c := 0
		for _, iv := range ivs {
			if iv.Contains(x) {
				c++
			}
		}
		return c
	}
	haveLo, haveHi := false, false
	var lo, hi float64
	for _, iv := range ivs {
		for _, x := range [2]float64{iv.Lo, iv.Hi} {
			if count(x) < need {
				continue
			}
			if !haveLo || x < lo {
				lo, haveLo = x, true
			}
			if !haveHi || x > hi {
				hi, haveHi = x, true
			}
		}
	}
	if !haveLo || !haveHi {
		return interval.Interval{}, fmt.Errorf("%w: n=%d f=%d", ErrNoFusion, n, f)
	}
	return interval.Interval{Lo: lo, Hi: hi}, nil
}

// SafeFaultBound reports the largest f the paper considers safe for n
// sensors: f < ceil(n/2), i.e. ceil(n/2)-1. For f >= ceil(n/2) the fusion
// interval can be arbitrarily large and may not contain the true value.
func SafeFaultBound(n int) int {
	return (n+1)/2 - 1
}

// IsSafe reports whether the fault bound f satisfies the paper's
// standing assumption f < ceil(n/2).
func IsSafe(n, f int) bool { return f >= 0 && f < (n+1)/2 }
