package interval

import "sort"

// Coverage answers "how many of a fixed set of intervals contain x?"
// queries over one fixed interval set: point counts (At), the event
// coordinates (Events), and windowed maxima (MaxCoverageOn). Marzullo's
// fusion interval itself is Sweeper's job (incsweep.go).
//
// It is built once from a slice of intervals (O(n log n)) and then
// answers queries in O(log n). The structure is immutable after Build.
type Coverage struct {
	// xs are the distinct event coordinates in ascending order; counts[k]
	// is the number of intervals covering points in [xs[k], next event).
	// Because intervals are closed, the count *at* an event coordinate is
	// stored separately in atCounts (endpoint touching counts as covered).
	xs       []float64
	between  []int // coverage on the open segment (xs[k], xs[k+1]); len = len(xs)-1
	atCounts []int // coverage exactly at xs[k]; len = len(xs)
	n        int
}

// BuildCoverage constructs the coverage structure for ivs. Invalid
// intervals (Lo > Hi) must not be passed; they would corrupt the counts.
func BuildCoverage(ivs []Interval) *Coverage {
	type event struct {
		x     float64
		delta int // +1 open, -1 close (applied after the point)
	}
	// Collect distinct coordinates.
	coords := make([]float64, 0, 2*len(ivs))
	for _, iv := range ivs {
		coords = append(coords, iv.Lo, iv.Hi)
	}
	sort.Float64s(coords)
	xs := coords[:0]
	for k, x := range coords {
		if k == 0 || x != xs[len(xs)-1] {
			xs = append(xs, x)
		}
	}
	xs = append([]float64(nil), xs...) // detach from coords' backing array

	cov := &Coverage{
		xs:       xs,
		between:  make([]int, maxInt(len(xs)-1, 0)),
		atCounts: make([]int, len(xs)),
		n:        len(ivs),
	}
	// openDelta[k]: intervals whose Lo == xs[k]; closeDelta[k]: Hi == xs[k].
	openDelta := make([]int, len(xs))
	closeDelta := make([]int, len(xs))
	for _, iv := range ivs {
		openDelta[cov.indexOf(iv.Lo)]++
		closeDelta[cov.indexOf(iv.Hi)]++
	}
	running := 0 // number of intervals covering the open segment before xs[k]
	for k := range xs {
		// At the point xs[k]: everything still open, plus those opening
		// here, plus those closing here (closed intervals include Hi).
		cov.atCounts[k] = running + openDelta[k]
		running += openDelta[k] - closeDelta[k]
		if k < len(cov.between) {
			cov.between[k] = running
		}
	}
	return cov
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (c *Coverage) indexOf(x float64) int {
	k := sort.SearchFloat64s(c.xs, x)
	return k
}

// N returns the number of intervals the structure was built from.
func (c *Coverage) N() int { return c.n }

// At returns the number of intervals containing x.
func (c *Coverage) At(x float64) int {
	if len(c.xs) == 0 {
		return 0
	}
	k := sort.SearchFloat64s(c.xs, x)
	if k < len(c.xs) && c.xs[k] == x {
		return c.atCounts[k]
	}
	// x lies strictly between xs[k-1] and xs[k] (or outside the hull).
	if k == 0 || k == len(c.xs) {
		return 0
	}
	return c.between[k-1]
}

// Events returns the distinct endpoint coordinates in ascending order.
// The slice is shared; callers must not modify it.
func (c *Coverage) Events() []float64 { return c.xs }

// MaxCoverageOn returns the maximum coverage attained at any point of the
// window w. Because coverage is piecewise constant between events and can
// only spike at event points, it suffices to check the window endpoints
// and every event inside the window.
func (c *Coverage) MaxCoverageOn(w Interval) int {
	best := c.At(w.Lo)
	if v := c.At(w.Hi); v > best {
		best = v
	}
	lo := sort.SearchFloat64s(c.xs, w.Lo)
	for k := lo; k < len(c.xs) && c.xs[k] <= w.Hi; k++ {
		if c.atCounts[k] > best {
			best = c.atCounts[k]
		}
	}
	return best
}
