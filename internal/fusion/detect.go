package fusion

import "sensorfusion/internal/interval"

// Detect implements the attack-detection procedure from Section III-A of
// the paper: after fusing, every input interval that does not intersect
// the fusion interval must be compromised (or faulty), because any correct
// interval contains the true value and the true value lies in the fusion
// interval whenever at most f sensors are faulty.
//
// It appends the indices of suspect intervals, in ascending order, to
// dst and returns the extended slice: pass nil for a fresh slice, or a
// reused buffer truncated to length zero to detect without allocating.
func Detect(dst []int, ivs []interval.Interval, fused interval.Interval) []int {
	for k, iv := range ivs {
		if !iv.Intersects(fused) {
			dst = append(dst, k)
		}
	}
	return dst
}

// FuseAndDetect fuses the intervals and returns both the fusion interval
// and the indices of detected (non-intersecting) inputs.
func FuseAndDetect(ivs []interval.Interval, f int) (interval.Interval, []int, error) {
	fused, err := Fuse(ivs, f)
	if err != nil {
		return interval.Interval{}, nil, err
	}
	return fused, Detect(nil, ivs, fused), nil
}

// FuseToFixpoint repeats FuseDiscarding until no further interval is
// discarded, returning the final fusion interval and every index dropped
// along the way (relative to the original input, ascending). Each pass
// reduces f by the number discarded, so the loop terminates after at
// most f iterations.
func FuseToFixpoint(ivs []interval.Interval, f int) (interval.Interval, []int, error) {
	live := append([]interval.Interval(nil), ivs...)
	origIdx := make([]int, len(ivs))
	for k := range origIdx {
		origIdx[k] = k
	}
	var droppedAll []int
	for {
		fused, suspects, err := FuseAndDetect(live, f)
		if err != nil {
			return interval.Interval{}, droppedAll, err
		}
		if len(suspects) == 0 {
			sortInts(droppedAll)
			return fused, droppedAll, nil
		}
		drop := make(map[int]bool, len(suspects))
		for _, s := range suspects {
			drop[s] = true
			droppedAll = append(droppedAll, origIdx[s])
		}
		nextLive := live[:0]
		nextIdx := origIdx[:0]
		for k := range live {
			if !drop[k] {
				nextLive = append(nextLive, live[k])
				nextIdx = append(nextIdx, origIdx[k])
			}
		}
		live, origIdx = nextLive, nextIdx
		f -= len(suspects)
		if f < 0 {
			f = 0
		}
	}
}

func sortInts(xs []int) {
	for a := 1; a < len(xs); a++ {
		for b := a; b > 0 && xs[b] < xs[b-1]; b-- {
			xs[b], xs[b-1] = xs[b-1], xs[b]
		}
	}
}

// FuseDiscarding runs fusion, discards detected intervals, and refuses
// once: it returns the fusion interval computed over the surviving
// intervals (with f reduced by the number discarded, floored at 0). This
// is the natural "discard all intervals that do not intersect the fusion
// interval" loop from the paper, taken one round.
//
// The returned slice lists the discarded indices relative to the original
// input.
func FuseDiscarding(ivs []interval.Interval, f int) (interval.Interval, []int, error) {
	fused, suspects, err := FuseAndDetect(ivs, f)
	if err != nil {
		return interval.Interval{}, nil, err
	}
	if len(suspects) == 0 {
		return fused, nil, nil
	}
	keep := make([]interval.Interval, 0, len(ivs)-len(suspects))
	drop := make(map[int]bool, len(suspects))
	for _, k := range suspects {
		drop[k] = true
	}
	for k, iv := range ivs {
		if !drop[k] {
			keep = append(keep, iv)
		}
	}
	f2 := f - len(suspects)
	if f2 < 0 {
		f2 = 0
	}
	refused, err := Fuse(keep, f2)
	if err != nil {
		return interval.Interval{}, suspects, err
	}
	return refused, suspects, nil
}
