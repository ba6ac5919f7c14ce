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
