package fusion

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sensorfusion/internal/interval"
)

// fig1Intervals mimics the structure of the paper's Fig. 1: five sensor
// intervals over which the fusion interval grows with f.
func fig1Intervals() []interval.Interval {
	return []interval.Interval{
		interval.MustNew(0, 6),
		interval.MustNew(1, 4),
		interval.MustNew(2, 7),
		interval.MustNew(3, 9),
		interval.MustNew(3.5, 5),
	}
}

func TestFuseF0IsIntersection(t *testing.T) {
	ivs := fig1Intervals()
	got, err := Fuse(ivs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := interval.IntersectAll(ivs...)
	if !ok {
		t.Fatal("test fixture must have common intersection")
	}
	if !got.Equal(want) || !got.Equal(interval.MustNew(3.5, 4)) {
		t.Fatalf("Fuse(f=0) = %v, want intersection %v = [3.5, 4]", got, want)
	}
}

func TestFuseFNMinus1IsHull(t *testing.T) {
	ivs := fig1Intervals()
	got, err := Fuse(ivs, len(ivs)-1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := interval.HullAll(ivs...)
	if !got.Equal(want) || !got.Equal(interval.MustNew(0, 9)) {
		t.Fatalf("Fuse(f=n-1) = %v, want hull %v = [0, 9]", got, want)
	}
}

func TestFuseMonotoneInF(t *testing.T) {
	ivs := fig1Intervals()
	var prev interval.Interval
	for f := 0; f < len(ivs); f++ {
		s, err := Fuse(ivs, f)
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if f > 0 && !s.ContainsInterval(prev) {
			t.Fatalf("fusion not monotone: S(f=%d)=%v does not contain S(f=%d)=%v", f, s, f-1, prev)
		}
		prev = s
	}
}

func TestFuseErrors(t *testing.T) {
	one := []interval.Interval{interval.MustNew(0, 1)}
	twoApart := []interval.Interval{interval.MustNew(0, 1), interval.MustNew(5, 6)}
	// No common point at coverage n-f.
	disjoint := []interval.Interval{
		interval.MustNew(0, 1),
		interval.MustNew(10, 11),
		interval.MustNew(20, 21),
	}
	tests := []struct {
		name string
		ivs  []interval.Interval
		f    int
		want error
	}{
		{"empty input", nil, 0, ErrNoFusion},
		{"fig1 f=-1", fig1Intervals(), -1, ErrBadFaultBound},
		{"fig1 f=n", fig1Intervals(), 5, ErrBadFaultBound},
		{"single f=-1", one, -1, ErrBadFaultBound},
		{"single f=n", one, 1, ErrBadFaultBound},
		{"two apart f=0", twoApart, 0, ErrNoFusion},
		{"two apart f=-1 (coverage above n)", twoApart, -1, ErrBadFaultBound},
		{"disjoint f=0", disjoint, 0, ErrNoFusion},
		{"disjoint f=1", disjoint, 1, ErrNoFusion},
	}
	for _, tc := range tests {
		if _, err := Fuse(tc.ivs, tc.f); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestFuseSingleSensor(t *testing.T) {
	iv := interval.MustNew(3, 5)
	s, err := Fuse([]interval.Interval{iv}, 0)
	if err != nil || !s.Equal(iv) {
		t.Fatalf("single sensor fusion = %v, %v", s, err)
	}
}

// TestFuseMarzulloClassic reproduces the classic three-clock example from
// Marzullo's algorithm literature — [8,12], [11,13], [14,15] with f=1
// fuses to [11,12], the span of points covered by >= 2 intervals — next
// to the exact endpoint edge cases: duplicate intervals, intervals that
// only touch, and fault bounds that leave a gap inside the hull.
func TestFuseMarzulloClassic(t *testing.T) {
	tests := []struct {
		name string
		ivs  []interval.Interval
		f    int
		want interval.Interval
	}{
		{"three clocks", []interval.Interval{
			interval.MustNew(8, 12), interval.MustNew(11, 13), interval.MustNew(14, 15),
		}, 1, interval.MustNew(11, 12)},
		{"duplicates", []interval.Interval{
			interval.MustNew(1, 3), interval.MustNew(1, 3), interval.MustNew(1, 3),
		}, 0, interval.MustNew(1, 3)},
		{"touching endpoints", []interval.Interval{
			interval.MustNew(0, 2), interval.MustNew(2, 4),
		}, 0, interval.Point(2)},
		{"two apart hull", []interval.Interval{
			interval.MustNew(0, 1), interval.MustNew(5, 6),
		}, 1, interval.MustNew(0, 6)},
		{"disjoint hull", []interval.Interval{
			interval.MustNew(0, 1), interval.MustNew(10, 11), interval.MustNew(20, 21),
		}, 2, interval.MustNew(0, 21)},
	}
	for _, tc := range tests {
		s, err := Fuse(tc.ivs, tc.f)
		if err != nil || !s.Equal(tc.want) {
			t.Errorf("%s: fused = %v, %v, want %v", tc.name, s, err, tc.want)
		}
	}
}

// TestFuseAgainstNaiveRandomized cycles through three input families:
// wide integer endpoints, narrow integer endpoints (dense with
// duplicate and touching endpoints, where a two-pointer sweep could
// diverge from the containment count), and continuous endpoints.
func TestFuseAgainstNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(9)
		ivs := make([]interval.Interval, n)
		for k := range ivs {
			var lo, w float64
			switch trial % 3 {
			case 0:
				lo, w = float64(rng.Intn(31)-15), float64(rng.Intn(12))
			case 1:
				lo, w = float64(rng.Intn(9)-4), float64(rng.Intn(5))
			default:
				lo, w = (rng.Float64()-0.5)*8, rng.Float64()*4
			}
			ivs[k] = interval.Interval{Lo: lo, Hi: lo + w}
		}
		for f := 0; f < n; f++ {
			a, errA := Fuse(ivs, f)
			b, errB := FuseNaive(ivs, f)
			if (errA == nil) != (errB == nil) || (errA != nil && !errors.Is(errA, ErrNoFusion)) {
				t.Fatalf("trial %d f=%d: sweep err=%v naive err=%v (ivs %v)", trial, f, errA, errB, ivs)
			}
			if errA == nil && !a.Equal(b) {
				t.Fatalf("trial %d f=%d: sweep=%v naive=%v (ivs %v)", trial, f, a, b, ivs)
			}
		}
	}
}

func TestFuseOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ivs := fig1Intervals()
	want, err := Fuse(ivs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]interval.Interval(nil), ivs...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		got, err := Fuse(shuffled, 2)
		if err != nil || !got.Equal(want) {
			t.Fatalf("order dependence: got %v, want %v", got, want)
		}
	}
}

func TestSafeFaultBound(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {6, 2}, {7, 3}, {10, 4},
	}
	for _, tc := range tests {
		if got := SafeFaultBound(tc.n); got != tc.want {
			t.Errorf("SafeFaultBound(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if !IsSafe(tc.n, tc.want) {
			t.Errorf("IsSafe(%d, %d) should be true", tc.n, tc.want)
		}
		if IsSafe(tc.n, tc.want+1) {
			t.Errorf("IsSafe(%d, %d) should be false", tc.n, tc.want+1)
		}
	}
	if IsSafe(3, -1) {
		t.Error("negative f is not safe")
	}
}

// Property: if at most f of the intervals are faulty (i.e. at least n-f
// contain the true value), the fusion interval contains the true value.
func TestQuickTrueValueContained(t *testing.T) {
	type cfgT struct {
		Offsets   []uint8
		FaultMask uint8
	}
	f := func(c cfgT) bool {
		if len(c.Offsets) == 0 {
			return true
		}
		if len(c.Offsets) > 7 {
			c.Offsets = c.Offsets[:7]
		}
		n := len(c.Offsets)
		truth := 0.0
		ivs := make([]interval.Interval, n)
		faults := 0
		for k, o := range c.Offsets {
			w := 1 + float64(o%5)
			if c.FaultMask&(1<<uint(k)) != 0 {
				// Faulty: place the interval strictly away from truth.
				ivs[k] = interval.MustCentered(truth+10+float64(o%9), w)
				faults++
			} else {
				// Correct: center within w/2 of the truth.
				off := (float64(o%11)/10 - 0.5) * w
				ivs[k] = interval.MustCentered(truth+off, w)
			}
		}
		fBound := faults // fuse with exactly the number of faults
		if fBound >= n {
			return true // degenerate, nothing to check
		}
		s, err := Fuse(ivs, fBound)
		if err != nil {
			return false
		}
		return s.Contains(truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: fusion width is monotone non-increasing as intervals shrink
// toward the truth (replacing an interval with a sub-interval containing
// the truth never widens the fusion result).
func TestFusionShrinkNeverWidens(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(4)
		ivs := make([]interval.Interval, n)
		for k := range ivs {
			w := 1 + rng.Float64()*6
			off := (rng.Float64() - 0.5) * w
			ivs[k] = interval.MustCentered(off, w)
		}
		fb := SafeFaultBound(n)
		before, err := Fuse(ivs, fb)
		if err != nil {
			t.Fatal(err)
		}
		// Shrink one correct interval toward the truth (0): halve it
		// around a point it shares with the truth side.
		k := rng.Intn(n)
		shrunk := ivs[k]
		mid := 0.0
		if !shrunk.Contains(mid) {
			continue
		}
		half := interval.MustCentered(mid, shrunk.Width()/4)
		clipped, ok := half.Intersect(shrunk)
		if !ok {
			continue
		}
		ivs[k] = clipped
		after, err := Fuse(ivs, fb)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1e-9
		if after.Width() > before.Width()+eps {
			t.Fatalf("trial %d: shrinking widened fusion: %v -> %v", trial, before, after)
		}
	}
}

func TestComputeResult(t *testing.T) {
	ivs := fig1Intervals()
	r, err := Compute(ivs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.F != 1 || len(r.Inputs) != len(ivs) {
		t.Fatalf("Result = %+v", r)
	}
	want, _ := Fuse(ivs, 1)
	if !r.Fused.Equal(want) {
		t.Fatalf("Result.Fused = %v, want %v", r.Fused, want)
	}
	// Inputs must be a copy.
	r.Inputs[0] = interval.MustNew(-100, 100)
	if ivs[0].Equal(interval.MustNew(-100, 100)) {
		t.Fatal("Compute must copy its inputs")
	}
	if _, err := Compute(nil, 0); err == nil {
		t.Fatal("Compute of nothing should fail")
	}
}

// BenchmarkFusePerCall measures the convenience Fuse, which builds a
// fresh Sweeper (and so allocates its endpoint buffers) on every call.
func BenchmarkFusePerCall(b *testing.B) {
	rng := rand.New(rand.NewSource(64))
	ivs := make([]interval.Interval, 8)
	for k := range ivs {
		w := 0.5 + rng.Float64()*5
		ivs[k] = interval.MustCentered((rng.Float64()-0.5)*w, w)
	}
	f := SafeFaultBound(len(ivs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fuse(ivs, f); err != nil {
			b.Fatal(err)
		}
	}
}

// Result bundles a fusion computation with the inputs that produced it,
// for use by the detector and reporting code.
type Result struct {
	Inputs []interval.Interval
	F      int
	Fused  interval.Interval
}

// Compute runs Fuse and returns a Result.
func Compute(ivs []interval.Interval, f int) (Result, error) {
	s, err := Fuse(ivs, f)
	if err != nil {
		return Result{}, err
	}
	return Result{Inputs: append([]interval.Interval(nil), ivs...), F: f, Fused: s}, nil
}
