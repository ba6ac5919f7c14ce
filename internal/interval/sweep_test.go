package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoverageAt(t *testing.T) {
	ivs := []Interval{
		MustNew(0, 10),
		MustNew(2, 4),
		MustNew(4, 8),
		MustNew(4, 4), // point interval at an event coordinate
	}
	cov := BuildCoverage(ivs)
	tests := []struct {
		x    float64
		want int
	}{
		{-1, 0},
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 4}, // [0,10], [2,4], [4,8], [4,4] all contain 4
		{5, 2},
		{8, 2},
		{9, 1},
		{10, 1},
		{11, 0},
	}
	for _, tc := range tests {
		if got := cov.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if cov.N() != 4 {
		t.Errorf("N = %d, want 4", cov.N())
	}
}

func TestCoverageEmptyInput(t *testing.T) {
	cov := BuildCoverage(nil)
	if cov.At(0) != 0 || cov.MaxCoverageOn(MustNew(-1, 1)) != 0 || len(cov.Events()) != 0 {
		t.Fatal("empty coverage should be all zeros")
	}
}

func TestCoverageDuplicateIntervals(t *testing.T) {
	ivs := []Interval{MustNew(1, 3), MustNew(1, 3), MustNew(1, 3)}
	cov := BuildCoverage(ivs)
	if got := cov.At(2); got != 3 {
		t.Fatalf("At(2) = %d, want 3", got)
	}
	if got := cov.MaxCoverageOn(MustNew(0, 4)); got != 3 {
		t.Fatalf("MaxCoverageOn([0,4]) = %d, want 3", got)
	}
}

func TestCoverageTouchingEndpoints(t *testing.T) {
	// [0,2] and [2,4] touch at 2: coverage at exactly 2 is 2.
	ivs := []Interval{MustNew(0, 2), MustNew(2, 4)}
	cov := BuildCoverage(ivs)
	if got := cov.At(2); got != 2 {
		t.Fatalf("At(2) = %d, want 2", got)
	}
	if got := cov.MaxCoverageOn(MustNew(0, 1.5)); got != 1 {
		t.Fatalf("MaxCoverageOn([0,1.5]) = %d, want 1 (the touch point is outside)", got)
	}
}

// naiveAt is an independent O(n) implementation of coverage counting.
func naiveAt(ivs []Interval, x float64) int {
	c := 0
	for _, iv := range ivs {
		if iv.Contains(x) {
			c++
		}
	}
	return c
}

// naiveSpan scans all endpoints to find the k-covered span.
func naiveSpan(ivs []Interval, k int) (Interval, bool) {
	var lo, hi float64
	found := false
	for _, iv := range ivs {
		for _, x := range [2]float64{iv.Lo, iv.Hi} {
			if naiveAt(ivs, x) < k {
				continue
			}
			if !found {
				lo, hi, found = x, x, true
				continue
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if !found || k <= 0 {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

func TestCoverageAgainstNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		ivs := make([]Interval, n)
		for k := range ivs {
			lo := float64(rng.Intn(21) - 10)
			w := float64(rng.Intn(10))
			ivs[k] = Interval{Lo: lo, Hi: lo + w}
		}
		cov := BuildCoverage(ivs)
		// Check At on a grid denser than the integer endpoints.
		for x := -12.0; x <= 22.0; x += 0.5 {
			if got, want := cov.At(x), naiveAt(ivs, x); got != want {
				t.Fatalf("trial %d: At(%v) = %d, want %d (ivs %v)", trial, x, got, want, ivs)
			}
		}
		// Windows with integer bounds: the 0.5 grid hits every event
		// point and every open segment between them.
		for a := -12.0; a <= 20.0; a += 4 {
			w := MustNew(a, a+3)
			want := 0
			for x := w.Lo; x <= w.Hi; x += 0.5 {
				want = max(want, naiveAt(ivs, x))
			}
			if got := cov.MaxCoverageOn(w); got != want {
				t.Fatalf("trial %d: MaxCoverageOn(%v) = %d, want %d (ivs %v)", trial, w, got, want, ivs)
			}
		}
	}
}

// Property: the Sweeper's fusion interval at fault bound n-k is the
// naive k-covered span, and its endpoints are themselves covered k times.
func TestQuickSpanEndpointsCovered(t *testing.T) {
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 8 {
			seeds = seeds[:8]
		}
		ivs := make([]Interval, len(seeds))
		for k, s := range seeds {
			lo := float64(int(s)%17) - 8
			w := float64(int(s) % 5)
			ivs[k] = Interval{Lo: lo, Hi: lo + w}
		}
		cov := BuildCoverage(ivs)
		var sw Sweeper
		sw.Preload(ivs)
		for k := 1; k <= len(ivs); k++ {
			s, ok := sw.FuseWith(nil, len(ivs)-k)
			ns, nok := naiveSpan(ivs, k)
			if ok != nok || (ok && !s.Equal(ns)) {
				return false
			}
			if !ok {
				continue
			}
			if cov.At(s.Lo) < k || cov.At(s.Hi) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}
