package fusion

import (
	"math/rand"
	"testing"

	"sensorfusion/internal/interval"
)

func TestDetectNoSuspects(t *testing.T) {
	ivs := fig1Intervals()
	fused, err := Fuse(ivs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := Detect(nil, ivs, fused); len(got) != 0 {
		t.Fatalf("Detect = %v, want none", got)
	}
}

func TestDetectFlagsOutlier(t *testing.T) {
	ivs := append(fig1Intervals(), interval.MustNew(100, 101))
	fused, err := Fuse(ivs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := Detect(nil, ivs, fused)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("Detect = %v, want [5]", got)
	}
}

// TestDetectAppendsIntoDst: Detect extends dst, keeping what it holds,
// and a reused buffer with room detects without allocating.
func TestDetectAppendsIntoDst(t *testing.T) {
	ivs := append(fig1Intervals(), interval.MustNew(100, 101))
	fused, err := Fuse(ivs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := Detect([]int{-1}, ivs, fused)
	if len(got) != 2 || got[0] != -1 || got[1] != 5 {
		t.Fatalf("Detect = %v, want [-1 5]", got)
	}
	buf := make([]int, 0, len(ivs))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = Detect(buf[:0], ivs, fused)
	}); allocs != 0 {
		t.Fatalf("Detect into a reused buffer: %v allocs/op, want 0", allocs)
	}
}

func TestDetectTouchingIsNotSuspect(t *testing.T) {
	// An interval touching the fusion interval at a single endpoint
	// intersects it and must not be flagged — this is exactly the
	// attacker's stealth condition.
	ivs := []interval.Interval{
		interval.MustNew(0, 2),
		interval.MustNew(1, 3),
		interval.MustNew(2, 4), // touches intersection of first two at 2
	}
	fused, err := Fuse(ivs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fused.Equal(interval.Point(2)) {
		t.Fatalf("fused = %v, want [2,2]", fused)
	}
	if got := Detect(nil, ivs, fused); len(got) != 0 {
		t.Fatalf("Detect = %v, want none", got)
	}
}

func TestFuseAndDetect(t *testing.T) {
	ivs := append(fig1Intervals(), interval.MustNew(-50, -49))
	fused, suspects, err := FuseAndDetect(ivs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !fused.Valid() {
		t.Fatal("invalid fused interval")
	}
	if len(suspects) != 1 || suspects[0] != 5 {
		t.Fatalf("suspects = %v", suspects)
	}
	if _, _, err := FuseAndDetect(nil, 0); err == nil {
		t.Fatal("want error on empty input")
	}
}

// Detector soundness: with at most f faulty sensors, a correct interval is
// never discarded (it contains the true value, which is in the fusion
// interval).
func TestDetectorNeverFlagsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(4)
		f := SafeFaultBound(n)
		faults := rng.Intn(f + 1)
		ivs := make([]interval.Interval, n)
		correct := make([]bool, n)
		for k := range ivs {
			w := 0.5 + rng.Float64()*5
			if k < faults {
				ivs[k] = interval.MustCentered(8+rng.Float64()*10, w)
			} else {
				off := (rng.Float64() - 0.5) * w
				ivs[k] = interval.MustCentered(off, w)
				correct[k] = true
			}
		}
		fused, suspects, err := FuseAndDetect(ivs, f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !fused.Contains(0) {
			t.Fatalf("trial %d: fusion %v lost the true value", trial, fused)
		}
		for _, s := range suspects {
			if correct[s] {
				t.Fatalf("trial %d: detector flagged correct sensor %d (ivs %v, fused %v)",
					trial, s, ivs, fused)
			}
		}
	}
}
