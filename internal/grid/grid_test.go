package grid

import (
	"math"
	"testing"
)

func TestNewBasics(t *testing.T) {
	g, err := New(0, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for k, w := range want {
		if got := g.At(k); math.Abs(got-w) > 1e-12 {
			t.Fatalf("At(%d) = %v, want %v", k, got, w)
		}
	}
	if g.Step() != 0.25 {
		t.Fatalf("Step = %v", g.Step())
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 1, 0); err == nil {
		t.Fatal("zero step must fail")
	}
	if _, err := New(0, 1, -1); err == nil {
		t.Fatal("negative step must fail")
	}
	if _, err := New(1, 0, 0.5); err == nil {
		t.Fatal("hi < lo must fail")
	}
}

func TestNewSinglePoint(t *testing.T) {
	g, err := New(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.At(0) != 3 {
		t.Fatalf("point grid = len %d at %v", g.Len(), g.At(0))
	}
}

func TestNewNonMultipleRange(t *testing.T) {
	// (hi-lo) not an exact multiple of step: the last point is clamped
	// to exactly hi — covering it without overshooting.
	g := MustNew(0, 1, 0.3)
	last := g.At(g.Len() - 1)
	if last != 1 {
		t.Fatalf("last point = %v, want exactly hi = 1", last)
	}
	for k := 0; k < g.Len(); k++ {
		if x := g.At(k); x < 0 || x > 1 {
			t.Fatalf("At(%d) = %v escapes [0, 1]", k, x)
		}
	}
}

func TestSymmetricNeverOvershoots(t *testing.T) {
	// A Symmetric grid enumerates feasible offsets of correct readings:
	// a point beyond +half would fabricate an interval missing the
	// truth. half=5.5 with step 2.5 used to produce +6.0.
	g := Symmetric(5.5, 2.5)
	for k := 0; k < g.Len(); k++ {
		if x := g.At(k); x < -5.5 || x > 5.5 {
			t.Fatalf("At(%d) = %v escapes [-5.5, 5.5]", k, x)
		}
	}
	if last := g.At(g.Len() - 1); last != 5.5 {
		t.Fatalf("last = %v, want the +half boundary", last)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad input")
		}
	}()
	MustNew(0, 1, 0)
}

func TestSymmetric(t *testing.T) {
	g := Symmetric(2.5, 0.5)
	if g.Len() != 11 {
		t.Fatalf("Len = %d, want 11", g.Len())
	}
	if g.At(0) != -2.5 || math.Abs(g.At(10)-2.5) > 1e-9 {
		t.Fatalf("ends = %v, %v", g.At(0), g.At(10))
	}
	// Zero half-width: the single offset 0.
	z := Symmetric(0, 0.5)
	if z.Len() != 1 || z.At(0) != 0 {
		t.Fatalf("zero-half grid = len %d at %v", z.Len(), z.At(0))
	}
	// Negative half-width is clamped.
	n := Symmetric(-1, 0.5)
	if n.Len() != 1 {
		t.Fatalf("negative-half grid len = %d", n.Len())
	}
}

func TestPoints(t *testing.T) {
	g := MustNew(-1, 1, 1)
	pts := g.Points()
	if len(pts) != 3 || pts[0] != -1 || pts[1] != 0 || pts[2] != 1 {
		t.Fatalf("Points = %v", pts)
	}
}

func TestEnumerate(t *testing.T) {
	g1 := MustNew(0, 1, 1) // {0, 1}
	g2 := MustNew(0, 2, 1) // {0, 1, 2}
	var combos [][]float64
	n := Enumerate([]Grid{g1, g2}, func(vals []float64) bool {
		combos = append(combos, append([]float64(nil), vals...))
		return true
	})
	if n != 6 || len(combos) != 6 {
		t.Fatalf("visited %d combos (len %d), want 6", n, len(combos))
	}
	// Odometer order: last grid varies fastest.
	if combos[0][0] != 0 || combos[0][1] != 0 {
		t.Fatalf("first combo = %v", combos[0])
	}
	if combos[1][0] != 0 || combos[1][1] != 1 {
		t.Fatalf("second combo = %v", combos[1])
	}
	if combos[5][0] != 1 || combos[5][1] != 2 {
		t.Fatalf("last combo = %v", combos[5])
	}
	if got := Size([]Grid{g1, g2}); got != 6 {
		t.Fatalf("Size = %d, want 6", got)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := MustNew(0, 9, 1) // 10 points
	count := 0
	visited := Enumerate([]Grid{g}, func([]float64) bool {
		count++
		return count < 3
	})
	if visited != 3 || count != 3 {
		t.Fatalf("visited = %d count = %d, want 3", visited, count)
	}
}

func TestEnumerateEmpty(t *testing.T) {
	called := 0
	n := Enumerate(nil, func(vals []float64) bool {
		called++
		if vals != nil {
			t.Fatalf("vals = %v, want nil", vals)
		}
		return true
	})
	if n != 1 || called != 1 {
		t.Fatalf("empty enumerate visited %d, called %d", n, called)
	}
	if Size(nil) != 1 {
		t.Fatalf("Size(nil) = %d", Size(nil))
	}
}

func TestEnumerateScratchReuse(t *testing.T) {
	// The scratch slice is shared; verify values change between calls so
	// callers copying it (as documented) see correct data.
	g := MustNew(0, 1, 1)
	var first []float64
	idx := 0
	Enumerate([]Grid{g}, func(vals []float64) bool {
		if idx == 0 {
			first = vals
		} else if &first[0] != &vals[0] {
			t.Log("scratch slice was reallocated (allowed but unexpected)")
		}
		idx++
		return true
	})
	if idx != 2 {
		t.Fatalf("visited %d", idx)
	}
}

// Points materializes all grid points.
func (g Grid) Points() []float64 {
	pts := make([]float64, g.count)
	for k := range pts {
		pts[k] = g.At(k)
	}
	return pts
}
