package interval

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	tests := []struct {
		name    string
		lo, hi  float64
		wantErr bool
	}{
		{"ordinary", 1, 2, false},
		{"point", 3, 3, false},
		{"negative", -5, -1, false},
		{"crossing zero", -1, 1, false},
		{"inverted", 2, 1, true},
		{"nan lo", math.NaN(), 1, true},
		{"nan hi", 0, math.NaN(), true},
		{"inf lo", math.Inf(-1), 0, true},
		{"inf hi", 0, math.Inf(1), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			iv, err := New(tc.lo, tc.hi)
			if (err != nil) != tc.wantErr {
				t.Fatalf("New(%v, %v) err = %v, wantErr %v", tc.lo, tc.hi, err, tc.wantErr)
			}
			if err == nil && (iv.Lo != tc.lo || iv.Hi != tc.hi) {
				t.Fatalf("New(%v, %v) = %v", tc.lo, tc.hi, iv)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(2, 1) did not panic")
		}
	}()
	MustNew(2, 1)
}

func TestCentered(t *testing.T) {
	iv := MustCentered(10, 4)
	if iv.Lo != 8 || iv.Hi != 12 {
		t.Fatalf("MustCentered(10, 4) = %v, want [8, 12]", iv)
	}
	if _, err := Centered(0, -1); err == nil {
		t.Fatal("Centered with negative width should fail")
	}
	p := Point(7)
	if p.Lo != 7 || p.Hi != 7 || p.Width() != 0 {
		t.Fatalf("Point(7) = %v", p)
	}
}

func TestWidthCenter(t *testing.T) {
	iv := MustNew(2, 8)
	if got := iv.Width(); got != 6 {
		t.Fatalf("Width = %v, want 6", got)
	}
	if got := iv.Center(); got != 5 {
		t.Fatalf("Center = %v, want 5", got)
	}
}

func TestContains(t *testing.T) {
	iv := MustNew(1, 3)
	for _, x := range []float64{1, 2, 3} {
		if !iv.Contains(x) {
			t.Errorf("[1,3] should contain %v", x)
		}
	}
	for _, x := range []float64{0.999, 3.001, -10} {
		if iv.Contains(x) {
			t.Errorf("[1,3] should not contain %v", x)
		}
	}
	if !iv.ContainsInterval(MustNew(1.5, 2.5)) {
		t.Error("[1,3] should contain [1.5,2.5]")
	}
	if !iv.ContainsInterval(iv) {
		t.Error("interval should contain itself")
	}
	if iv.ContainsInterval(MustNew(0.5, 2)) {
		t.Error("[1,3] should not contain [0.5,2]")
	}
}

func TestIntersect(t *testing.T) {
	a := MustNew(0, 5)
	b := MustNew(3, 8)
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(MustNew(3, 5)) {
		t.Fatalf("Intersect = %v, %v", got, ok)
	}
	// Touching endpoints intersect in a point.
	c := MustNew(5, 9)
	got, ok = a.Intersect(c)
	if !ok || !got.Equal(Point(5)) {
		t.Fatalf("touching Intersect = %v, %v", got, ok)
	}
	// Disjoint.
	d := MustNew(6, 7)
	if _, ok := a.Intersect(d); ok {
		t.Fatal("disjoint intervals should not intersect")
	}
	if a.Intersects(d) {
		t.Fatal("Intersects should be false for disjoint")
	}
	if !a.Intersects(c) {
		t.Fatal("Intersects should be true for touching")
	}
}

func TestHullTranslate(t *testing.T) {
	a := MustNew(0, 1)
	b := MustNew(4, 6)
	if got := a.Hull(b); !got.Equal(MustNew(0, 6)) {
		t.Fatalf("Hull = %v", got)
	}
	if got := a.Translate(2.5); !got.Equal(MustNew(2.5, 3.5)) {
		t.Fatalf("Translate = %v", got)
	}
}

func TestIntersectAll(t *testing.T) {
	if _, ok := IntersectAll(); ok {
		t.Fatal("IntersectAll() of nothing should be not-ok")
	}
	got, ok := IntersectAll(MustNew(0, 10), MustNew(2, 8), MustNew(4, 12))
	if !ok || !got.Equal(MustNew(4, 8)) {
		t.Fatalf("IntersectAll = %v, %v", got, ok)
	}
	if _, ok := IntersectAll(MustNew(0, 1), MustNew(2, 3)); ok {
		t.Fatal("disjoint IntersectAll should be not-ok")
	}
}

func TestHullAll(t *testing.T) {
	if _, ok := HullAll(); ok {
		t.Fatal("HullAll() of nothing should be not-ok")
	}
	got, ok := HullAll(MustNew(2, 3), MustNew(-1, 0), MustNew(5, 6))
	if !ok || !got.Equal(MustNew(-1, 6)) {
		t.Fatalf("HullAll = %v, %v", got, ok)
	}
}

func TestPairwiseIntersect(t *testing.T) {
	good := []Interval{MustNew(0, 4), MustNew(2, 6), MustNew(3, 5)}
	if !PairwiseIntersect(good) {
		t.Fatal("all share point 3..4, should pairwise intersect")
	}
	bad := []Interval{MustNew(0, 1), MustNew(0.5, 2), MustNew(1.5, 3)}
	if PairwiseIntersect(bad) {
		t.Fatal("[0,1] and [1.5,3] are disjoint")
	}
	if !PairwiseIntersect(nil) {
		t.Fatal("empty set is vacuously pairwise intersecting")
	}
}

func TestSortByWidth(t *testing.T) {
	in := []Interval{MustNew(0, 10), MustNew(1, 2), MustNew(0, 5)}
	out := SortByWidth(in)
	if !out[0].Equal(MustNew(1, 2)) || !out[1].Equal(MustNew(0, 5)) || !out[2].Equal(MustNew(0, 10)) {
		t.Fatalf("SortByWidth = %v", out)
	}
	// Input must be untouched.
	if !in[0].Equal(MustNew(0, 10)) {
		t.Fatal("SortByWidth mutated its input")
	}
	// Deterministic tie-break by Lo.
	ties := []Interval{MustNew(5, 6), MustNew(1, 2), MustNew(3, 4)}
	got := SortByWidth(ties)
	if !got[0].Equal(MustNew(1, 2)) || !got[1].Equal(MustNew(3, 4)) || !got[2].Equal(MustNew(5, 6)) {
		t.Fatalf("tie-break order = %v", got)
	}
}

func TestWidths(t *testing.T) {
	ws := Widths([]Interval{MustNew(0, 1), MustNew(2, 5)})
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 3 {
		t.Fatalf("Widths = %v", ws)
	}
}

func TestApproxEqual(t *testing.T) {
	a := MustNew(0, 1)
	b := MustNew(1e-12, 1+1e-12)
	if !a.ApproxEqual(b, 1e-9) {
		t.Fatal("should be approx equal at 1e-9")
	}
	if a.ApproxEqual(b, 1e-15) {
		t.Fatal("should not be approx equal at 1e-15")
	}
}

func TestString(t *testing.T) {
	if got := MustNew(-1.5, 2).String(); got != "[-1.5, 2]" {
		t.Fatalf("String = %q", got)
	}
}

// Property: intersection is commutative and contained in both operands.
func TestQuickIntersectProperties(t *testing.T) {
	f := func(aLo, aW, bLo, bW float64) bool {
		a := normIv(aLo, aW)
		b := normIv(bLo, bW)
		x, okx := a.Intersect(b)
		y, oky := b.Intersect(a)
		if okx != oky {
			return false
		}
		if !okx {
			return !a.Intersects(b)
		}
		return x.Equal(y) && a.ContainsInterval(x) && b.ContainsInterval(x) && a.Intersects(b)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: hull contains both operands and is the smallest such interval
// (its endpoints are achieved by one of the operands).
func TestQuickHullProperties(t *testing.T) {
	f := func(aLo, aW, bLo, bW float64) bool {
		a := normIv(aLo, aW)
		b := normIv(bLo, bW)
		h := a.Hull(b)
		if !h.ContainsInterval(a) || !h.ContainsInterval(b) {
			return false
		}
		loAchieved := h.Lo == a.Lo || h.Lo == b.Lo
		hiAchieved := h.Hi == a.Hi || h.Hi == b.Hi
		return loAchieved && hiAchieved
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// Property: translation preserves width.
func TestQuickTranslateWidth(t *testing.T) {
	f := func(lo, w, d float64) bool {
		iv := normIv(lo, w)
		d = clampFinite(d)
		tr := iv.Translate(d)
		return math.Abs(tr.Width()-iv.Width()) < 1e-6*math.Max(1, math.Abs(iv.Width()))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// normIv builds a valid interval from arbitrary floats by clamping to a
// sane range so float artifacts do not dominate.
func normIv(lo, w float64) Interval {
	lo = clampFinite(lo)
	w = math.Abs(clampFinite(w))
	return Interval{Lo: lo, Hi: lo + w}
}

func clampFinite(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	if x > 1e6 {
		return 1e6
	}
	if x < -1e6 {
		return -1e6
	}
	return x
}

func quickCfg() *quick.Config { return &quick.Config{MaxCount: 500} }

// PairwiseIntersect reports whether every pair among ivs intersects. Any
// set of correct intervals must satisfy this (they all contain the true
// value), so it is a cheap sanity check on generated configurations.
func PairwiseIntersect(ivs []Interval) bool {
	for a := 0; a < len(ivs); a++ {
		for b := a + 1; b < len(ivs); b++ {
			if !ivs[a].Intersects(ivs[b]) {
				return false
			}
		}
	}
	return true
}

// SortByWidth returns a copy of ivs sorted by ascending width, breaking
// ties by lower bound, then upper bound, so the order is deterministic.
func SortByWidth(ivs []Interval) []Interval {
	out := append([]Interval(nil), ivs...)
	sort.Slice(out, func(a, b int) bool {
		wa, wb := out[a].Width(), out[b].Width()
		if wa != wb {
			return wa < wb
		}
		if out[a].Lo != out[b].Lo {
			return out[a].Lo < out[b].Lo
		}
		return out[a].Hi < out[b].Hi
	})
	return out
}
