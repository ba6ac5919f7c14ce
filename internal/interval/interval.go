// Package interval provides closed real intervals and the endpoint-sweep
// machinery used by Marzullo-style sensor fusion.
//
// An Interval is the abstract-sensor reading of the paper (Section
// II-B): a closed set [Lo, Hi] of all points that may be the true value
// of the measured physical variable. The package is deliberately free
// of any fusion or attack logic; it only knows geometry.
package interval

import (
	"errors"
	"fmt"
	"math"
)

// Interval is a closed real interval [Lo, Hi].
//
// The zero value is the degenerate interval [0, 0], which is valid (a
// single point). An interval with Lo > Hi is invalid; constructors return
// errors instead of producing one, and Valid reports the property.
type Interval struct {
	Lo float64
	Hi float64
}

// ErrInvalid is returned when an operation would produce or was given an
// interval with Lo > Hi or a non-finite endpoint.
var ErrInvalid = errors.New("interval: invalid interval")

// New returns the interval [lo, hi]. It returns ErrInvalid if lo > hi or
// either endpoint is NaN or infinite.
func New(lo, hi float64) (Interval, error) {
	if !finite(lo) || !finite(hi) || lo > hi {
		return Interval{}, fmt.Errorf("%w: [%v, %v]", ErrInvalid, lo, hi)
	}
	return Interval{Lo: lo, Hi: hi}, nil
}

// MustNew is like New but panics on invalid input. It is intended for
// tests and package-level literals.
func MustNew(lo, hi float64) Interval {
	iv, err := New(lo, hi)
	if err != nil {
		panic(err)
	}
	return iv
}

// Point returns the degenerate interval [x, x].
func Point(x float64) Interval { return Interval{Lo: x, Hi: x} }

// Centered returns the interval of the given width centered at c:
// [c-width/2, c+width/2]. Width must be non-negative.
func Centered(c, width float64) (Interval, error) {
	if width < 0 || !finite(c) || !finite(width) {
		return Interval{}, fmt.Errorf("%w: center %v width %v", ErrInvalid, c, width)
	}
	return Interval{Lo: c - width/2, Hi: c + width/2}, nil
}

// MustCentered is like Centered but panics on invalid input.
func MustCentered(c, width float64) Interval {
	iv, err := Centered(c, width)
	if err != nil {
		panic(err)
	}
	return iv
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Valid reports whether i has finite endpoints and Lo <= Hi.
func (i Interval) Valid() bool { return finite(i.Lo) && finite(i.Hi) && i.Lo <= i.Hi }

// Width returns Hi - Lo. The paper writes |s| for this quantity.
func (i Interval) Width() float64 { return i.Hi - i.Lo }

// Center returns the midpoint (Lo+Hi)/2.
func (i Interval) Center() float64 { return (i.Lo + i.Hi) / 2 }

// Contains reports whether x lies in the closed interval.
func (i Interval) Contains(x float64) bool { return i.Lo <= x && x <= i.Hi }

// ContainsInterval reports whether o is a subset of i.
func (i Interval) ContainsInterval(o Interval) bool { return i.Lo <= o.Lo && o.Hi <= i.Hi }

// Intersects reports whether i and o share at least one point.
// Closed intervals touching at a single endpoint do intersect.
func (i Interval) Intersects(o Interval) bool { return i.Lo <= o.Hi && o.Lo <= i.Hi }

// Intersect returns the intersection of i and o. The boolean result is
// false when the intervals are disjoint, in which case the returned
// interval is the zero value.
func (i Interval) Intersect(o Interval) (Interval, bool) {
	lo := math.Max(i.Lo, o.Lo)
	hi := math.Min(i.Hi, o.Hi)
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// Hull returns the smallest interval containing both i and o.
func (i Interval) Hull(o Interval) Interval {
	return Interval{Lo: math.Min(i.Lo, o.Lo), Hi: math.Max(i.Hi, o.Hi)}
}

// Translate returns i shifted by d.
func (i Interval) Translate(d float64) Interval {
	return Interval{Lo: i.Lo + d, Hi: i.Hi + d}
}

// Equal reports exact equality of endpoints.
func (i Interval) Equal(o Interval) bool { return i.Lo == o.Lo && i.Hi == o.Hi }

// ApproxEqual reports equality of endpoints within eps.
func (i Interval) ApproxEqual(o Interval, eps float64) bool {
	return math.Abs(i.Lo-o.Lo) <= eps && math.Abs(i.Hi-o.Hi) <= eps
}

// String renders the interval as "[lo, hi]".
func (i Interval) String() string { return fmt.Sprintf("[%g, %g]", i.Lo, i.Hi) }

// IntersectAll returns the intersection of all the given intervals and
// reports whether it is non-empty. With no arguments it returns false.
func IntersectAll(ivs ...Interval) (Interval, bool) {
	if len(ivs) == 0 {
		return Interval{}, false
	}
	acc := ivs[0]
	for _, iv := range ivs[1:] {
		var ok bool
		acc, ok = acc.Intersect(iv)
		if !ok {
			return Interval{}, false
		}
	}
	return acc, true
}

// HullAll returns the convex hull of all the given intervals and reports
// whether the input was non-empty.
func HullAll(ivs ...Interval) (Interval, bool) {
	if len(ivs) == 0 {
		return Interval{}, false
	}
	acc := ivs[0]
	for _, iv := range ivs[1:] {
		acc = acc.Hull(iv)
	}
	return acc, true
}

// Widths returns the widths of ivs in order.
func Widths(ivs []Interval) []float64 {
	ws := make([]float64, len(ivs))
	for k, iv := range ivs {
		ws[k] = iv.Width()
	}
	return ws
}
