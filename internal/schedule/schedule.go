// Package schedule implements the communication schedules of Section IV:
// fixed transmission orders over a shared bus, derived only from the
// a-priori interval widths (the sole information available before any
// measurement is taken).
package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Kind names a built-in schedule policy.
type Kind int

const (
	// Ascending orders sensors by increasing interval width: the most
	// precise sensors transmit first. This is the schedule the paper
	// recommends.
	Ascending Kind = iota
	// Descending orders sensors by decreasing interval width: the least
	// precise sensors transmit first.
	Descending
	// Random draws a fresh uniformly random order every round.
	Random
	// Fixed uses a caller-provided permutation for every round.
	Fixed
	// TrustedLast places sensors marked trusted at the end (so the
	// attacker never sees their measurements before sending), ordering
	// each group ascending by width. Section IV-C argues for this when
	// spoof-resistance is known.
	TrustedLast
)

// String returns the schedule name used in reports and tables.
func (k Kind) String() string {
	switch k {
	case Ascending:
		return "Ascending"
	case Descending:
		return "Descending"
	case Random:
		return "Random"
	case Fixed:
		return "Fixed"
	case TrustedLast:
		return "TrustedLast"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Scheduler produces a transmission order (a permutation of sensor
// indices) for each communication round.
type Scheduler interface {
	// Order returns the slot order for the next round: Order()[s] is the
	// sensor index transmitting in slot s. The returned slice is OWNED BY
	// THE SCHEDULER and only valid until the next Order call: the round
	// simulator asks for an order every round of a multi-million-round
	// expectation, so implementations reuse one buffer instead of
	// allocating per round. Callers must not modify the slice and must
	// copy it if they retain it across rounds.
	Order() []int
	// Name identifies the scheduler in reports.
	Name() string
}

// ErrBadSchedule reports invalid construction parameters.
var ErrBadSchedule = errors.New("schedule: invalid parameters")

// widthScheduler sorts once by width and replays the same order.
type widthScheduler struct {
	order []int
	name  string
}

func (w *widthScheduler) Order() []int { return w.order }
func (w *widthScheduler) Name() string { return w.name }

// NewAscending returns the Ascending scheduler for sensors with the given
// interval widths. Ties break by index so the order is deterministic.
func NewAscending(widths []float64) (Scheduler, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("%w: no sensors", ErrBadSchedule)
	}
	return &widthScheduler{order: sortedByWidth(widths, true), name: Ascending.String()}, nil
}

// NewDescending returns the Descending scheduler.
func NewDescending(widths []float64) (Scheduler, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("%w: no sensors", ErrBadSchedule)
	}
	return &widthScheduler{order: sortedByWidth(widths, false), name: Descending.String()}, nil
}

func sortedByWidth(widths []float64, asc bool) []int {
	order := make([]int, len(widths))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := widths[order[a]], widths[order[b]]
		if wa != wb {
			if asc {
				return wa < wb
			}
			return wa > wb
		}
		return order[a] < order[b]
	})
	return order
}

// randomScheduler shuffles a reused buffer every round.
type randomScheduler struct {
	order []int
	rng   *rand.Rand
}

func (r *randomScheduler) Order() []int {
	for k := range r.order {
		r.order[k] = k
	}
	r.rng.Shuffle(len(r.order), func(a, b int) { r.order[a], r.order[b] = r.order[b], r.order[a] })
	return r.order
}
func (r *randomScheduler) Name() string { return Random.String() }

// NewRandom returns the Random scheduler over n sensors driven by rng.
func NewRandom(n int, rng *rand.Rand) (Scheduler, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadSchedule, n)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadSchedule)
	}
	return &randomScheduler{order: make([]int, n), rng: rng}, nil
}

// fixedScheduler replays a caller-supplied permutation.
type fixedScheduler struct{ order []int }

func (f *fixedScheduler) Order() []int { return f.order }
func (f *fixedScheduler) Name() string { return Fixed.String() }

// NewFixed returns a scheduler replaying the given permutation of
// 0..n-1. The permutation is validated.
func NewFixed(order []int) (Scheduler, error) {
	n := len(order)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty order", ErrBadSchedule)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("%w: %v is not a permutation", ErrBadSchedule, order)
		}
		seen[v] = true
	}
	return &fixedScheduler{order: append([]int(nil), order...)}, nil
}

// NewTrustedLast returns the TrustedLast scheduler: untrusted sensors
// first (ascending width), trusted sensors last (ascending width).
func NewTrustedLast(widths []float64, trusted []bool) (Scheduler, error) {
	if len(widths) == 0 || len(widths) != len(trusted) {
		return nil, fmt.Errorf("%w: widths/trusted length mismatch", ErrBadSchedule)
	}
	asc := sortedByWidth(widths, true)
	var untrustedFirst, trustedTail []int
	for _, idx := range asc {
		if trusted[idx] {
			trustedTail = append(trustedTail, idx)
		} else {
			untrustedFirst = append(untrustedFirst, idx)
		}
	}
	order := append(untrustedFirst, trustedTail...)
	return &widthScheduler{order: order, name: TrustedLast.String()}, nil
}

// FixedOrder reports whether s replays one order every round, so that
// a caller may read Order once for a whole enumeration: the Ascending,
// Descending, TrustedLast and Fixed schedulers. It decides by the
// scheduler's type, so Random and every Scheduler built outside this
// package report false.
func FixedOrder(s Scheduler) bool {
	switch s.(type) {
	case *widthScheduler, *fixedScheduler:
		return true
	}
	return false
}

// ForKind constructs a scheduler of the given kind. Fixed requires a
// non-nil order; Random requires a non-nil rng; TrustedLast requires
// trusted flags.
func ForKind(k Kind, widths []float64, trusted []bool, order []int, rng *rand.Rand) (Scheduler, error) {
	switch k {
	case Ascending:
		return NewAscending(widths)
	case Descending:
		return NewDescending(widths)
	case Random:
		return NewRandom(len(widths), rng)
	case Fixed:
		return NewFixed(order)
	case TrustedLast:
		return NewTrustedLast(widths, trusted)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadSchedule, int(k))
	}
}
