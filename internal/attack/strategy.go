package attack

import (
	"sensorfusion/internal/interval"
)

// Strategy plans the placement of all the attacker's unsent intervals at
// one of her slots. Implementations must return exactly
// len(ctx.OwnWidths) intervals with the prescribed widths, and must
// return a stealthy plan (ctx.StealthOK). Returning the correct readings
// is always a legal fallback.
type Strategy interface {
	// Plan returns placements for ctx.OwnWidths in slot order. The
	// returned slice (like the Context's slice fields) may be owned by
	// the strategy and is only valid until the next Plan call: callers
	// copy what they retain and never modify it. Likewise a Strategy
	// must not retain or modify ctx's slices past the call — the
	// attacker passes its live per-round buffers, not copies.
	Plan(ctx Context) []interval.Interval
	// Name identifies the strategy in reports and benchmarks.
	Name() string
}

// correctFallback places every unsent interval centered on Delta, which
// is what sending (approximately) correct measurements looks like. It is
// stealthy in both modes: each interval has width >= |Delta| (Delta is the
// intersection of her correct readings, each of which has the
// corresponding width) and is centered on it.
func correctFallback(ctx Context) []interval.Interval {
	out := make([]interval.Interval, len(ctx.OwnWidths))
	c := ctx.Delta.Center()
	for k, w := range ctx.OwnWidths {
		out[k] = interval.MustCentered(c, w)
	}
	return out
}

// Null is the no-op attacker: she always forwards correct measurements.
// It provides the unattacked baseline in experiments.
type Null struct{}

// Plan returns correct readings.
func (Null) Plan(ctx Context) []interval.Interval { return correctFallback(ctx) }

// Name returns "null".
func (Null) Name() string { return "null" }

// Greedy pushes the fusion interval outward on one or both sides using
// only local geometry (no enumeration of unseen placements). It is the
// cheap heuristic ablation against Optimal.
type Greedy struct {
	// TwoSided alternates the direction per own interval (first up, then
	// down, ...). One-sided greed always pushes up.
	TwoSided bool
}

// Name returns the strategy name.
func (g Greedy) Name() string {
	if g.TwoSided {
		return "greedy-two-sided"
	}
	return "greedy-up"
}

// Plan implements Strategy.
func (g Greedy) Plan(ctx Context) []interval.Interval {
	if err := ctx.Validate(); err != nil {
		return nil
	}
	placed := make([]interval.Interval, len(ctx.OwnWidths))
	switch ctx.Mode() {
	case Passive:
		// Keep Delta inside and shove the slack outward.
		for k, w := range ctx.OwnWidths {
			up := !g.TwoSided || k%2 == 0
			if up {
				placed[k] = interval.Interval{Lo: ctx.Delta.Lo, Hi: ctx.Delta.Lo + w}
			} else {
				placed[k] = interval.Interval{Lo: ctx.Delta.Hi - w, Hi: ctx.Delta.Hi}
			}
		}
	default: // Active
		// Anchor at the outermost point that is guaranteed to stay in the
		// fusion interval: the extreme of the (n-f-1)-covered region of
		// the reliable pool, then hang the interval outward from there.
		for k, w := range ctx.OwnWidths {
			up := !g.TwoSided || k%2 == 0
			anchor, ok := g.anchor(ctx, placed[:k], up)
			if !ok {
				placed[k] = interval.MustCentered(ctx.Delta.Center(), w)
				continue
			}
			if up {
				placed[k] = interval.Interval{Lo: anchor, Hi: anchor + w}
			} else {
				placed[k] = interval.Interval{Lo: anchor - w, Hi: anchor}
			}
		}
	}
	if !ctx.StealthOK(placed) {
		return correctFallback(ctx)
	}
	return placed
}

// anchor finds the extreme point covered by at least n-f-1 intervals of
// the reliable pool (seen + already-planned in this plan).
func (g Greedy) anchor(ctx Context, already []interval.Interval, up bool) (float64, bool) {
	need := ctx.N - ctx.F - 1
	if need <= 0 {
		// Unconstrained: any anchor works; use Delta's edge.
		if up {
			return ctx.Delta.Hi, true
		}
		return ctx.Delta.Lo, true
	}
	// The hull of the need-covered points is the pool's fusion interval
	// at fault bound len(pool)-need.
	var sw interval.Sweeper
	sw.Preload(ctx.Seen)
	span, ok := sw.FuseWith(already, len(ctx.Seen)+len(already)-need)
	if !ok {
		return 0, false
	}
	if up {
		return span.Hi, true
	}
	return span.Lo, true
}

// candidateCenters returns the discretized candidate center positions for
// one attacked interval of width w under the given mode, including exact
// critical alignments (interval edges touching pool event points).
func candidateCenters(ctx Context, w float64) []float64 {
	return appendCandidateCenters(nil, ctx, w)
}

// appendCandidateCenters is candidateCenters into a reused buffer — the
// optimal search rebuilds the candidate sets on every cache miss, so the
// backing arrays are recycled across decisions.
func appendCandidateCenters(dst []float64, ctx Context, w float64) []float64 {
	step := ctx.step()
	var lo, hi float64
	switch ctx.Mode() {
	case Passive:
		// Must contain Delta: center in [Delta.Hi - w/2, Delta.Lo + w/2].
		lo = ctx.Delta.Hi - w/2
		hi = ctx.Delta.Lo + w/2
		if hi < lo {
			// Width smaller than Delta: impossible; the caller falls back.
			return dst[:0]
		}
	default:
		// Touching the hull of everything reliable is necessary to be
		// stealthy, and sufficient to enumerate all useful placements.
		hull := ctx.Delta
		for _, s := range ctx.Seen {
			hull = hull.Hull(s)
		}
		lo = hull.Lo - w/2
		hi = hull.Hi + w/2
	}
	base := len(dst)
	for x := lo; x <= hi+1e-9; x += step {
		dst = append(dst, x)
	}
	n0 := len(dst)
	// Critical alignments: own edges flush against event coordinates
	// (Delta's and every seen interval's endpoints).
	for e := -2; e < 2*len(ctx.Seen); e++ {
		var ev float64
		switch {
		case e == -2:
			ev = ctx.Delta.Lo
		case e == -1:
			ev = ctx.Delta.Hi
		case e%2 == 0:
			ev = ctx.Seen[e/2].Lo
		default:
			ev = ctx.Seen[e/2].Hi
		}
		for _, c := range [2]float64{ev - w/2, ev + w/2} {
			if c >= lo-1e-9 && c <= hi+1e-9 {
				dst = append(dst, c)
			}
		}
	}
	// The grid run dst[base:n0] is already ascending; sorting reduces to
	// ordering the short alignment tail and merging the two runs — the
	// optimal search rebuilds candidate sets on every decision, so the
	// general-purpose sort was a measurable constant on the plan-search
	// profile. The tail fits a stack buffer for any realistic sensor
	// count.
	tn := len(dst) - n0
	if tn > 0 {
		var tbuf [32]float64
		var tail []float64
		if tn <= len(tbuf) {
			tail = tbuf[:tn]
		} else {
			tail = make([]float64, tn)
		}
		copy(tail, dst[n0:])
		for i := 1; i < tn; i++ {
			for j := i; j > 0 && tail[j-1] > tail[j]; j-- {
				tail[j-1], tail[j] = tail[j], tail[j-1]
			}
		}
		i, j := n0-1, tn-1
		for k := len(dst) - 1; j >= 0; k-- {
			if i >= base && dst[i] > tail[j] {
				dst[k] = dst[i]
				i--
			} else {
				dst[k] = tail[j]
				j--
			}
		}
	}
	// Deduplicate within a tolerance.
	out := dst[:base]
	for k, c := range dst[base:] {
		if k == 0 || c-out[len(out)-1] > 1e-9 {
			out = append(out, c)
		}
	}
	return out
}
