package sim

import (
	"fmt"
	"math"

	"sensorfusion/internal/grid"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/schedule"
)

// Expectation summarizes the fusion-interval width distribution over an
// enumeration or sample of measurement combinations.
type Expectation struct {
	// Mean is the average fusion width — the paper's E|S_{N,f}|.
	Mean float64
	// Min and Max are the extreme widths observed.
	Min, Max float64
	// Count is the number of combinations evaluated.
	Count int
	// Detected counts rounds in which the detector flagged any sensor
	// (zero against a stealthy attacker).
	Detected int
}

// ExpectedWidth reproduces the paper's Table I methodology: the true
// value is fixed (WLOG 0), every sensor's measurement offset ranges over
// a discretized grid of its feasible positions (a correct interval of
// width w containing the truth has center offset in [-w/2, +w/2]), all
// combinations are enumerated, and the average fusion width is returned.
//
// Compromised sensors' grids enumerate their CORRECT readings — what the
// attacker's sensors actually measured; the attacker then decides what to
// transmit.
//
// step is the measurement discretization (the attacker's internal
// discretization comes from the Setup).
//
// An attacked setup whose scheduler replays one order every round
// (schedule.FixedOrder) is evaluated decision by decision: the attacker
// plans once per distinct (Delta, prefix) pair and that plan is fused
// against every completion of the later correct sensors, weighted by how
// many combinations of her readings share the Delta. That sums the same
// widths in another order, so it runs only while every width is a
// multiple of 2^-12 and the sum stays below 2^40, where float addition
// is exact in any order. Any other setup, any error and any width
// outside that range take the round-by-round enumeration, one full
// round per combination in sensor-index odometer order, so the result
// and the error are those of that enumeration either way.
func ExpectedWidth(setup Setup, step float64) (Expectation, error) {
	if step <= 0 {
		return Expectation{}, fmt.Errorf("sim: bad step %v", step)
	}
	simr, err := NewSimulator(setup)
	if err != nil {
		return Expectation{}, err
	}
	grids := make([]grid.Grid, len(setup.Widths))
	for k, w := range setup.Widths {
		grids[k] = grid.Symmetric(w/2, step)
	}
	if simr.attacker != nil && schedule.FixedOrder(setup.Scheduler) {
		if exp, ok := simr.expectByDecision(grids); ok {
			return exp, nil
		}
	}
	return simr.expectByRound(grids)
}

// expectByRound runs one full round per grid combination.
func (s *Simulator) expectByRound(grids []grid.Grid) (Expectation, error) {
	widths := s.setup.Widths
	exp := Expectation{Min: math.Inf(1), Max: math.Inf(-1)}
	correct := make([]interval.Interval, len(widths))
	var res RoundResult // reused across combinations (RoundInto contract)
	var roundErr error
	grid.Enumerate(grids, func(offsets []float64) bool {
		for k, off := range offsets {
			correct[k] = interval.MustCentered(off, widths[k])
		}
		if err := s.RoundInto(correct, &res); err != nil {
			roundErr = err
			return false
		}
		w := res.Fused.Width()
		exp.Mean += w
		exp.Count++
		if w < exp.Min {
			exp.Min = w
		}
		if w > exp.Max {
			exp.Max = w
		}
		if len(res.Suspects) > 0 {
			exp.Detected++
		}
		return true
	})
	if roundErr != nil {
		return Expectation{}, roundErr
	}
	if exp.Count == 0 {
		return Expectation{}, fmt.Errorf("sim: empty enumeration")
	}
	exp.Mean /= float64(exp.Count)
	return exp, nil
}

// Bounds of exact summation: every width a multiple of 2^-12 and the
// total below 2^40 keeps every partial sum, in any order, within the 53
// bits of a float64 mantissa.
const (
	exactQuantum = 1 << 12
	exactLimit   = 1 << 40
)

// deltaCount is one distinct intersection of the attacker's correct
// readings and the number of reading combinations that produce it.
type deltaCount struct {
	delta interval.Interval
	n     int
}

// odometer steps through every combination of grid intervals of a list
// of sensors, the last one fastest, writing the current combination
// into ivs. Over zero sensors it yields the one empty combination.
// Unlike grid.Enumerate it allocates nothing to restart, which the
// grouped path does for the prefix and the suffix once per decision.
type odometer struct {
	pts [][]interval.Interval // pts[j]: the grid intervals of walked sensor j
	idx []int
	ivs []interval.Interval
}

// start sets the first combination. It always reports true, so a walk
// reads for more := o.start(); more; more = o.next().
func (o *odometer) start() bool {
	clear(o.idx)
	for j, p := range o.pts {
		o.ivs[j] = p[0]
	}
	return true
}

// next advances to the following combination and reports false once
// every combination has been visited.
func (o *odometer) next() bool {
	for j := len(o.idx) - 1; j >= 0; j-- {
		o.idx[j]++
		if o.idx[j] < len(o.pts[j]) {
			o.ivs[j] = o.pts[j][o.idx[j]]
			return true
		}
		o.idx[j] = 0
		o.ivs[j] = o.pts[j][0]
	}
	return false
}

// size returns the number of combinations the odometer visits.
func (o *odometer) size() int {
	total := 1
	for _, p := range o.pts {
		total *= len(p)
	}
	return total
}

// expectByDecision evaluates ExpectedWidth for a fixed slot order with
// an attacker, one decision at a time. The slot order splits at her
// first slot into the prefix (the correct sensors she has seen when she
// plans), her targets, and the suffix (every correct sensor after that
// slot). Her plan is a function of Delta and the prefix alone, so for
// each distinct Delta and each prefix combination the attacker runs
// once — BeginRound, Observe the prefix, Transmit each target in slot
// order — and prefix ∪ plan is preloaded into the Sweeper; each suffix
// combination then costs one FuseWith and a detection pass, weighted by
// the Delta's multiplicity. It reports false, leaving the configuration
// to expectByRound, on any condition under which a round would fail or
// the grouped sum could differ from the round-by-round one.
func (s *Simulator) expectByDecision(grids []grid.Grid) (Expectation, bool) {
	n := len(s.setup.Widths)
	order := s.setup.Scheduler.Order()
	if len(order) != n {
		return Expectation{}, false
	}
	a := s.attacker
	first := -1
	clear(s.sent)
	for slot, idx := range order {
		if idx < 0 || idx >= n || s.sent[idx] {
			return Expectation{}, false
		}
		s.sent[idx] = true
		if first < 0 && a.Compromised(idx) {
			first = slot
		}
	}

	// Every sensor's grid intervals, built once.
	total := 0
	for _, g := range grids {
		total += g.Len()
	}
	flat := make([]interval.Interval, 0, total)
	pts := make([][]interval.Interval, n)
	for k, g := range grids {
		from := len(flat)
		for j := 0; j < g.Len(); j++ {
			iv, err := interval.Centered(g.At(j), s.setup.Widths[k])
			if err != nil {
				return Expectation{}, false
			}
			flat = append(flat, iv)
		}
		pts[k] = flat[from:len(flat):len(flat)]
	}

	// Three odometers over disjoint sensor sets share one set of
	// buffers, laid out as targets (ascending), prefix, suffix (slot
	// order).
	walked := make([][]interval.Interval, 0, n)
	idx := make([]int, n)
	ivs := make([]interval.Interval, n)
	targets := a.Targets()
	for _, t := range targets {
		walked = append(walked, pts[t])
	}
	for _, k := range order[:first] {
		walked = append(walked, pts[k])
	}
	nPre := len(walked)
	for _, k := range order[first+1:] {
		if !a.Compromised(k) {
			walked = append(walked, pts[k])
		}
	}
	cut := func(from, to int) odometer {
		return odometer{pts: walked[from:to], idx: idx[from:to], ivs: ivs[from:to]}
	}
	tgt := cut(0, len(targets))
	pre := cut(len(targets), nPre)
	suf := cut(nPre, len(walked))

	// The distinct Deltas with their multiplicities, in order of first
	// appearance. Intersect is exact and symmetric, so each Delta has
	// the bits BeginRound computes.
	deltas := make([]deltaCount, 0, tgt.size())
	for more := tgt.start(); more; more = tgt.next() {
		d := tgt.ivs[0]
		for _, iv := range tgt.ivs[1:] {
			var ok bool
			if d, ok = d.Intersect(iv); !ok {
				return Expectation{}, false
			}
		}
		i := 0
		for i < len(deltas) && deltas[i].delta != d {
			i++
		}
		if i == len(deltas) {
			deltas = append(deltas, deltaCount{delta: d})
		}
		deltas[i].n++
	}

	exp := Expectation{Min: math.Inf(1), Max: math.Inf(-1)}
	perDecision := suf.size()
	base := make([]interval.Interval, 0, n) // prefix ∪ plan
	rep := s.final                          // BeginRound reads only the targets' entries
	for _, dc := range deltas {
		for _, t := range targets {
			rep[t] = dc.delta
		}
		for more := pre.start(); more; more = pre.next() {
			if err := a.BeginRound(rep); err != nil {
				return Expectation{}, false
			}
			base = append(base[:0], pre.ivs...)
			for _, iv := range pre.ivs {
				a.Observe(iv)
			}
			for slot := first; slot < n; slot++ {
				if k := order[slot]; a.Compromised(k) {
					iv, err := a.Transmit(k, order[slot+1:])
					if err != nil || !iv.Valid() {
						return Expectation{}, false
					}
					base = append(base, iv)
				}
			}
			s.sweeper.Preload(base)
			sum, detected := 0.0, 0
			for more := suf.start(); more; more = suf.next() {
				fused, ok := s.sweeper.FuseWith(suf.ivs, s.setup.F)
				if !ok {
					return Expectation{}, false
				}
				w := fused.Width()
				if q := w * exactQuantum; q != math.Trunc(q) {
					return Expectation{}, false
				}
				sum += w
				if w < exp.Min {
					exp.Min = w
				}
				if w > exp.Max {
					exp.Max = w
				}
				if anyDisjoint(base, fused) || anyDisjoint(suf.ivs, fused) {
					detected++
				}
			}
			exp.Mean += sum * float64(dc.n)
			exp.Count += perDecision * dc.n
			exp.Detected += detected * dc.n
		}
	}
	if !(exp.Mean < exactLimit) {
		return Expectation{}, false
	}
	exp.Mean /= float64(exp.Count)
	return exp, true
}

// anyDisjoint reports whether the detector would flag any of ivs
// against the fusion interval fused (fusion.Detect non-empty).
func anyDisjoint(ivs []interval.Interval, fused interval.Interval) bool {
	for _, iv := range ivs {
		if !iv.Intersects(fused) {
			return true
		}
	}
	return false
}
