// Package attack implements the attacker of Section III: an adversary
// controlling fa <= f sensors who reads their correct measurements, knows
// the fusion algorithm and the communication schedule, observes every
// interval broadcast before her slots, and places her intervals so as to
// maximize the fusion interval width while remaining undetected.
package attack

import (
	"fmt"
	"math/rand"

	"sensorfusion/internal/interval"
)

// Mode is the attacker's stealth regime from Section III-A.
type Mode int

const (
	// Passive: too few measurements have been broadcast, so the attacker
	// must include Delta (the intersection of her sensors' correct
	// readings) in every interval she sends. Delta contains the true
	// value, so inclusion guarantees overlap with the fusion interval.
	Passive Mode = iota
	// Active: at least n-f-far measurements have been broadcast. The
	// attacker may place intervals freely as long as overlap with the
	// final fusion interval is guaranteed; we implement the sound
	// sufficient condition that each of her intervals shares a point with
	// at least n-f-1 other intervals she can rely on (seen or her own).
	Active
)

// String names the mode.
func (m Mode) String() string {
	if m == Passive {
		return "Passive"
	}
	return "Active"
}

// Context is everything the attacker knows when planning the placement of
// her unsent intervals at one of her transmission slots.
type Context struct {
	// N is the total number of sensors; F the fusion fault bound.
	N, F int
	// Sent is the number of measurements already broadcast this round
	// (correct sensors and her own earlier transmissions combined).
	Sent int
	// Delta is the intersection of the correct readings of all her
	// compromised sensors. It contains the true value.
	Delta interval.Interval
	// OwnWidths are the widths of her still-unsent intervals, in slot
	// order. The plan covers all of them.
	OwnWidths []float64
	// OwnSent are her already-broadcast intervals this round. A new plan
	// must keep their stealth guarantee intact. The Attacker plans all
	// her sensors at her first slot, so her contexts leave it empty; it
	// serves strategies driven with a context of their own.
	OwnSent []interval.Interval
	// Seen are all intervals already broadcast this round, in slot order
	// (includes OwnSent).
	Seen []interval.Interval
	// UnseenWidths are the widths of correct sensors that will transmit
	// after her block, known a priori from the schedule.
	UnseenWidths []float64
	// Step is the discretization step for candidate placements and for
	// the enumeration of unseen measurements (the paper's discretized
	// real line).
	Step float64
	// MaxExact bounds the number of unseen-placement combinations
	// enumerated exactly; beyond it the expectation falls back to Monte
	// Carlo sampling with MCSamples draws. Zero values select defaults.
	MaxExact  int
	MCSamples int
}

// Defaults used when the corresponding Context fields are zero.
const (
	DefaultStep      = 1.0
	DefaultMaxExact  = 4096
	DefaultMCSamples = 160
	// maxTruthPoints bounds the discretization of the true value over
	// Delta in the attacker's belief.
	maxTruthPoints = 5
)

func (c Context) step() float64 {
	if c.Step > 0 {
		return c.Step
	}
	return DefaultStep
}

func (c Context) maxExact() int {
	if c.MaxExact > 0 {
		return c.MaxExact
	}
	return DefaultMaxExact
}

func (c Context) mcSamples() int {
	if c.MCSamples > 0 {
		return c.MCSamples
	}
	return DefaultMCSamples
}

// Mode returns the attacker's regime at this slot: Active when
// Sent >= N - F - far with far the number of her unsent intervals.
// For a block of consecutive attacker slots the mode is uniform across
// the block (each transmission increments Sent and decrements far by one,
// leaving the inequality unchanged), so a single plan per block is sound.
func (c Context) Mode() Mode {
	far := len(c.OwnWidths)
	if c.Sent >= c.N-c.F-far {
		return Active
	}
	return Passive
}

// Validate reports obviously broken contexts.
func (c Context) Validate() error {
	if c.N <= 0 || c.F < 0 || c.F >= c.N {
		return fmt.Errorf("attack: bad n=%d f=%d", c.N, c.F)
	}
	if len(c.OwnWidths) == 0 {
		return fmt.Errorf("attack: nothing to place")
	}
	for _, w := range c.OwnWidths {
		if w <= 0 {
			return fmt.Errorf("attack: non-positive own width %v", w)
		}
	}
	if !c.Delta.Valid() {
		return fmt.Errorf("attack: invalid Delta %v", c.Delta)
	}
	if got := len(c.Seen) + len(c.OwnWidths) + len(c.UnseenWidths); got != c.N {
		return fmt.Errorf("attack: seen(%d)+own(%d)+unseen(%d) != n(%d)",
			len(c.Seen), len(c.OwnWidths), len(c.UnseenWidths), c.N)
	}
	if c.Sent != len(c.Seen) {
		return fmt.Errorf("attack: Sent=%d but len(Seen)=%d", c.Sent, len(c.Seen))
	}
	return nil
}

// StealthOK reports whether the proposed placement of the attacker's
// unsent intervals keeps every attacked interval guaranteed undetectable:
//
//   - Passive mode: every placed interval contains Delta.
//   - Active mode: every attacked interval (sent earlier or placed now)
//     shares at least one point with >= n-f-1 of the other reliable
//     intervals (Seen plus her own placements). Such a point is covered
//     n-f times once the interval itself is counted, so it lies in the
//     fusion interval regardless of where unseen correct intervals land.
func (c Context) StealthOK(placed []interval.Interval) bool {
	if len(placed) != len(c.OwnWidths) {
		return false
	}
	for k, iv := range placed {
		if !iv.Valid() {
			return false
		}
		if diff := iv.Width() - c.OwnWidths[k]; diff > 1e-9 || diff < -1e-9 {
			return false
		}
	}
	switch c.Mode() {
	case Passive:
		for _, iv := range placed {
			if !iv.ContainsInterval(c.Delta) {
				return false
			}
		}
		return true
	default: // Active
		need := c.N - c.F - 1
		if need <= 0 {
			return true
		}
		// Reliable pool: everything seen plus the new placements (viewed
		// in that order, never materialized — the optimal search runs
		// this check once per candidate tuple, so it must not allocate).
		// Every attacked interval (sent earlier or placed now) must find
		// need-many others overlapping at a common point.
		p := stealthPool{seen: c.Seen, placed: placed}
		for _, a := range c.OwnSent {
			if !p.windowReaches(a, need) {
				return false
			}
		}
		for _, a := range placed {
			if !p.windowReaches(a, need) {
				return false
			}
		}
		return true
	}
}

// stealthPool is the active-mode reliable pool — the seen intervals
// followed by the candidate placements — viewed as one logical slice so
// the stealth check never copies it.
type stealthPool struct {
	seen, placed []interval.Interval
}

// skipOf returns the index of the first pool element equal to a (the
// one copy of the attacked interval itself that must not count toward
// its own coverage), or -1. Pool indices run over seen first, then
// placed.
func (p stealthPool) skipOf(a interval.Interval) int {
	for i, iv := range p.seen {
		if iv.Equal(a) {
			return i
		}
	}
	for i, iv := range p.placed {
		if iv.Equal(a) {
			return len(p.seen) + i
		}
	}
	return -1
}

// countReaches reports whether at least need pool intervals (excluding
// index skip) contain x, stopping at the need-th hit. The two halves
// are scanned as separate range loops on purpose: indexing the logical
// concatenation through one branching accessor made this innermost
// loop hypersensitive to where the two backing arrays happened to land
// in the heap (4x swings from unrelated upstream allocations).
func (p stealthPool) countReaches(x float64, skip, need int) bool {
	c := 0
	for i, iv := range p.seen {
		if i != skip && iv.Lo <= x && x <= iv.Hi {
			c++
			if c >= need {
				return true
			}
		}
	}
	skip -= len(p.seen)
	for i, iv := range p.placed {
		if i != skip && iv.Lo <= x && x <= iv.Hi {
			c++
			if c >= need {
				return true
			}
		}
	}
	return false
}

// windowReaches reports whether any point of the window a is covered by
// at least need pool intervals other than a itself — i.e. whether
// interval.Coverage.MaxCoverageOn(a) over the pool-minus-a would reach
// need. Coverage is piecewise constant between endpoints, so the window
// bounds plus every pool endpoint inside the window are an exhaustive
// candidate-point set; the differential test pins the equivalence with
// the Coverage-based formulation on random inputs.
func (p stealthPool) windowReaches(a interval.Interval, need int) bool {
	return p.windowReachesSkip(a, p.skipOf(a), need)
}

// windowReachesSkip is windowReaches with the skip index precomputed —
// the plan search resolves each attacked interval's own pool copy once
// per decision instead of once per candidate tuple. Skipping any one of
// several equal copies yields the same coverage counts, so a caller may
// pass the index of a different-but-equal copy than skipOf would find.
func (p stealthPool) windowReachesSkip(a interval.Interval, skip, need int) bool {
	if need <= 0 {
		return true
	}
	if p.countReaches(a.Lo, skip, need) || p.countReaches(a.Hi, skip, need) {
		return true
	}
	for i, iv := range p.seen {
		if i == skip {
			continue
		}
		if iv.Lo >= a.Lo && iv.Lo <= a.Hi && p.countReaches(iv.Lo, skip, need) {
			return true
		}
		if iv.Hi >= a.Lo && iv.Hi <= a.Hi && p.countReaches(iv.Hi, skip, need) {
			return true
		}
	}
	for i, iv := range p.placed {
		if len(p.seen)+i == skip {
			continue
		}
		if iv.Lo >= a.Lo && iv.Lo <= a.Hi && p.countReaches(iv.Lo, skip, need) {
			return true
		}
		if iv.Hi >= a.Lo && iv.Hi <= a.Hi && p.countReaches(iv.Hi, skip, need) {
			return true
		}
	}
	return false
}

// covAt counts the pool intervals other than index skip containing x —
// countReaches without the early exit, for callers needing the exact
// coverage value.
func (p stealthPool) covAt(x float64, skip int) int {
	c := 0
	for i, iv := range p.seen {
		if i != skip && iv.Lo <= x && x <= iv.Hi {
			c++
		}
	}
	skip -= len(p.seen)
	for i, iv := range p.placed {
		if i != skip && iv.Lo <= x && x <= iv.Hi {
			c++
		}
	}
	return c
}

// windowMaxCov returns the maximum coverage over window a by the pool
// minus index skip, capped at limit (the scan stops once limit is
// reached). For any need <= limit, windowReachesSkip(a, skip, need) is
// exactly need <= 0 || windowMaxCov(a, skip, limit) >= need — the plan
// search's classification probes one window at two thresholds and pays
// for a single scan this way.
func (p stealthPool) windowMaxCov(a interval.Interval, skip, limit int) int {
	best := p.covAt(a.Lo, skip)
	if best < limit {
		if c := p.covAt(a.Hi, skip); c > best {
			best = c
		}
	}
	for i, iv := range p.seen {
		if best >= limit {
			break
		}
		if i == skip {
			continue
		}
		if iv.Lo >= a.Lo && iv.Lo <= a.Hi {
			if c := p.covAt(iv.Lo, skip); c > best {
				best = c
			}
		}
		if best < limit && iv.Hi >= a.Lo && iv.Hi <= a.Hi {
			if c := p.covAt(iv.Hi, skip); c > best {
				best = c
			}
		}
	}
	for i, iv := range p.placed {
		if best >= limit {
			break
		}
		if len(p.seen)+i == skip {
			continue
		}
		if iv.Lo >= a.Lo && iv.Lo <= a.Hi {
			if c := p.covAt(iv.Lo, skip); c > best {
				best = c
			}
		}
		if best < limit && iv.Hi >= a.Lo && iv.Hi <= a.Hi {
			if c := p.covAt(iv.Hi, skip); c > best {
				best = c
			}
		}
	}
	if best > limit {
		best = limit
	}
	return best
}

// appendTruthPoints discretizes the attacker's belief about the true
// value — a small grid over Delta, where the true value is guaranteed
// to lie — appending it to dst, so the plan search's evaluator can reuse
// one scratch buffer.
func (c Context) appendTruthPoints(dst []float64) []float64 {
	d := c.Delta
	if d.Width() == 0 {
		return append(dst, d.Lo)
	}
	k := maxTruthPoints
	for j := 0; j < k; j++ {
		dst = append(dst, d.Lo+d.Width()*float64(j)/float64(k-1))
	}
	return dst
}

// rngSeed derives the deterministic Monte Carlo seed from coarse context
// features, so repeated evaluations of the same decision are
// reproducible. The plan search reseeds one persistent generator with it
// instead of paying rngFor's per-decision allocation.
func (c Context) rngSeed() int64 {
	seed := int64(1)
	seed = seed*31 + int64(c.N)
	seed = seed*31 + int64(c.F)
	seed = seed*31 + int64(c.Sent)
	seed = seed*31 + int64(c.Delta.Lo*1024)
	seed = seed*31 + int64(c.Delta.Hi*1024)
	for _, s := range c.Seen {
		seed = seed*31 + int64(s.Lo*1024)
		seed = seed*31 + int64(s.Hi*1024)
	}
	return seed
}

// rngFor returns a deterministic RNG for Monte Carlo fallback, seeded
// with rngSeed.
func (c Context) rngFor() *rand.Rand {
	return rand.New(rand.NewSource(c.rngSeed()))
}
