package attack

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"sensorfusion/internal/interval"
)

// Attacker drives a Strategy across a communication round: it tracks the
// correct readings of the compromised sensors and the intervals seen on
// the bus, and produces the interval to transmit at each compromised
// slot. She plans every unsent sensor of the round at her first slot and
// replays that plan at the later ones, so no Context she builds carries
// OwnSent: nothing of hers has been sent when she plans.
//
// It is created once per experiment and reset per round. All per-round
// state lives in buffers reused across rounds, and the planning Context
// hands the strategy the attacker's live buffers rather than copies (the
// Strategy contract forbids retaining them), so a steady-state round
// performs no heap allocation beyond what the strategy itself does.
type Attacker struct {
	strategy Strategy
	n, f     int
	widths   []float64 // all sensor widths, indexed by sensor
	targets  []bool    // targets[i]: sensor i is compromised
	ordered  []int     // target indices, ascending
	step     float64
	maxExact int
	mcN      int

	// Per-round state, reset by BeginRound.
	began bool
	delta interval.Interval
	seen  []interval.Interval
	// The pending block plan: planSensors[k]'s placement is planIvs[k].
	planSensors []int
	planIvs     []interval.Interval
	// Transmit scratch.
	ownOrder []int
	ownW     []float64
	unseenW  []float64
}

// ErrAttack reports attacker configuration errors.
var ErrAttack = errors.New("attack: bad configuration")

// Config parametrizes an Attacker.
type Config struct {
	// N and F are the system size and fusion fault bound.
	N, F int
	// Widths are all sensors' interval widths (indexed by sensor).
	Widths []float64
	// Targets are the compromised sensor indices; len(Targets) = fa must
	// satisfy fa <= F for the attacker to respect the paper's assumption
	// (not enforced, so experiments can explore fa > f too).
	Targets []int
	// Strategy plans placements; nil defaults to NewOptimal().
	Strategy Strategy
	// Step, MaxExact, MCSamples tune the discretization (see Context).
	Step      float64
	MaxExact  int
	MCSamples int
}

// New returns an Attacker for the given configuration.
func New(cfg Config) (*Attacker, error) {
	if cfg.N <= 0 || len(cfg.Widths) != cfg.N {
		return nil, fmt.Errorf("%w: n=%d widths=%d", ErrAttack, cfg.N, len(cfg.Widths))
	}
	if cfg.F < 0 || cfg.F >= cfg.N {
		return nil, fmt.Errorf("%w: f=%d", ErrAttack, cfg.F)
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("%w: no targets", ErrAttack)
	}
	targets := make([]bool, cfg.N)
	for _, t := range cfg.Targets {
		if t < 0 || t >= cfg.N {
			return nil, fmt.Errorf("%w: target %d out of range", ErrAttack, t)
		}
		if targets[t] {
			return nil, fmt.Errorf("%w: duplicate target %d", ErrAttack, t)
		}
		targets[t] = true
	}
	ordered := append([]int(nil), cfg.Targets...)
	sort.Ints(ordered)
	s := cfg.Strategy
	if s == nil {
		s = NewOptimal()
	}
	return &Attacker{
		strategy: s,
		n:        cfg.N,
		f:        cfg.F,
		widths:   append([]float64(nil), cfg.Widths...),
		targets:  targets,
		ordered:  ordered,
		step:     cfg.Step,
		maxExact: cfg.MaxExact,
		mcN:      cfg.MCSamples,
	}, nil
}

// Targets returns the compromised sensor indices in ascending order.
// The returned slice is a copy.
func (a *Attacker) Targets() []int {
	return append([]int(nil), a.ordered...)
}

// Compromised reports whether sensor idx is under the attacker's control.
func (a *Attacker) Compromised(idx int) bool {
	return idx >= 0 && idx < len(a.targets) && a.targets[idx]
}

// BeginRound resets per-round state and records the correct readings of
// the compromised sensors (the attacker can always read her own sensors
// before deciding). correct holds EVERY sensor's correct interval for
// the round, indexed by sensor — the same slice the simulator drives the
// round from; the attacker reads only her targets' entries and retains
// nothing.
func (a *Attacker) BeginRound(correct []interval.Interval) error {
	if len(correct) != a.n {
		return fmt.Errorf("%w: %d correct readings for %d sensors", ErrAttack, len(correct), a.n)
	}
	for k, t := range a.ordered {
		iv := correct[t]
		if k == 0 {
			a.delta = iv
			continue
		}
		d, ok := a.delta.Intersect(iv)
		if !ok {
			return fmt.Errorf("%w: correct readings of targets do not intersect", ErrAttack)
		}
		a.delta = d
	}
	a.began = true
	a.seen = a.seen[:0]
	a.planSensors = a.planSensors[:0]
	a.planIvs = a.planIvs[:0]
	return nil
}

// Delta returns the intersection of the compromised sensors' correct
// readings for the current round.
func (a *Attacker) Delta() interval.Interval { return a.delta }

// Observe records an interval broadcast on the bus. The simulator calls
// it for every slot in slot order, the attacker's own transmissions
// included.
func (a *Attacker) Observe(iv interval.Interval) {
	a.seen = append(a.seen, iv)
}

// Transmit returns the interval the attacker sends for compromised
// sensor idx, given the slot order remainder: upcoming lists the sensor
// indices that will transmit after idx, in slot order. The first call of
// a round plans all her unsent intervals jointly; later calls replay the
// plan. The plan is stealthy for all of them at once, so it assumes
// upcoming names every later slot of the round, as the simulator passes
// it.
func (a *Attacker) Transmit(idx int, upcoming []int) (interval.Interval, error) {
	if !a.Compromised(idx) {
		return interval.Interval{}, fmt.Errorf("%w: sensor %d is not compromised", ErrAttack, idx)
	}
	if !a.began {
		return interval.Interval{}, fmt.Errorf("%w: BeginRound not called", ErrAttack)
	}
	for k, s := range a.planSensors {
		if s == idx {
			iv := a.planIvs[k]
			last := len(a.planSensors) - 1
			a.planSensors[k] = a.planSensors[last]
			a.planIvs[k] = a.planIvs[last]
			a.planSensors = a.planSensors[:last]
			a.planIvs = a.planIvs[:last]
			return iv, nil
		}
	}
	// Build the planning context: this sensor plus her unsent sensors in
	// slot order, then the widths of upcoming correct sensors. The
	// context borrows the attacker's live buffers — strategies must not
	// retain them (Strategy contract).
	a.ownOrder = append(a.ownOrder[:0], idx)
	a.unseenW = a.unseenW[:0]
	for _, u := range upcoming {
		if a.targets[u] {
			a.ownOrder = append(a.ownOrder, u)
		} else {
			a.unseenW = append(a.unseenW, a.widths[u])
		}
	}
	a.ownW = a.ownW[:0]
	for _, s := range a.ownOrder {
		a.ownW = append(a.ownW, a.widths[s])
	}
	ctx := Context{
		N:            a.n,
		F:            a.f,
		Sent:         len(a.seen),
		Delta:        a.delta,
		OwnWidths:    a.ownW,
		Seen:         a.seen,
		UnseenWidths: a.unseenW,
		Step:         a.step,
		MaxExact:     a.maxExact,
		MCSamples:    a.mcN,
	}
	placed := a.strategy.Plan(ctx)
	if len(placed) != len(a.ownOrder) || !ctx.StealthOK(placed) {
		// A strategy returning an unusable plan degrades to correct
		// readings: the attacker never risks detection.
		placed = correctFallback(ctx)
	}
	// Stash the rest of the block's placements before the next Plan call
	// can invalidate the strategy-owned slice.
	a.planSensors = a.planSensors[:0]
	a.planIvs = a.planIvs[:0]
	for k := 1; k < len(a.ownOrder); k++ {
		a.planSensors = append(a.planSensors, a.ownOrder[k])
		a.planIvs = append(a.planIvs, placed[k])
	}
	return placed[0], nil
}

// TargetPolicy selects which sensors to compromise.
type TargetPolicy int

const (
	// TargetSmallest compromises the fa most precise sensors (Theorem 4:
	// this achieves the absolute worst case).
	TargetSmallest TargetPolicy = iota
	// TargetLargest compromises the fa least precise sensors (Theorem 3:
	// the worst case equals the unattacked worst case).
	TargetLargest
	// TargetRandom draws fa distinct sensors uniformly.
	TargetRandom
	// TargetSmallestEarly also compromises the fa most precise sensors
	// but breaks width ties toward LOWER indices, which (with index
	// tie-breaking schedules) places compromised sensors before equally
	// precise correct ones. It is the system-favorable counterpart of
	// TargetSmallest, used by the tie-break ablation.
	TargetSmallestEarly
)

// ChooseTargets returns fa sensor indices per the policy. Ties between
// equal widths resolve toward HIGHER indices, which (with schedules that
// tie-break by index) places compromised sensors after equally precise
// correct ones — the attacker-favorable convention documented in
// DESIGN.md. rng is only used by TargetRandom.
func ChooseTargets(widths []float64, fa int, policy TargetPolicy, rng *rand.Rand) ([]int, error) {
	n := len(widths)
	if fa <= 0 || fa > n {
		return nil, fmt.Errorf("%w: fa=%d n=%d", ErrAttack, fa, n)
	}
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	switch policy {
	case TargetSmallest:
		sort.SliceStable(idx, func(a, b int) bool {
			if widths[idx[a]] != widths[idx[b]] {
				return widths[idx[a]] < widths[idx[b]]
			}
			return idx[a] > idx[b] // attacker-favorable tie-break
		})
		out := append([]int(nil), idx[:fa]...)
		sort.Ints(out)
		return out, nil
	case TargetLargest:
		sort.SliceStable(idx, func(a, b int) bool {
			if widths[idx[a]] != widths[idx[b]] {
				return widths[idx[a]] > widths[idx[b]]
			}
			return idx[a] > idx[b]
		})
		out := append([]int(nil), idx[:fa]...)
		sort.Ints(out)
		return out, nil
	case TargetRandom:
		if rng == nil {
			return nil, fmt.Errorf("%w: TargetRandom needs rng", ErrAttack)
		}
		rng.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		out := append([]int(nil), idx[:fa]...)
		sort.Ints(out)
		return out, nil
	case TargetSmallestEarly:
		sort.SliceStable(idx, func(a, b int) bool {
			if widths[idx[a]] != widths[idx[b]] {
				return widths[idx[a]] < widths[idx[b]]
			}
			return idx[a] < idx[b] // system-favorable tie-break
		})
		out := append([]int(nil), idx[:fa]...)
		sort.Ints(out)
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown policy %d", ErrAttack, int(policy))
	}
}
