package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/schedule"
)

func cleanSetup(t *testing.T, widths []float64, f int, kind schedule.Kind) Setup {
	t.Helper()
	sched, err := schedule.ForKind(kind, widths, make([]bool, len(widths)), nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return Setup{Widths: widths, F: f, Scheduler: sched}
}

func TestSimulatorCleanRound(t *testing.T) {
	setup := cleanSetup(t, []float64{1, 2, 3}, 1, schedule.Ascending)
	s, err := NewSimulator(setup)
	if err != nil {
		t.Fatal(err)
	}
	if s.Attacker() != nil {
		t.Fatal("clean setup must have no attacker")
	}
	correct := []interval.Interval{
		interval.MustCentered(0.1, 1),
		interval.MustCentered(-0.3, 2),
		interval.MustCentered(0.5, 3),
	}
	res, err := s.Round(correct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suspects) != 0 {
		t.Fatalf("clean round flagged %v", res.Suspects)
	}
	if !res.Fused.Contains(0) {
		t.Fatalf("fused %v lost the truth", res.Fused)
	}
	for k := range correct {
		if !res.Final[k].Equal(correct[k]) {
			t.Fatalf("clean round altered sensor %d: %v", k, res.Final[k])
		}
	}
	if len(res.Order) != 3 {
		t.Fatalf("order = %v", res.Order)
	}
}

func TestSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(Setup{}); err == nil {
		t.Error("empty setup must fail")
	}
	s := cleanSetup(t, []float64{1, 2, 3}, 1, schedule.Ascending)
	s.F = 3
	if _, err := NewSimulator(s); err == nil {
		t.Error("f >= n must fail")
	}
	s = cleanSetup(t, []float64{1, 2, 3}, 1, schedule.Ascending)
	s.Scheduler = nil
	if _, err := NewSimulator(s); err == nil {
		t.Error("nil scheduler must fail")
	}
	s = cleanSetup(t, []float64{1, 2, 3}, 1, schedule.Ascending)
	s.Targets = []int{9}
	if _, err := NewSimulator(s); err == nil {
		t.Error("bad target must fail")
	}
}

func TestSimulatorRoundInputValidation(t *testing.T) {
	s, err := NewSimulator(cleanSetup(t, []float64{1, 2, 3}, 1, schedule.Ascending))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Round(nil); err == nil {
		t.Error("wrong correct count must fail")
	}
}

func TestSimulatorAttackedRoundStealthy(t *testing.T) {
	widths := []float64{0.2, 0.2, 1, 2}
	setup := cleanSetup(t, widths, 1, schedule.Descending)
	setup.Targets = []int{0}
	setup.Strategy = attack.NewOptimal()
	setup.Step = 0.1
	s, err := NewSimulator(setup)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	attackedWins := 0
	for round := 0; round < 50; round++ {
		correct := make([]interval.Interval, len(widths))
		for k, w := range widths {
			correct[k] = interval.MustCentered((rng.Float64()-0.5)*w, w)
		}
		res, err := s.Round(correct)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Suspects) != 0 {
			t.Fatalf("round %d: attacker detected: %v", round, res.Suspects)
		}
		// The compromised sensor transmits last in Descending... encoder
		// (idx 0) has the smallest width, so its slot is last; the attack
		// is active and generally widens the interval.
		if res.Final[0] != correct[0] {
			attackedWins++
		}
	}
	if attackedWins == 0 {
		t.Fatal("the attacker never deviated from correct readings in 50 rounds")
	}
}

func TestExpectedWidthCleanMatchesDirect(t *testing.T) {
	// Two sensors f=0: fusion is the intersection. Hand-computable tiny
	// enumeration with step=1: widths {2, 2}, offsets {-1,0,1} each.
	setup := cleanSetup(t, []float64{2, 2}, 0, schedule.Ascending)
	exp, err := ExpectedWidth(setup, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Count != 9 {
		t.Fatalf("count = %d, want 9", exp.Count)
	}
	// Pairwise offsets d = |o1-o2| in {0,1,2}: widths 2-d.
	// d counts: 0->3, 1->4, 2->2 ; mean = (3*2 + 4*1 + 2*0)/9 = 10/9.
	want := 10.0 / 9.0
	if diff := exp.Mean - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean = %v, want %v", exp.Mean, want)
	}
	if exp.Min != 0 || exp.Max != 2 {
		t.Fatalf("min/max = %v/%v, want 0/2", exp.Min, exp.Max)
	}
	if exp.Detected != 0 {
		t.Fatalf("clean enumeration detected %d", exp.Detected)
	}
}

func TestExpectedWidthErrors(t *testing.T) {
	setup := cleanSetup(t, []float64{2, 2}, 0, schedule.Ascending)
	if _, err := ExpectedWidth(setup, 0); err == nil {
		t.Error("zero step must fail")
	}
	if _, err := ExpectedWidth(Setup{}, 1); err == nil {
		t.Error("bad setup must fail")
	}
}

// MonteCarloWidth estimates ExpectedWidth's expectation by sampling
// measurement offsets uniformly (continuously) instead of enumerating a
// grid: the convergence oracle the exhaustive engine is checked against.
func MonteCarloWidth(setup Setup, rounds int, rng *rand.Rand) (Expectation, error) {
	if rounds <= 0 {
		return Expectation{}, fmt.Errorf("sim: rounds=%d", rounds)
	}
	if rng == nil {
		return Expectation{}, fmt.Errorf("sim: nil rng")
	}
	simr, err := NewSimulator(setup)
	if err != nil {
		return Expectation{}, err
	}
	exp := Expectation{Min: math.Inf(1), Max: math.Inf(-1)}
	correct := make([]interval.Interval, len(setup.Widths))
	var res RoundResult // reused across rounds (RoundInto contract)
	for r := 0; r < rounds; r++ {
		for k, w := range setup.Widths {
			off := (rng.Float64() - 0.5) * w
			correct[k] = interval.MustCentered(off, w)
		}
		if err := simr.RoundInto(correct, &res); err != nil {
			return Expectation{}, err
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
	}
	exp.Mean /= float64(exp.Count)
	return exp, nil
}

func TestMonteCarloWidthConvergesToExpected(t *testing.T) {
	setup := cleanSetup(t, []float64{2, 4, 6}, 1, schedule.Ascending)
	exact, err := ExpectedWidth(setup, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloWidth(setup, 20000, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if diff := mc.Mean - exact.Mean; diff > 0.1 || diff < -0.1 {
		t.Fatalf("MC mean %v too far from exact %v", mc.Mean, exact.Mean)
	}
}

func TestMonteCarloWidthErrors(t *testing.T) {
	setup := cleanSetup(t, []float64{2, 2}, 0, schedule.Ascending)
	if _, err := MonteCarloWidth(setup, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero rounds must fail")
	}
	if _, err := MonteCarloWidth(setup, 10, nil); err == nil {
		t.Error("nil rng must fail")
	}
	if _, err := MonteCarloWidth(Setup{}, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad setup must fail")
	}
}

func TestWorstCaseWidth(t *testing.T) {
	setup := cleanSetup(t, []float64{2, 2, 2}, 1, schedule.Ascending)
	exp, err := ExpectedWidth(setup, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wc := exp.Max
	// Theorem 2 bound: 2 + 2 = 4; must also be at least a single width.
	if wc < 2 || wc > 4 {
		t.Fatalf("worst case = %v, want in [2, 4]", wc)
	}
}

// The central claim behind Table I, in miniature: with the attacker on
// the most precise sensor, Descending (attacker sees everything) is never
// better for the system than Ascending (attacker sees nothing).
func TestAscendingBeatsDescendingSmallConfig(t *testing.T) {
	widths := []float64{2, 5} // n=2 won't allow f=1... use n=3
	widths = []float64{2, 4, 6}
	f := 1
	targets, err := attack.ChooseTargets(widths, 1, attack.TargetSmallest, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(kind schedule.Kind) float64 {
		setup := cleanSetup(t, widths, f, kind)
		setup.Targets = targets
		setup.Strategy = attack.NewOptimal()
		setup.Step = 1
		setup.MaxExact = 2000
		exp, err := ExpectedWidth(setup, 1)
		if err != nil {
			t.Fatal(err)
		}
		if exp.Detected != 0 {
			t.Fatalf("%v: attacker detected in %d rounds", kind, exp.Detected)
		}
		return exp.Mean
	}
	asc := run(schedule.Ascending)
	desc := run(schedule.Descending)
	if asc > desc+1e-9 {
		t.Fatalf("Ascending mean %v exceeds Descending %v: schedule claim violated", asc, desc)
	}
}

// TestRoundCleanPathZeroAllocs pins the tentpole guarantee of the round
// engine: once warm, a clean (no attacker) round performs ZERO heap
// allocations — the scheduler's order, the final-interval vector, the
// fuser's endpoint buffers, and the suspect buffer are all reused. The
// expectation engines enumerate millions of combinations through this
// path; any allocation here multiplies by that count.
func TestRoundCleanPathZeroAllocs(t *testing.T) {
	setup := cleanSetup(t, []float64{1, 2, 3, 4, 5}, 2, schedule.Ascending)
	s, err := NewSimulator(setup)
	if err != nil {
		t.Fatal(err)
	}
	correct := make([]interval.Interval, 5)
	for k, w := range setup.Widths {
		correct[k] = interval.MustCentered(0, w)
	}
	var res RoundResult
	if err := s.RoundInto(correct, &res); err != nil { // warm all buffers
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.RoundInto(correct, &res); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("clean RoundInto allocates %v per round, want 0", allocs)
	}
	// The Round wrapper shares the same buffers and must stay
	// allocation-free too (its result struct stays on the stack).
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Round(correct); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("clean Round allocates %v per round, want 0", allocs)
	}
}

// TestRoundResultReuseIsDocumentedBehavior asserts the RoundResult
// aliasing contract: the slices returned by consecutive rounds share
// backing arrays, so a caller that retains them must copy.
func TestRoundResultReuseIsDocumentedBehavior(t *testing.T) {
	setup := cleanSetup(t, []float64{1, 2}, 0, schedule.Ascending)
	s, err := NewSimulator(setup)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Round([]interval.Interval{interval.MustCentered(0, 1), interval.MustCentered(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	first := r1.Final[0]
	r2, err := s.Round([]interval.Interval{interval.MustCentered(0.25, 1), interval.MustCentered(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Final[0].Equal(interval.MustCentered(0.25, 1)) {
		t.Fatalf("second round final = %v", r2.Final[0])
	}
	if r1.Final[0].Equal(first) {
		t.Fatal("expected r1.Final to alias the reused buffer (contract change?)")
	}
}

// TestRoundMatchesFuseAndDetect feeds clean rounds arbitrary (possibly
// disagreeing) readings and requires the round's fusion, suspects, and
// no-fusion error to match fusion.FuseAndDetect on the same intervals —
// the round path inlines the detector to stay allocation-free.
func TestRoundMatchesFuseAndDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(6)
		widths := make([]float64, n)
		correct := make([]interval.Interval, n)
		for k := range correct {
			widths[k] = float64(rng.Intn(5))
			lo := float64(rng.Intn(9) - 4)
			if trial%2 == 1 {
				widths[k] = rng.Float64() * 4
				lo = (rng.Float64() - 0.5) * 8
			}
			correct[k] = interval.Interval{Lo: lo, Hi: lo + widths[k]}
		}
		f := rng.Intn(n)
		s, err := NewSimulator(cleanSetup(t, widths, f, schedule.Ascending))
		if err != nil {
			t.Fatal(err)
		}
		res, gotErr := s.Round(correct)
		wantIv, wantSus, wantErr := fusion.FuseAndDetect(correct, f)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ivs=%v f=%d: err %v, want %v", correct, f, gotErr, wantErr)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, fusion.ErrNoFusion) || gotErr.Error() != wantErr.Error() {
				t.Fatalf("ivs=%v f=%d: err %q, want %q", correct, f, gotErr, wantErr)
			}
			continue
		}
		if res.Fused != wantIv || !slices.Equal(res.Suspects, wantSus) {
			t.Fatalf("ivs=%v f=%d: round %v %v, want %v %v", correct, f, res.Fused, res.Suspects, wantIv, wantSus)
		}
	}
}

// The claim the exhaustive schedule ranking used to check, for the
// paper's {5, 11, 17} example: among all 3! fixed transmission orders,
// Ascending gives the smallest expected fusion width, and the attacker
// on the most precise sensor stays undetected under it.
func TestAscendingIsBestFixedOrder(t *testing.T) {
	widths := []float64{5, 11, 17}
	targets, err := attack.ChooseTargets(widths, 1, attack.TargetSmallest, nil)
	if err != nil {
		t.Fatal(err)
	}
	ascending := []int{0, 1, 2} // widths are already ascending
	best, bestMean := []int(nil), math.Inf(1)
	var ascExp Expectation
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		sched, err := schedule.NewFixed(order)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := ExpectedWidth(Setup{Widths: widths, F: 1, Targets: targets, Scheduler: sched,
			Strategy: attack.NewOptimal(), Step: 1, MaxExact: 600, MCSamples: 160}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if exp.Mean < bestMean-1e-9 {
			best, bestMean = order, exp.Mean
		}
		if slices.Equal(order, ascending) {
			ascExp = exp
		}
	}
	if !slices.Equal(best, ascending) {
		t.Fatalf("best fixed order is %v (mean %.3f), not Ascending (mean %.3f)", best, bestMean, ascExp.Mean)
	}
	if ascExp.Detected != 0 {
		t.Fatalf("attacker detected in %d Ascending rounds", ascExp.Detected)
	}
}

// repeatScheduler is a broken Scheduler whose order names sensor 0 twice.
type repeatScheduler struct{}

func (repeatScheduler) Order() []int { return []int{0, 1, 0} }
func (repeatScheduler) Name() string { return "repeat" }

// TestRoundRejectsBrokenTransmissions: a sensor may transmit once per
// round, and only a valid interval.
func TestRoundRejectsBrokenTransmissions(t *testing.T) {
	widths := []float64{1, 2, 3}
	correct := []interval.Interval{interval.MustCentered(0, 1), interval.MustCentered(0, 2), interval.MustCentered(0, 3)}
	s, err := NewSimulator(Setup{Widths: widths, F: 1, Scheduler: repeatScheduler{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Round(correct); err == nil {
		t.Error("a sensor transmitting twice in one round must fail")
	}
	s, err = NewSimulator(cleanSetup(t, widths, 1, schedule.Ascending))
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(correct)
	bad[1] = interval.Interval{Lo: 2, Hi: 1}
	if _, err := s.Round(bad); err == nil {
		t.Error("an invalid interval must fail")
	}
	if _, err := s.Round(correct); err != nil {
		t.Errorf("a good round after a failed one: %v", err)
	}
}

// seenRecorder is an attack.Strategy that records what the attacker has
// observed, and how many of her own intervals she has sent, when she
// plans, and then sends her correct readings.
type seenRecorder struct {
	seen    [][]interval.Interval
	ownSent []int
}

func (r *seenRecorder) Plan(ctx attack.Context) []interval.Interval {
	r.seen = append(r.seen, slices.Clone(ctx.Seen))
	r.ownSent = append(r.ownSent, len(ctx.OwnSent))
	out := make([]interval.Interval, len(ctx.OwnWidths))
	for k, w := range ctx.OwnWidths {
		out[k] = interval.MustCentered(ctx.Delta.Center(), w)
	}
	return out
}

func (r *seenRecorder) Name() string { return "seen-recorder" }

// TestAttackerSeesOnlyEarlierSlots: the attacker plans exactly once per
// round, at her first slot, for all her sensors — so no plan ever sees
// an OwnSent interval, even when her slots are not adjacent — and what
// she has observed then is exactly the earlier slots' intervals, in
// slot order.
func TestAttackerSeesOnlyEarlierSlots(t *testing.T) {
	widths := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		order, targets []int
		before         int // slots ahead of her first one
	}{
		{order: []int{3, 1, 0, 2, 4}, targets: []int{0}, before: 2},
		{order: []int{3, 0, 4, 2, 1}, targets: []int{0, 2}, before: 1},
	} {
		sched, err := schedule.NewFixed(tc.order)
		if err != nil {
			t.Fatal(err)
		}
		rec := &seenRecorder{}
		s, err := NewSimulator(Setup{Widths: widths, F: 2, Targets: tc.targets, Scheduler: sched, Strategy: rec, Step: 1})
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 3
		var want [][]interval.Interval
		for round := 0; round < rounds; round++ {
			correct := make([]interval.Interval, len(widths))
			for k, w := range widths {
				correct[k] = interval.MustCentered(0.1*float64(round+k), w)
			}
			var earlier []interval.Interval
			for _, idx := range tc.order[:tc.before] {
				earlier = append(earlier, correct[idx])
			}
			want = append(want, earlier)
			if _, err := s.Round(correct); err != nil {
				t.Fatal(err)
			}
		}
		if len(rec.seen) != rounds {
			t.Fatalf("targets %v: attacker planned %d times in %d rounds, want %d", tc.targets, len(rec.seen), rounds, rounds)
		}
		for r := range rec.seen {
			if rec.ownSent[r] != 0 {
				t.Errorf("targets %v, round %d: plan saw %d OwnSent intervals, want 0", tc.targets, r, rec.ownSent[r])
			}
			if !slices.Equal(rec.seen[r], want[r]) {
				t.Errorf("targets %v, round %d: attacker had seen %v at her first slot, want %v", tc.targets, r, rec.seen[r], want[r])
			}
		}
	}
}
