package sim

import (
	"math"
	"math/rand"
	"testing"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/grid"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/schedule"
)

// groupedSetup draws a random attacked setup over a fixed slot order:
// Ascending, Descending, a Fixed permutation that puts a target
// strictly inside the order, or TrustedLast with random trusted flags.
// Widths are small multiples of 0.5 so the full enumeration stays cheap.
// The Strategy is left unset: checkGrouped gives every evaluation of a
// draw its own, so each starts from an empty plan memo.
func groupedSetup(rng *rand.Rand) Setup {
	n := 3 + rng.Intn(3)
	widths := make([]float64, n)
	for k := range widths {
		widths[k] = 0.5 * float64(1+rng.Intn(8))
	}
	fa := 1 + rng.Intn(2)
	f := max((n-1)/2, fa)
	targets := rng.Perm(n)[:fa]
	var sched schedule.Scheduler
	var err error
	switch kind := rng.Intn(4); kind {
	case 0:
		sched, err = schedule.NewAscending(widths)
	case 1:
		sched, err = schedule.NewDescending(widths)
	case 2:
		order := rng.Perm(n)
		// Move the first target to a slot strictly inside the order.
		mid := 1 + rng.Intn(n-2)
		for slot, idx := range order {
			if idx == targets[0] {
				order[slot], order[mid] = order[mid], order[slot]
				break
			}
		}
		sched, err = schedule.NewFixed(order)
	default:
		trusted := make([]bool, n)
		for k := range trusted {
			trusted[k] = rng.Intn(2) == 0
		}
		sched, err = schedule.NewTrustedLast(widths, trusted)
	}
	if err != nil {
		panic(err)
	}
	return Setup{
		Widths: widths, F: f, Targets: targets, Scheduler: sched,
		Step: []float64{0.5, 1}[rng.Intn(2)], MaxExact: 200, MCSamples: 40,
	}
}

func newOptimal() attack.Strategy { return attack.NewOptimal() }

// simulate builds setup's Simulator and ExpectedWidth's grids.
func simulate(t testing.TB, setup Setup, step float64) (*Simulator, []grid.Grid) {
	t.Helper()
	s, err := NewSimulator(setup)
	if err != nil {
		t.Fatal(err)
	}
	grids := make([]grid.Grid, len(setup.Widths))
	for k, w := range setup.Widths {
		grids[k] = grid.Symmetric(w/2, step)
	}
	return s, grids
}

// byRound evaluates setup through the round-by-round enumeration, the
// oracle of the grouped path, with a fresh strategy.
func byRound(t testing.TB, setup Setup, strategy func() attack.Strategy, step float64) (Expectation, error) {
	t.Helper()
	setup.Strategy = strategy()
	s, grids := simulate(t, setup, step)
	return s.expectByRound(grids)
}

// byDecision runs the grouped path alone, reporting whether it took the
// configuration.
func byDecision(t testing.TB, setup Setup, step float64) (Expectation, bool) {
	t.Helper()
	s, grids := simulate(t, setup, step)
	return s.expectByDecision(grids)
}

// sameExpectation compares all five fields, the floats bit for bit.
func sameExpectation(a, b Expectation) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
		a.Count == b.Count && a.Detected == b.Detected
}

// checkGrouped holds ExpectedWidth to the round-by-round oracle on one
// setup and reports whether the grouped path took it.
func checkGrouped(t testing.TB, setup Setup, strategy func() attack.Strategy, step float64) bool {
	t.Helper()
	want, wantErr := byRound(t, setup, strategy, step)
	setup.Strategy = strategy()
	got, err := ExpectedWidth(setup, step)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("widths=%v f=%d targets=%v order=%v step=%v: error %v, oracle %v",
			setup.Widths, setup.F, setup.Targets, setup.Scheduler.Order(), step, err, wantErr)
	}
	if !sameExpectation(got, want) {
		t.Fatalf("widths=%v f=%d targets=%v order=%v step=%v:\n got %+v\nwant %+v",
			setup.Widths, setup.F, setup.Targets, setup.Scheduler.Order(), step, got, want)
	}
	setup.Strategy = strategy()
	grouped, ok := byDecision(t, setup, step)
	if ok && !sameExpectation(grouped, want) {
		t.Fatalf("grouped path returned %+v, oracle %+v", grouped, want)
	}
	return ok
}

// TestExpectedWidthGroupedMatchesRounds is the differential test of the
// decision-grouped enumeration: on random fixed-order setups (the
// attacker first, mid-order or last; one or two targets; dyadic steps)
// it must take the configuration and agree with one round per
// combination in every field, bit for bit.
func TestExpectedWidthGroupedMatchesRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	steps := []float64{1, 2, 0.5}
	for i := 0; i < 36; i++ {
		setup := groupedSetup(rng)
		step := steps[i%len(steps)]
		if !checkGrouped(t, setup, newOptimal, step) {
			t.Fatalf("widths=%v targets=%v order=%v step=%v: dyadic setup fell back to rounds",
				setup.Widths, setup.Targets, setup.Scheduler.Order(), step)
		}
	}
}

// offsetPlan places every own interval centered shift above Delta's
// center. With two targets and f = 1 her intervals vouch for each other
// (Context.StealthOK holds), yet the fusion interval follows them away
// from the truth, so a correct interval can miss it and be flagged.
type offsetPlan struct{ shift float64 }

func (p offsetPlan) Plan(ctx attack.Context) []interval.Interval {
	out := make([]interval.Interval, len(ctx.OwnWidths))
	for k, w := range ctx.OwnWidths {
		out[k] = interval.MustCentered(ctx.Delta.Center()+p.shift, w)
	}
	return out
}

func (offsetPlan) Name() string { return "offset" }

// TestExpectedWidthGroupedCountsDetections exercises the Detected
// weighting, which a stealthy attacker leaves at zero: two targets
// beyond the fault bound push the fusion interval off the truth, so
// some combinations flag the correct sensor — in the prefix under
// Descending, in the suffix under Ascending.
func TestExpectedWidthGroupedCountsDetections(t *testing.T) {
	widths := []float64{1, 1.5, 4}
	partial := 0
	for _, kind := range []schedule.Kind{schedule.Ascending, schedule.Descending} {
		for _, shift := range []float64{1, 2, 3} {
			sched, err := schedule.ForKind(kind, widths, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan := func() attack.Strategy { return offsetPlan{shift: shift} }
			setup := Setup{Widths: widths, F: 1, Targets: []int{0, 1}, Scheduler: sched, Strategy: plan(), Step: 1}
			if !checkGrouped(t, setup, plan, 0.5) {
				t.Fatalf("%v shift %v: grouped path declined", kind, shift)
			}
			exp, err := ExpectedWidth(setup, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if exp.Detected > 0 && exp.Detected < exp.Count {
				partial++
			}
		}
	}
	if partial == 0 {
		t.Fatal("no setup flagged some but not all combinations: the Detected weighting went untested")
	}
}

// TestExpectedWidthNonDyadicFallsBack: a step of 0.3 puts widths off
// the 2^-12 lattice, where regrouping the float sum could change its
// bits, so the grouped path must decline and the result must still be
// the round-by-round one.
func TestExpectedWidthNonDyadicFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		setup := groupedSetup(rng)
		if checkGrouped(t, setup, newOptimal, 0.3) {
			t.Fatalf("widths=%v step 0.3: grouped path took a non-dyadic enumeration", setup.Widths)
		}
	}
}

// TestExpectedWidthRandomScheduleUsesRounds: a Random schedule draws a
// fresh order every round, so only the round-by-round enumeration is
// correct for it; the result must equal that enumeration driven by an
// identically seeded scheduler.
func TestExpectedWidthRandomScheduleUsesRounds(t *testing.T) {
	widths := []float64{1, 2, 2, 3}
	random := func() schedule.Scheduler {
		s, err := schedule.NewRandom(len(widths), rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if schedule.FixedOrder(random()) {
		t.Fatal("FixedOrder(Random) = true")
	}
	setup := Setup{Widths: widths, F: 1, Targets: []int{1}, Scheduler: random(), Step: 1, Strategy: attack.NewOptimal()}
	got, err := ExpectedWidth(setup, 1)
	if err != nil {
		t.Fatal(err)
	}
	setup.Scheduler = random()
	want, err := byRound(t, setup, newOptimal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameExpectation(got, want) {
		t.Fatalf("Random schedule: got %+v, rounds %+v", got, want)
	}
}

// TestExpectedWidthGroupedAllocsFlat pins the grouped path's allocation
// budget: a constant number of objects per call, none per combination,
// so a warmed call allocates no more at step 1 than at step 2.
func TestExpectedWidthGroupedAllocsFlat(t *testing.T) {
	widths := []float64{2, 2, 2, 6, 6}
	sched, err := schedule.NewDescending(widths)
	if err != nil {
		t.Fatal(err)
	}
	opt := attack.NewOptimal() // shared, so warmed calls replay the memo
	setup := Setup{Widths: widths, F: 2, Targets: []int{1, 2}, Scheduler: sched, Strategy: opt, Step: 1, MaxExact: 300, MCSamples: 80}
	allocs := func(step float64) float64 {
		if _, ok := byDecision(t, setup, step); !ok {
			t.Fatalf("step %v: grouped path declined", step)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := ExpectedWidth(setup, step); err != nil {
				t.Fatal(err)
			}
		})
	}
	coarse, fine := allocs(2), allocs(1)
	t.Logf("allocs: step 2 %v, step 1 %v", coarse, fine)
	if fine > coarse {
		t.Fatalf("warmed ExpectedWidth allocates %v objects at step 1, %v at step 2: allocations grow with the enumeration", fine, coarse)
	}
}

// FuzzGroupedExpectation holds the decision-grouped enumeration to the
// round-by-round one on fuzzer-chosen fixed-order setups and steps.
func FuzzGroupedExpectation(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	steps := []float64{1, 2, 0.5, 0.3, 1.5}
	f.Fuzz(func(t *testing.T, seed int64, stepSel uint8) {
		setup := groupedSetup(rand.New(rand.NewSource(seed)))
		checkGrouped(t, setup, newOptimal, steps[int(stepSel)%len(steps)])
	})
}
