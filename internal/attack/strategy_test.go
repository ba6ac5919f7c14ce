package attack

import (
	"math/rand"
	"testing"

	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
)

func TestNullStrategy(t *testing.T) {
	c := baseCtx()
	plan := Null{}.Plan(c)
	if len(plan) != 1 {
		t.Fatalf("plan = %v", plan)
	}
	if !plan[0].Equal(interval.MustNew(-0.5, 0.5)) {
		t.Fatalf("null plan = %v, want the correct reading", plan[0])
	}
	if !c.StealthOK(plan) {
		t.Fatal("null plan must be stealthy")
	}
	if (Null{}).Name() != "null" {
		t.Fatal("name")
	}
}

func TestGreedyPassiveWithSlack(t *testing.T) {
	c := baseCtx()
	c.OwnWidths = []float64{3} // |Delta| = 1, slack 2
	plan := Greedy{}.Plan(c)
	if len(plan) != 1 {
		t.Fatalf("plan = %v", plan)
	}
	if !c.StealthOK(plan) {
		t.Fatal("greedy passive plan must be stealthy")
	}
	// One-sided greed pushes up: upper end beyond Delta.Hi by the slack.
	if plan[0].Hi <= c.Delta.Hi {
		t.Fatalf("greedy-up did not extend upward: %v", plan[0])
	}
	if plan[0].Lo != c.Delta.Lo {
		t.Fatalf("greedy-up should anchor at Delta.Lo: %v", plan[0])
	}
}

func TestGreedyPassiveNoSlack(t *testing.T) {
	c := baseCtx() // width 1 = |Delta|: forced to send Delta itself
	plan := Greedy{}.Plan(c)
	if !plan[0].Equal(c.Delta) {
		t.Fatalf("no-slack passive plan = %v, want Delta %v", plan[0], c.Delta)
	}
}

func TestGreedyTwoSided(t *testing.T) {
	c := Context{
		N: 5, F: 2, Sent: 0,
		Delta:        interval.MustNew(-0.5, 0.5),
		OwnWidths:    []float64{3, 3},
		UnseenWidths: []float64{2, 2, 2},
		Step:         0.5,
	}
	if c.Mode() != Passive {
		t.Fatal("fixture should be passive")
	}
	plan := Greedy{TwoSided: true}.Plan(c)
	if len(plan) != 2 || !c.StealthOK(plan) {
		t.Fatalf("plan = %v", plan)
	}
	// First up, second down.
	if plan[0].Hi <= plan[1].Hi {
		t.Fatalf("two-sided plan not split: %v", plan)
	}
	if (Greedy{TwoSided: true}).Name() != "greedy-two-sided" ||
		(Greedy{}).Name() != "greedy-up" {
		t.Fatal("names")
	}
}

func TestGreedyActive(t *testing.T) {
	// Case-study shape: n=4, f=1, attacked encoder transmits last having
	// seen everything; active mode lets it hang off the top of the
	// 2-covered region.
	seen := []interval.Interval{
		interval.MustNew(9.9, 10.1), // encoder (correct)
		interval.MustNew(9.6, 10.6), // gps
		interval.MustNew(9.4, 11.4), // camera
	}
	c := Context{
		N: 4, F: 1, Sent: 3,
		Delta:     interval.MustNew(9.92, 10.08),
		OwnWidths: []float64{0.2},
		Seen:      seen,
		Step:      0.1,
	}
	if c.Mode() != Active {
		t.Fatal("fixture should be active")
	}
	plan := Greedy{}.Plan(c)
	if !c.StealthOK(plan) {
		t.Fatalf("greedy active plan %v not stealthy", plan)
	}
	// The 2-covered span of seen is [9.6, 10.6]; greedy-up anchors at
	// 10.6 and extends to 10.8.
	if !plan[0].ApproxEqual(interval.Interval{Lo: 10.6, Hi: 10.8}, 1e-9) {
		t.Fatalf("greedy active plan = %v, want [10.6, 10.8]", plan[0])
	}
	// And it widens the fusion interval beyond the unattacked width.
	all := append(append([]interval.Interval(nil), seen...), plan[0])
	fused, err := fusion.Fuse(all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Hi < 10.6 {
		t.Fatalf("fused = %v, attack had no effect", fused)
	}
}

func TestGreedyInvalidContext(t *testing.T) {
	var c Context // invalid
	if plan := (Greedy{}).Plan(c); plan != nil {
		t.Fatalf("invalid context should yield nil plan, got %v", plan)
	}
}

func TestCandidateCentersPassive(t *testing.T) {
	c := baseCtx()
	c.OwnWidths = []float64{2}
	cands := candidateCenters(c, 2)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// All candidates must yield intervals containing Delta.
	for _, cc := range cands {
		iv := interval.MustCentered(cc, 2)
		if !iv.ContainsInterval(c.Delta) {
			t.Fatalf("candidate %v -> %v does not contain Delta %v", cc, iv, c.Delta)
		}
	}
	// Width < |Delta|: impossible.
	if got := candidateCenters(c, 0.5); got != nil {
		t.Fatalf("infeasible passive candidates = %v", got)
	}
}

func TestCandidateCentersActiveCoverRange(t *testing.T) {
	c := Context{
		N: 4, F: 1, Sent: 2,
		Delta:        interval.MustNew(-0.5, 0.5),
		OwnWidths:    []float64{2},
		Seen:         []interval.Interval{interval.MustNew(-3, 1), interval.MustNew(-1, 4)},
		UnseenWidths: []float64{2},
		Step:         1,
	}
	if c.Mode() != Active {
		t.Fatal("fixture should be active")
	}
	cands := candidateCenters(c, 2)
	if len(cands) < 5 {
		t.Fatalf("suspiciously few candidates: %v", cands)
	}
	// Extremes: candidates must reach placements touching the hull edges
	// [-3, 4]: centers -4 and 5.
	if cands[0] > -4+1e-9 {
		t.Fatalf("lowest candidate %v, want <= -4", cands[0])
	}
	if cands[len(cands)-1] < 5-1e-9 {
		t.Fatalf("highest candidate %v, want >= 5", cands[len(cands)-1])
	}
	// Candidates are sorted and deduplicated.
	for k := 1; k < len(cands); k++ {
		if cands[k] <= cands[k-1] {
			t.Fatalf("candidates not strictly increasing at %d: %v", k, cands)
		}
	}
}

// TestStrategyPlanIsFunctionOfContext pins the Strategy contract that
// the simulator's grouped expectation relies on: Plan is a deterministic
// function of its context. Every shipped strategy must return the same
// plan, bit for bit, for a context it planned before, after unrelated
// contexts were planned in between — across memo hits on absolute and
// shifted keys, multi-world contexts and Monte Carlo-sized ones.
func TestStrategyPlanIsFunctionOfContext(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var ctxs []Context
	for i := 0; i < 6; i++ {
		ctxs = append(ctxs, randomShiftableContext(rng), randomFullKnowledgeContext(rng, i%2 == 0))
	}
	multiWorld := Context{
		N: 5, F: 2, Sent: 2,
		Delta:        interval.MustNew(-0.5, 0.5),
		OwnWidths:    []float64{2},
		Seen:         []interval.Interval{interval.MustNew(-1, 2), interval.MustNew(-3, 1)},
		UnseenWidths: []float64{3, 4},
		Step:         1,
	}
	monteCarlo := multiWorld
	monteCarlo.MaxExact, monteCarlo.MCSamples = 2, 40
	// Two placements in the Passive regime (Sent < N-F-2), with the
	// unseen sensors resolved by a single Monte Carlo world.
	passiveOneWorld := Context{
		N: 5, F: 1, Sent: 1,
		Delta:        interval.MustNew(-1, 1),
		OwnWidths:    []float64{2, 3},
		Seen:         []interval.Interval{interval.MustNew(-0.5, 1.5)},
		UnseenWidths: []float64{2, 3},
		Step:         0.5,
		MaxExact:     1,
		MCSamples:    1,
	}
	if err := passiveOneWorld.Validate(); err != nil || passiveOneWorld.Mode() != Passive {
		t.Fatalf("fixture: %v, mode %v", err, passiveOneWorld.Mode())
	}
	ctxs = append(ctxs, multiWorld, monteCarlo, passiveOneWorld, translate(ctxs[0], 3))

	strategies := []func() Strategy{
		func() Strategy { return Null{} },
		func() Strategy { return Greedy{} },
		func() Strategy { return Greedy{TwoSided: true} },
		func() Strategy { return NewInformed() },
		func() Strategy { return NewOptimal() },
	}
	for _, mk := range strategies {
		s := mk()
		first := make([][]interval.Interval, len(ctxs))
		for i, c := range ctxs {
			first[i] = append([]interval.Interval(nil), s.Plan(c)...)
		}
		for i := len(ctxs) - 1; i >= 0; i-- {
			s.Plan(ctxs[(i+1)%len(ctxs)]) // an unrelated call in between
			if again := s.Plan(ctxs[i]); !sameBits(again, first[i]) {
				t.Fatalf("%s: context %d planned %v, then %v", s.Name(), i, first[i], again)
			}
			if fresh := mk().Plan(ctxs[i]); !sameBits(fresh, first[i]) {
				t.Fatalf("%s: context %d planned %v after others, %v fresh", s.Name(), i, first[i], fresh)
			}
		}
	}
}
