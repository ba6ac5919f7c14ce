package attack

import (
	"testing"

	"sensorfusion/internal/interval"
)

func baseCtx() Context {
	// n=4, f=1, attacker controls one width-1 sensor transmitting first:
	// passive mode (0 < 4-1-1 = 2).
	return Context{
		N:            4,
		F:            1,
		Sent:         0,
		Delta:        interval.MustNew(-0.5, 0.5),
		OwnWidths:    []float64{1},
		UnseenWidths: []float64{1, 2, 3},
		Step:         0.5,
	}
}

func TestModePassiveActive(t *testing.T) {
	c := baseCtx()
	if c.Mode() != Passive {
		t.Fatalf("Mode = %v, want Passive (sent=0 < n-f-far=2)", c.Mode())
	}
	// After two transmissions: 2 >= 4-1-1 -> Active.
	c.Sent = 2
	c.Seen = []interval.Interval{interval.MustNew(-1, 1), interval.MustNew(-0.5, 1.5)}
	c.UnseenWidths = []float64{3}
	if c.Mode() != Active {
		t.Fatalf("Mode = %v, want Active", c.Mode())
	}
	// Two own unsent intervals push the threshold down: far=2 ->
	// active needs sent >= n-f-2 = 1.
	c2 := Context{N: 4, F: 1, Sent: 1,
		Delta:        interval.MustNew(0, 0.2),
		OwnWidths:    []float64{1, 1},
		Seen:         []interval.Interval{interval.MustNew(-1, 1)},
		UnseenWidths: []float64{2},
	}
	if c2.Mode() != Active {
		t.Fatalf("Mode = %v, want Active with far=2", c2.Mode())
	}
}

func TestModeCaseStudySlots(t *testing.T) {
	// The case-study analysis: n=4, f=1, fa=1.
	// Slot 0 or 1 (sent<2): passive. Slot 2 or 3 (sent>=2): active.
	for sent, want := range map[int]Mode{0: Passive, 1: Passive, 2: Active, 3: Active} {
		c := Context{N: 4, F: 1, Sent: sent, Delta: interval.Point(0), OwnWidths: []float64{0.2}}
		if got := c.Mode(); got != want {
			t.Errorf("sent=%d: Mode = %v, want %v", sent, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := baseCtx()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid ctx rejected: %v", err)
	}
	bad := good
	bad.N = 0
	if bad.Validate() == nil {
		t.Error("n=0 must fail")
	}
	bad = good
	bad.F = 4
	if bad.Validate() == nil {
		t.Error("f>=n must fail")
	}
	bad = good
	bad.OwnWidths = nil
	if bad.Validate() == nil {
		t.Error("no own widths must fail")
	}
	bad = good
	bad.OwnWidths = []float64{-1}
	if bad.Validate() == nil {
		t.Error("negative width must fail")
	}
	bad = good
	bad.Delta = interval.Interval{Lo: 1, Hi: 0}
	if bad.Validate() == nil {
		t.Error("invalid delta must fail")
	}
	bad = good
	bad.UnseenWidths = []float64{1}
	if bad.Validate() == nil {
		t.Error("count mismatch must fail")
	}
	bad = good
	bad.Sent = 1
	if bad.Validate() == nil {
		t.Error("Sent != len(Seen) must fail")
	}
}

func TestStealthPassive(t *testing.T) {
	c := baseCtx() // Delta = [-0.5, 0.5], own width 1
	// Exactly covering Delta: the only legal passive placement.
	if !c.StealthOK([]interval.Interval{interval.MustNew(-0.5, 0.5)}) {
		t.Fatal("covering Delta exactly must be stealthy")
	}
	// Not containing Delta: rejected.
	if c.StealthOK([]interval.Interval{interval.MustNew(0, 1)}) {
		t.Fatal("placement missing Delta.Lo must be rejected in passive mode")
	}
	// Wrong width: rejected.
	if c.StealthOK([]interval.Interval{interval.MustNew(-1, 1)}) {
		t.Fatal("wrong width must be rejected")
	}
	// Wrong count: rejected.
	if c.StealthOK(nil) {
		t.Fatal("wrong plan length must be rejected")
	}
	// Wider own interval leaves slack.
	c.OwnWidths = []float64{2}
	if !c.StealthOK([]interval.Interval{interval.MustNew(-0.5, 1.5)}) {
		t.Fatal("slack placement containing Delta must be stealthy")
	}
	// Invalid interval rejected.
	if c.StealthOK([]interval.Interval{{Lo: 2, Hi: 0}}) {
		t.Fatal("invalid interval must be rejected")
	}
}

func TestStealthActive(t *testing.T) {
	// n=4, f=1: active interval needs a common point with n-f-1 = 2
	// reliable others.
	c := Context{
		N:         4,
		F:         1,
		Sent:      3,
		Delta:     interval.MustNew(-0.1, 0.1),
		OwnWidths: []float64{1},
		Seen: []interval.Interval{
			interval.MustNew(-1, 1),
			interval.MustNew(-0.5, 1.5),
			interval.MustNew(-2, 0.5),
		},
	}
	if c.Mode() != Active {
		t.Fatal("fixture should be active")
	}
	// Overlapping the triple intersection region: fine.
	if !c.StealthOK([]interval.Interval{interval.MustNew(0.4, 1.4)}) {
		t.Fatal("placement touching two seen intervals must be stealthy")
	}
	// Far away: no guaranteed overlap.
	if c.StealthOK([]interval.Interval{interval.MustNew(10, 11)}) {
		t.Fatal("distant placement must be rejected")
	}
	// Touching only ONE seen interval (at x=1.5 only [-0.5,1.5] covers):
	if c.StealthOK([]interval.Interval{interval.MustNew(1.5, 2.5)}) {
		t.Fatal("placement touching a single interval must be rejected")
	}
	// Exactly touching the 2-covered region at x=1 ([-1,1] and [-0.5,1.5]).
	if !c.StealthOK([]interval.Interval{interval.MustNew(1, 2)}) {
		t.Fatal("placement touching the 2-covered region at a point must be stealthy")
	}
}

func TestStealthActiveMutualSupport(t *testing.T) {
	// Two attacked intervals may count each other: n=5, f=2, need 2
	// others. One seen interval + the sibling meet at a common point.
	c := Context{
		N:            5,
		F:            2,
		Sent:         1,
		Delta:        interval.MustNew(-0.1, 0.1),
		OwnWidths:    []float64{2, 2},
		Seen:         []interval.Interval{interval.MustNew(-1, 1)},
		UnseenWidths: []float64{3, 3},
	}
	if c.Mode() != Active {
		t.Fatalf("mode = %v, want Active (sent=1 >= 5-2-2)", c.Mode())
	}
	// Both hang off the top of the seen interval and overlap each other
	// at x=1: each has a common point with 2 others.
	plan := []interval.Interval{interval.MustNew(0.5, 2.5), interval.MustNew(1, 3)}
	if !c.StealthOK(plan) {
		t.Fatal("mutually supporting placements must be stealthy")
	}
	// Opposite sides, not overlapping each other beyond the seen one:
	// at any point of [1,3] only the sibling... check rejection of a
	// placement where one interval floats free.
	bad := []interval.Interval{interval.MustNew(0.5, 2.5), interval.MustNew(5, 7)}
	if c.StealthOK(bad) {
		t.Fatal("free-floating sibling must be rejected")
	}
}

func TestStealthProtectsEarlierIntervals(t *testing.T) {
	// The attacker already sent one interval whose guarantee relied on a
	// planned sibling; a new plan that abandons it must be rejected.
	// n=5, f=2 (need common point with 2 others).
	sentOwn := interval.MustNew(2, 4)
	c := Context{
		N:         5,
		F:         2,
		Sent:      3,
		Delta:     interval.MustNew(-0.1, 0.1),
		OwnWidths: []float64{2},
		OwnSent:   []interval.Interval{sentOwn},
		Seen: []interval.Interval{
			interval.MustNew(-1, 1),
			interval.MustNew(-1, 2.5), // overlaps sentOwn on [2, 2.5]
			sentOwn,
		},
		UnseenWidths: []float64{3},
	}
	// Plan keeping the earlier interval supported: sibling overlapping
	// [2, 2.5] too, giving sentOwn two supporters at x=2.
	good := []interval.Interval{interval.MustNew(1.5, 3.5)}
	if !c.StealthOK(good) {
		t.Fatal("supporting plan must be accepted")
	}
	// Plan that abandons it: sibling far below; sentOwn has only one
	// supporter ([-1,2.5]) at any of its points.
	bad := []interval.Interval{interval.MustNew(-2, 0)}
	if c.StealthOK(bad) {
		t.Fatal("plan abandoning the earlier interval must be rejected")
	}
}

func TestTruthPoints(t *testing.T) {
	c := baseCtx()
	pts := c.TruthPoints()
	if len(pts) != maxTruthPoints {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0] != c.Delta.Lo || pts[len(pts)-1] != c.Delta.Hi {
		t.Fatalf("truth points %v must span Delta %v", pts, c.Delta)
	}
	// Point Delta: single truth point.
	c.Delta = interval.Point(3)
	pts = c.TruthPoints()
	if len(pts) != 1 || pts[0] != 3 {
		t.Fatalf("point-Delta truth points = %v", pts)
	}
}

func TestContextDefaults(t *testing.T) {
	var c Context
	if c.step() != DefaultStep {
		t.Errorf("step default = %v", c.step())
	}
	if c.maxExact() != DefaultMaxExact {
		t.Errorf("maxExact default = %v", c.maxExact())
	}
	if c.mcSamples() != DefaultMCSamples {
		t.Errorf("mcSamples default = %v", c.mcSamples())
	}
	c.Step, c.MaxExact, c.MCSamples = 0.25, 10, 20
	if c.step() != 0.25 || c.maxExact() != 10 || c.mcSamples() != 20 {
		t.Error("explicit knobs not honored")
	}
}

func TestModeString(t *testing.T) {
	if Passive.String() != "Passive" || Active.String() != "Active" {
		t.Fatal("mode names wrong")
	}
}

func TestRngForDeterministic(t *testing.T) {
	c := baseCtx()
	a := c.rngFor().Int63()
	b := c.rngFor().Int63()
	if a != b {
		t.Fatal("rngFor must be deterministic for identical contexts")
	}
	c2 := c
	c2.Sent = 1
	c2.Seen = []interval.Interval{interval.MustNew(0, 1)}
	c2.UnseenWidths = []float64{1, 2}
	if c2.rngFor().Int63() == a {
		t.Log("different contexts produced the same seed (allowed, but suspicious)")
	}
}

// TruthPoints discretizes the attacker's belief about the true value: a
// small grid over Delta (the true value is guaranteed to lie there).
func (c Context) TruthPoints() []float64 {
	return c.appendTruthPoints(nil)
}
