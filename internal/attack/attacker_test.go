package attack

import (
	"math/rand"
	"testing"

	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
)

func landSharkConfig(strategy Strategy, targets []int) Config {
	return Config{
		N: 4, F: 1,
		Widths:   []float64{0.2, 0.2, 1, 2}, // enc, enc, gps, cam
		Targets:  targets,
		Strategy: strategy,
		Step:     0.1,
	}
}

func TestNewValidation(t *testing.T) {
	good := landSharkConfig(Null{}, []int{0})
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Widths = bad.Widths[:2]
	if _, err := New(bad); err == nil {
		t.Error("width count mismatch must fail")
	}
	bad = good
	bad.F = 4
	if _, err := New(bad); err == nil {
		t.Error("f >= n must fail")
	}
	bad = good
	bad.Targets = nil
	if _, err := New(bad); err == nil {
		t.Error("no targets must fail")
	}
	bad = good
	bad.Targets = []int{7}
	if _, err := New(bad); err == nil {
		t.Error("out-of-range target must fail")
	}
	bad = good
	bad.Targets = []int{0, 0}
	if _, err := New(bad); err == nil {
		t.Error("duplicate targets must fail")
	}
}

func TestAttackerDefaultsToOptimal(t *testing.T) {
	cfg := landSharkConfig(nil, []int{0})
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.strategy.Name() != "optimal" {
		t.Fatalf("default strategy = %q", a.strategy.Name())
	}
}

func TestAttackerRoundFlow(t *testing.T) {
	// Attacked encoder (idx 0), Ascending order [0 1 2 3]: passive slot.
	a, err := New(landSharkConfig(NewOptimal(), []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	// BeginRound takes every sensor's correct reading, indexed by
	// sensor; the attacker only reads her targets' entries (sensor 0).
	correct := []interval.Interval{
		interval.MustNew(9.9, 10.1),
		interval.MustNew(9.9, 10.1),
		interval.MustNew(9.7, 10.7),
		interval.MustNew(9.2, 11.2),
	}
	if err := a.BeginRound(correct); err != nil {
		t.Fatal(err)
	}
	if !a.Delta().Equal(interval.MustNew(9.9, 10.1)) {
		t.Fatalf("Delta = %v", a.Delta())
	}
	iv, err := a.Transmit(0, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Passive, zero slack: forced to send the correct interval.
	if !iv.ApproxEqual(interval.MustNew(9.9, 10.1), 1e-9) {
		t.Fatalf("passive forced transmission = %v", iv)
	}
}

func TestAttackerActiveLastSlot(t *testing.T) {
	// Attacked encoder transmits last (Descending-like): active mode with
	// full knowledge; the attack must extend the fusion interval.
	a, err := New(landSharkConfig(NewOptimal(), []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BeginRound([]interval.Interval{
		interval.MustNew(9.9, 10.1),
		interval.MustNew(9.9, 10.1),
		interval.MustNew(9.7, 10.7),
		interval.MustNew(9.2, 11.2),
	}); err != nil {
		t.Fatal(err)
	}
	seen := []struct {
		idx int
		iv  interval.Interval
	}{
		{3, interval.MustNew(9.2, 11.2)}, // camera
		{2, interval.MustNew(9.7, 10.7)}, // gps
		{1, interval.MustNew(9.9, 10.1)}, // other encoder
	}
	for _, s := range seen {
		a.Observe(s.iv)
	}
	iv, err := a.Transmit(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := []interval.Interval{seen[0].iv, seen[1].iv, seen[2].iv, iv}
	fused, suspects, err := fusion.FuseAndDetect(all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 0 {
		t.Fatalf("attacker detected: %v (sent %v)", suspects, iv)
	}
	// Without the attack, fusion over the three correct intervals plus a
	// correct encoder: upper bound 10.1. The attack should push beyond.
	if fused.Hi <= 10.1+1e-9 && fused.Lo >= 9.9-1e-9 {
		t.Fatalf("active attack had no effect: fused = %v", fused)
	}
}

func TestAttackerPlanReplay(t *testing.T) {
	// Two compromised sensors at consecutive slots: the first Transmit
	// plans both; the second replays without replanning.
	cfg := Config{
		N: 5, F: 2,
		Widths:   []float64{5, 5, 5, 14, 17},
		Targets:  []int{0, 1},
		Strategy: Greedy{TwoSided: true},
		Step:     1,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = a.BeginRound([]interval.Interval{
		interval.MustNew(-2.5, 2.5),
		interval.MustNew(-2, 3),
		interval.MustNew(-2.5, 2.5),
		interval.MustNew(-7, 7),
		interval.MustNew(-8.5, 8.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Delta().Equal(interval.MustNew(-2, 2.5)) {
		t.Fatalf("Delta = %v", a.Delta())
	}
	iv0, err := a.Transmit(0, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(iv0)
	iv1, err := a.Transmit(1, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if iv0.Width() != 5 || iv1.Width() != 5 {
		t.Fatalf("widths: %v %v", iv0, iv1)
	}
	// Both must contain Delta (passive mode: sent=0 < 5-2-2=1).
	if !iv0.ContainsInterval(a.Delta()) || !iv1.ContainsInterval(a.Delta()) {
		t.Fatalf("passive plan violated: %v %v (Delta %v)", iv0, iv1, a.Delta())
	}
}

func TestAttackerErrors(t *testing.T) {
	a, err := New(landSharkConfig(Null{}, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Transmit(0, nil); err == nil {
		t.Error("Transmit before BeginRound must fail")
	}
	if err := a.BeginRound(nil); err == nil {
		t.Error("BeginRound without the full reading vector must fail")
	}
	if err := a.BeginRound([]interval.Interval{
		interval.MustNew(0, 1), interval.MustNew(0, 1),
		interval.MustNew(0, 1), interval.MustNew(0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Transmit(2, nil); err == nil {
		t.Error("Transmit for non-compromised sensor must fail")
	}
}

func TestAttackerDisjointDeltaRejected(t *testing.T) {
	cfg := Config{
		N: 4, F: 1, Widths: []float64{1, 1, 2, 2}, Targets: []int{0, 1},
		Strategy: Null{},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = a.BeginRound([]interval.Interval{
		interval.MustNew(0, 1),
		interval.MustNew(5, 6),
		interval.MustNew(0, 2),
		interval.MustNew(0, 2),
	})
	if err == nil {
		t.Fatal("disjoint correct readings must be rejected (both contain the truth)")
	}
}

func TestAttackerAccessors(t *testing.T) {
	a, err := New(landSharkConfig(Null{}, []int{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	got := a.Targets()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Targets = %v", got)
	}
	if !a.Compromised(0) || a.Compromised(1) {
		t.Fatal("Compromised flags wrong")
	}
}

func TestChooseTargets(t *testing.T) {
	widths := []float64{5, 5, 5, 14, 17}
	small, err := ChooseTargets(widths, 2, TargetSmallest, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker-favorable tie-break: the HIGHEST indices among the 5s.
	if len(small) != 2 || small[0] != 1 || small[1] != 2 {
		t.Fatalf("TargetSmallest = %v, want [1 2]", small)
	}
	large, err := ChooseTargets(widths, 2, TargetLargest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(large) != 2 || large[0] != 3 || large[1] != 4 {
		t.Fatalf("TargetLargest = %v, want [3 4]", large)
	}
	early, err := ChooseTargets(widths, 2, TargetSmallestEarly, nil)
	if err != nil {
		t.Fatal(err)
	}
	// System-favorable tie-break: the LOWEST indices among the 5s.
	if len(early) != 2 || early[0] != 0 || early[1] != 1 {
		t.Fatalf("TargetSmallestEarly = %v, want [0 1]", early)
	}
	rng := rand.New(rand.NewSource(8))
	randT, err := ChooseTargets(widths, 2, TargetRandom, rng)
	if err != nil || len(randT) != 2 || randT[0] == randT[1] {
		t.Fatalf("TargetRandom = %v, %v", randT, err)
	}
	if _, err := ChooseTargets(widths, 0, TargetSmallest, nil); err == nil {
		t.Error("fa=0 must fail")
	}
	if _, err := ChooseTargets(widths, 6, TargetSmallest, nil); err == nil {
		t.Error("fa>n must fail")
	}
	if _, err := ChooseTargets(widths, 1, TargetRandom, nil); err == nil {
		t.Error("TargetRandom without rng must fail")
	}
	if _, err := ChooseTargets(widths, 1, TargetPolicy(9), nil); err == nil {
		t.Error("unknown policy must fail")
	}
}

// Stealth invariant across random scenarios: whatever the attacker does,
// the detector never flags her.
func TestAttackerNeverDetectedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	strategies := []Strategy{Null{}, Greedy{}, Greedy{TwoSided: true}, NewOptimal()}
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		f := fusion.SafeFaultBound(n)
		if f == 0 {
			continue
		}
		fa := 1 + rng.Intn(f)
		widths := make([]float64, n)
		for k := range widths {
			widths[k] = 1 + float64(rng.Intn(4))*2
		}
		targets, err := ChooseTargets(widths, fa, TargetSmallest, nil)
		if err != nil {
			t.Fatal(err)
		}
		strat := strategies[trial%len(strategies)]
		a, err := New(Config{
			N: n, F: f, Widths: widths, Targets: targets, Strategy: strat,
			Step: 2, MaxExact: 100, MCSamples: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		truth := 0.0
		correctIvs := make([]interval.Interval, n)
		for k := 0; k < n; k++ {
			off := (rng.Float64() - 0.5) * widths[k]
			correctIvs[k] = interval.MustCentered(truth+off, widths[k])
		}
		if err := a.BeginRound(correctIvs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Random transmission order.
		order := rng.Perm(n)
		final := make([]interval.Interval, n)
		for s, idx := range order {
			var iv interval.Interval
			if a.Compromised(idx) {
				var err error
				iv, err = a.Transmit(idx, order[s+1:])
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			} else {
				iv = correctIvs[idx]
			}
			a.Observe(iv)
			final[idx] = iv
		}
		fused, suspects, err := fusion.FuseAndDetect(final, f)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, strat.Name(), err)
		}
		for _, s := range suspects {
			if a.Compromised(s) {
				t.Fatalf("trial %d (%s): attacker detected on sensor %d (final %v fused %v)",
					trial, strat.Name(), s, final, fused)
			}
		}
		if !fused.Contains(truth) {
			t.Fatalf("trial %d: fusion %v lost the truth", trial, fused)
		}
	}
}
