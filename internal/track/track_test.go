package track

import (
	"errors"
	"math/rand"
	"testing"

	"sensorfusion/internal/attack"
	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
	"sensorfusion/internal/schedule"
	"sensorfusion/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero rate must fail")
	}
	if _, err := New(-1); err == nil {
		t.Error("negative rate must fail")
	}
	tr, err := New(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.started || tr.Rounds() != 0 {
		t.Fatal("fresh tracker state")
	}
	if _, ok := tr.Predict(); ok {
		t.Fatal("prediction before first update must be unbounded")
	}
}

func TestFirstUpdateAdoptsFusion(t *testing.T) {
	tr, _ := New(0.5)
	fused := interval.MustNew(9, 11)
	got, err := tr.Update(fused)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(fused) {
		t.Fatalf("first update = %v, want %v", got, fused)
	}
	pred, ok := tr.Predict()
	if !ok || !pred.Equal(interval.MustNew(8.5, 11.5)) {
		t.Fatalf("prediction = %v, %v", pred, ok)
	}
}

func TestUpdateTightens(t *testing.T) {
	tr, _ := New(0.5)
	if _, err := tr.Update(interval.MustNew(9.9, 10.1)); err != nil {
		t.Fatal(err)
	}
	// A wide fusion interval is clamped by the prediction [9.4, 10.6].
	got, err := tr.Update(interval.MustNew(9, 12))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(interval.MustNew(9.4, 10.6)) {
		t.Fatalf("clamped state = %v", got)
	}
	if tr.Clamps() != 1 {
		t.Fatalf("clamps = %d", tr.Clamps())
	}
	if tr.Rounds() != 2 {
		t.Fatalf("rounds = %d", tr.Rounds())
	}
}

func TestUpdateInvalid(t *testing.T) {
	tr, _ := New(1)
	if _, err := tr.Update(interval.Interval{Lo: 2, Hi: 1}); err == nil {
		t.Fatal("invalid interval must fail")
	}
}

func TestInconsistencyAlarmsAndResets(t *testing.T) {
	tr, _ := New(0.1)
	if _, err := tr.Update(interval.MustNew(10, 10.2)); err != nil {
		t.Fatal(err)
	}
	_, err := tr.Update(interval.MustNew(20, 21))
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
	if tr.started {
		t.Fatal("tracker must reset after the alarm")
	}
	// Next update starts fresh.
	got, err := tr.Update(interval.MustNew(20, 21))
	if err != nil || !got.Equal(interval.MustNew(20, 21)) {
		t.Fatalf("restart = %v, %v", got, err)
	}
}

func TestReset(t *testing.T) {
	tr, _ := New(1)
	if _, err := tr.Update(interval.MustNew(0, 1)); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if tr.started || tr.Rounds() != 0 || tr.Clamps() != 0 {
		t.Fatal("reset incomplete")
	}
}

// Core guarantee: with truth drifting within the rate bound and fusion
// intervals always containing the truth, the track never loses the truth
// and is never wider than raw fusion.
func TestTruthRetentionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		maxRate := 0.1 + rng.Float64()*0.5
		tr, err := New(maxRate)
		if err != nil {
			t.Fatal(err)
		}
		truth := rng.Float64() * 10
		for round := 0; round < 200; round++ {
			truth += (rng.Float64()*2 - 1) * maxRate
			// A fusion interval containing the truth with random slop.
			lo := truth - rng.Float64()*2
			hi := truth + rng.Float64()*2
			fused := interval.Interval{Lo: lo, Hi: hi}
			got, err := tr.Update(fused)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if !got.Contains(truth) {
				t.Fatalf("trial %d round %d: track %v lost truth %v", trial, round, got, truth)
			}
			if got.Width() > fused.Width()+1e-9 {
				t.Fatalf("trial %d round %d: track %v wider than fusion %v", trial, round, got, fused)
			}
		}
	}
}

// Integration: the tracker blunts an attack that inflates per-round
// fusion intervals. Descending schedule, attacked precise sensor — the
// tracked interval is strictly tighter than raw fusion on average.
func TestTrackerBluntsAttack(t *testing.T) {
	widths := []float64{0.2, 0.2, 1, 2}
	sched, err := schedule.NewDescending(widths)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewSimulator(sim.Setup{
		Widths: widths, F: 1, Targets: []int{0},
		Scheduler: sched, Strategy: attack.NewOptimal(), Step: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const maxRate = 0.05
	tr, err := New(maxRate)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	truth := 10.0
	var fusedSum, trackSum float64
	rounds := 0
	for round := 0; round < 150; round++ {
		truth += (rng.Float64()*2 - 1) * maxRate
		correct := make([]interval.Interval, len(widths))
		for k, w := range widths {
			off := (rng.Float64() - 0.5) * w
			correct[k] = interval.MustCentered(truth+off, w)
		}
		res, err := s.Round(correct)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Update(res.Fused)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !got.Contains(truth) {
			t.Fatalf("round %d: track %v lost truth %v", round, got, truth)
		}
		fusedSum += res.Fused.Width()
		trackSum += got.Width()
		rounds++
	}
	meanFused := fusedSum / float64(rounds)
	meanTrack := trackSum / float64(rounds)
	if meanTrack >= meanFused*0.9 {
		t.Fatalf("tracking barely helped: track %.3f vs fused %.3f", meanTrack, meanFused)
	}
	if tr.Clamps() == 0 {
		t.Fatal("the prediction never clamped anything — test is vacuous")
	}
}

// The controller is never worse off: tracked intervals are subsets of
// raw fusion intervals round by round (given consistency).
func TestTrackSubsetOfFusionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	widths := []float64{1, 2, 3}
	f := fusion.SafeFaultBound(len(widths))
	tr, err := New(0.2)
	if err != nil {
		t.Fatal(err)
	}
	truth := 0.0
	for round := 0; round < 300; round++ {
		truth += (rng.Float64()*2 - 1) * 0.2
		ivs := make([]interval.Interval, len(widths))
		for k, w := range widths {
			off := (rng.Float64() - 0.5) * w
			ivs[k] = interval.MustCentered(truth+off, w)
		}
		fused, err := fusion.Fuse(ivs, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Update(fused)
		if err != nil {
			t.Fatal(err)
		}
		if !fused.ContainsInterval(got) {
			t.Fatalf("round %d: track %v not inside fusion %v", round, got, fused)
		}
	}
}
