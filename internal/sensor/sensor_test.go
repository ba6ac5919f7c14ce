package sensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sensorfusion/internal/interval"
)

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"ok", Spec{Name: "a", Precision: 0.5}, false},
		{"jitter only", Spec{Name: "b", JitterFrac: 0.01}, false},
		{"no name", Spec{Precision: 1}, true},
		{"negative precision", Spec{Name: "c", Precision: -1}, true},
		{"negative jitter", Spec{Name: "d", Precision: 1, JitterFrac: -0.1}, true},
		{"zero width", Spec{Name: "e"}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestHalfWidth(t *testing.T) {
	s := Spec{Name: "x", Precision: 0.5, JitterFrac: 0.01}
	if got := s.HalfWidth(10); got != 0.6 {
		t.Fatalf("HalfWidth(10) = %v, want 0.6", got)
	}
	if got := s.HalfWidth(-10); got != 0.6 {
		t.Fatalf("HalfWidth(-10) = %v, want 0.6 (magnitude)", got)
	}
	if got := s.Width(10); got != 1.2 {
		t.Fatalf("Width(10) = %v, want 1.2", got)
	}
}

func TestIntervalFor(t *testing.T) {
	s := GPS()
	iv := s.IntervalFor(10)
	if iv.Lo != 9.5 || iv.Hi != 10.5 {
		t.Fatalf("GPS interval at 10 = %v, want [9.5, 10.5]", iv)
	}
	if iv.Width() != 1 {
		t.Fatalf("GPS width = %v, want 1 (paper: 1 mph)", iv.Width())
	}
}

func TestCaseStudyWidths(t *testing.T) {
	// Paper Section IV-B: GPS 1 mph, camera 2 mph, encoder 0.2 mph.
	if w := GPS().Width(10); w != 1 {
		t.Errorf("GPS width = %v, want 1", w)
	}
	if w := Camera().Width(10); w != 2 {
		t.Errorf("camera width = %v, want 2", w)
	}
	if w := Encoder("e").Width(10); w != 0.2 {
		t.Errorf("encoder width = %v, want 0.2", w)
	}
}

func TestEncoderDetailed(t *testing.T) {
	e := EncoderDetailed("enc", 192, 0.005, 0.0005, 10)
	if e.Precision != 0.1 {
		t.Fatalf("derived encoder half-width = %v, want 0.1 (0.2 mph interval)", e.Precision)
	}
	// Degenerate cycles guard.
	e2 := EncoderDetailed("enc2", 0, 0.005, 0.0005, 10)
	if e2.Precision <= 0 {
		t.Fatalf("guarded encoder must still have positive precision, got %v", e2.Precision)
	}
}

func TestMeasureCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := []Spec{GPS(), Camera(), Encoder("e"), IMU(), {Name: "jittery", Precision: 0.1, JitterFrac: 0.02}}
	for _, s := range specs {
		for trial := 0; trial < 200; trial++ {
			truth := rng.Float64()*20 - 5
			m, iv := s.Measure(truth, rng)
			if !iv.Contains(truth) {
				t.Fatalf("%s: interval %v does not contain truth %v", s.Name, iv, truth)
			}
			if !iv.Contains(m) {
				t.Fatalf("%s: interval %v does not contain measurement %v", s.Name, iv, m)
			}
		}
	}
}

func TestSuiteValidate(t *testing.T) {
	if err := Suite(LandSharkSuite()).Validate(); err != nil {
		t.Fatalf("LandShark suite invalid: %v", err)
	}
	dup := Suite{GPS(), GPS()}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate names must fail validation")
	}
	bad := Suite{{Name: "z"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-width sensor must fail validation")
	}
}

func TestSuiteWidths(t *testing.T) {
	su := Suite(LandSharkSuite())
	ws := su.Widths(10)
	want := []float64{0.2, 0.2, 1, 2}
	if len(ws) != len(want) {
		t.Fatalf("widths = %v", ws)
	}
	for k := range want {
		if ws[k] != want[k] {
			t.Fatalf("widths = %v, want %v", ws, want)
		}
	}
}

func TestSuiteMeasureAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	su := Suite(LandSharkSuite())
	ivs := su.MeasureAll(10, rng)
	if len(ivs) != 4 {
		t.Fatalf("len = %d", len(ivs))
	}
	for k, iv := range ivs {
		if !iv.Contains(10) {
			t.Fatalf("sensor %d interval %v misses the truth", k, iv)
		}
	}
}

func TestIMUTrusted(t *testing.T) {
	if !IMU().Trusted {
		t.Fatal("IMU must be marked trusted")
	}
	if GPS().Trusted || Camera().Trusted {
		t.Fatal("GPS/camera must not be trusted")
	}
}

// Property: measured intervals always contain both the truth and the
// measurement, for arbitrary specs and truths.
func TestQuickMeasureContainsTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(prec, jit, truth float64) bool {
		prec = clamp01(prec)*2 + 0.01
		jit = clamp01(jit) * 0.05
		truth = clampRange(truth, -100, 100)
		s := Spec{Name: "q", Precision: prec, JitterFrac: jit}
		m, iv := s.Measure(truth, rng)
		return iv.Contains(truth) && iv.Contains(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func clamp01(x float64) float64 {
	if x != x || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampRange(x, lo, hi float64) float64 {
	if x != x {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// IntervalFor converts a raw measurement into the sensor's abstract
// interval: centered at the measurement with the spec's half-width
// evaluated at the measurement itself.
func (s Spec) IntervalFor(measurement float64) interval.Interval {
	h := s.HalfWidth(measurement)
	return interval.Interval{Lo: measurement - h, Hi: measurement + h}
}
