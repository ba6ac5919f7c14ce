// Package sensor models the abstract sensors of the paper: devices that
// measure a shared physical variable and whose measurements are converted
// by the controller to intervals guaranteed to contain the true value.
//
// The interval width is fixed a priori from the manufacturer's precision
// guarantee delta (an interval of size 2*delta centered at the
// measurement) further enlarged by worst-case sampling-jitter and
// implementation terms, exactly as Section II-B prescribes. Widths are the
// only information about sensors available to the scheduler.
package sensor

import (
	"errors"
	"fmt"
	"math/rand"

	"sensorfusion/internal/interval"
)

// Spec describes one sensor's static accuracy characteristics.
type Spec struct {
	// Name identifies the sensor in schedules and reports.
	Name string
	// Precision is the manufacturer guarantee delta: the measurement is
	// within +/- Precision of the true value.
	Precision float64
	// JitterFrac enlarges the interval by a relative worst-case
	// sampling-jitter term: the half-width grows by JitterFrac times the
	// magnitude of the measured value. Zero for sensors whose error is
	// purely additive.
	JitterFrac float64
	// Trusted marks sensors the system believes cannot be spoofed (e.g.
	// an IMU, Section IV-C); schedules may place them last.
	Trusted bool
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return errors.New("sensor: spec needs a name")
	}
	if s.Precision < 0 || s.JitterFrac < 0 {
		return fmt.Errorf("sensor %q: negative accuracy terms", s.Name)
	}
	if s.Precision == 0 && s.JitterFrac == 0 {
		return fmt.Errorf("sensor %q: zero-width sensor", s.Name)
	}
	return nil
}

// HalfWidth returns the interval half-width for a measurement of the
// given magnitude: Precision + JitterFrac*|value|.
func (s Spec) HalfWidth(value float64) float64 {
	v := value
	if v < 0 {
		v = -v
	}
	return s.Precision + s.JitterFrac*v
}

// Width returns the full interval width at the given operating value. For
// schedule construction the paper uses widths at the nominal operating
// point (the width is "known and fixed").
func (s Spec) Width(value float64) float64 { return 2 * s.HalfWidth(value) }

// Measure draws a bounded-noise measurement of the true value: uniform in
// [truth-h, truth+h] with h the half-width at the truth. The returned
// interval is then guaranteed to contain the truth (the sensor is
// correct in the paper's sense).
func (s Spec) Measure(truth float64, rng *rand.Rand) (float64, interval.Interval) {
	h := s.HalfWidth(truth)
	m := truth + (rng.Float64()*2-1)*h
	// Build the interval with the half-width at the truth's magnitude so
	// correctness (truth containment) is guaranteed even for jittery
	// sensors; using the measurement's magnitude could shave the edge.
	iv := interval.Interval{Lo: m - h, Hi: m + h}
	return m, iv
}

// GPS returns the case study's GPS speed sensor: empirically determined
// interval size of 1 mph (half-width 0.5).
func GPS() Spec { return Spec{Name: "gps", Precision: 0.5} }

// Camera returns the case study's camera speed estimator: empirically
// determined interval size of 2 mph (half-width 1.0).
func Camera() Spec { return Spec{Name: "camera", Precision: 1.0} }

// Encoder returns a wheel-encoder speed sensor following the case study's
// construction: 192 cycles per revolution, 0.5% measuring error and 0.05%
// sampling-jitter error, giving a final interval length of 0.2 mph at the
// 10 mph operating point. The name distinguishes multiple encoders.
func Encoder(name string) Spec {
	return EncoderDetailed(name, 192, 0.005, 0.0005, 10)
}

// EncoderDetailed derives an encoder spec from first principles: an
// encoder with the given cycles per revolution, relative measuring error
// and relative sampling-jitter error, linearized at the nominal operating
// speed. The quantization term is folded into the additive precision; the
// relative error terms are scaled by the operating speed so the total
// interval length at the operating point matches the data-sheet
// construction in the paper (0.2 mph for the default parameters).
func EncoderDetailed(name string, cyclesPerRev int, measuringErr, jitterErr, nominalSpeed float64) Spec {
	if cyclesPerRev <= 0 {
		cyclesPerRev = 1
	}
	// Quantization half-width: one cycle out of cyclesPerRev at nominal
	// speed, a second-order term for realistic encoders.
	quant := nominalSpeed / float64(cyclesPerRev) / 2
	halfWidth := (measuringErr+jitterErr)*nominalSpeed + quant
	// The paper reports a final interval LENGTH of 0.2 mph for these
	// parameters; with 192 cycles/rev, 0.5%+0.05% at 10 mph:
	// (0.0055*10 + 10/192/2)*2 = 0.162 ~ 0.2 after conservative rounding.
	// We round the half-width up to one decimal to match the data sheet.
	halfWidth = roundUp1(halfWidth)
	return Spec{Name: name, Precision: halfWidth}
}

func roundUp1(x float64) float64 {
	scaled := x * 10
	r := float64(int(scaled))
	if r < scaled {
		r++
	}
	return r / 10
}

// IMU returns a trusted inertial sensor (Section IV-C notes an IMU is much
// harder to spoof); width chosen between encoder and GPS.
func IMU() Spec { return Spec{Name: "imu", Precision: 0.25, Trusted: true} }

// LandSharkSuite returns the four-sensor suite of the case study:
// two encoders (0.2 mph), GPS (1 mph), camera (2 mph).
func LandSharkSuite() []Spec {
	return []Spec{
		Encoder("encoder-left"),
		Encoder("encoder-right"),
		GPS(),
		Camera(),
	}
}

// Suite is an ordered collection of sensor specs.
type Suite []Spec

// Validate checks every spec and name uniqueness.
func (su Suite) Validate() error {
	seen := make(map[string]bool, len(su))
	for _, s := range su {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("sensor: duplicate name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Widths returns the interval widths of the suite at the nominal value.
func (su Suite) Widths(nominal float64) []float64 {
	ws := make([]float64, len(su))
	for k, s := range su {
		ws[k] = s.Width(nominal)
	}
	return ws
}

// MeasureAll draws one measurement interval per sensor for the given true
// value.
func (su Suite) MeasureAll(truth float64, rng *rand.Rand) []interval.Interval {
	ivs := make([]interval.Interval, len(su))
	for k, s := range su {
		_, ivs[k] = s.Measure(truth, rng)
	}
	return ivs
}
