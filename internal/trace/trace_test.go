package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"sensorfusion/internal/fusion"
	"sensorfusion/internal/interval"
)

func sampleRecord(round int) Record {
	truth := 10.0
	return FromRound(
		round,
		[]int{1, 0, 2},
		[]interval.Interval{
			interval.MustNew(9.9, 10.1),
			interval.MustNew(9.6, 10.6),
			interval.MustNew(9.4, 11.4),
		},
		1,
		interval.MustNew(9.9, 10.1),
		nil,
		&truth,
	)
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for round := 1; round <= 3; round++ {
		if err := w.Write(sampleRecord(round)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records", len(recs))
	}
	r := recs[0]
	if r.Round != 1 || r.F != 1 || len(r.Intervals) != 3 {
		t.Fatalf("record = %+v", r)
	}
	iv, err := r.IntervalAt(1)
	if err != nil || !iv.Equal(interval.MustNew(9.6, 10.6)) {
		t.Fatalf("IntervalAt = %v, %v", iv, err)
	}
	fused, err := r.FusedInterval()
	if err != nil || !fused.Equal(interval.MustNew(9.9, 10.1)) {
		t.Fatalf("Fused = %v, %v", fused, err)
	}
	if r.Truth == nil || *r.Truth != 10 {
		t.Fatalf("truth = %v", r.Truth)
	}
	if len(r.Order) != 3 || r.Order[0] != 1 {
		t.Fatalf("order = %v", r.Order)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	input := `{"round":1,"intervals":[[0,1]],"f":0,"fused":[0,1]}

{"round":2,"intervals":[[2,3]],"f":0,"fused":[2,3]}
`
	recs, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Round != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestReaderBadJSON(t *testing.T) {
	_, err := ReadAll(strings.NewReader("{not json}\n"))
	if err == nil {
		t.Fatal("malformed line must fail")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error should cite the line: %v", err)
	}
}

func TestNextEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestIntervalAtBounds(t *testing.T) {
	r := sampleRecord(1)
	if _, err := r.IntervalAt(-1); err == nil {
		t.Error("negative index must fail")
	}
	if _, err := r.IntervalAt(3); err == nil {
		t.Error("out-of-range index must fail")
	}
}

func TestSummarize(t *testing.T) {
	truthIn := 10.0
	truthOut := 50.0
	recs := []Record{
		FromRound(1, nil, []interval.Interval{interval.MustNew(9, 11)}, 0,
			interval.MustNew(9, 11), []int{2}, &truthIn),
		FromRound(2, nil, []interval.Interval{interval.MustNew(9, 10)}, 0,
			interval.MustNew(9, 10), []int{2, 3}, &truthOut),
	}
	s, err := Summarize(recs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds != 2 {
		t.Fatalf("rounds = %d", s.Rounds)
	}
	if s.Suspects[2] != 2 || s.Suspects[3] != 1 {
		t.Fatalf("suspects = %v", s.Suspects)
	}
	if s.MeanWidth != 1.5 || s.MaxWidth != 2 {
		t.Fatalf("widths = %v/%v", s.MeanWidth, s.MaxWidth)
	}
	if s.TruthLosses != 1 {
		t.Fatalf("truth losses = %d", s.TruthLosses)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s, err := Summarize(nil)
	if err != nil || s.Rounds != 0 || s.MeanWidth != 0 {
		t.Fatalf("empty summary = %+v, %v", s, err)
	}
}

func TestSummarizeBadRecord(t *testing.T) {
	recs := []Record{{Round: 1, Fused: [2]float64{2, 1}}}
	if _, err := Summarize(recs); err == nil {
		t.Fatal("inverted fused interval must fail")
	}
}

// Replay fidelity: re-running fusion on the recorded intervals
// reproduces the recorded fusion interval.
func TestReplayReproducesFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n, f = 4, 1
	for round := 1; round <= 100; round++ {
		ivs := make([]interval.Interval, n)
		for k := range ivs {
			width := 0.5 + rng.Float64()*3
			off := (rng.Float64() - 0.5) * width
			ivs[k] = interval.MustCentered(off, width)
		}
		fused, suspects, err := fusion.FuseAndDetect(ivs, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(FromRound(round, nil, ivs, f, fused, suspects, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		ivs := make([]interval.Interval, len(r.Intervals))
		for k := range ivs {
			iv, err := r.IntervalAt(k)
			if err != nil {
				t.Fatal(err)
			}
			ivs[k] = iv
		}
		refused, err := fusion.Fuse(ivs, r.F)
		if err != nil {
			t.Fatal(err)
		}
		recorded, err := r.FusedInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !refused.ApproxEqual(recorded, 1e-12) {
			t.Fatalf("round %d: replay %v != recorded %v", r.Round, refused, recorded)
		}
	}
}

// IntervalAt returns sensor k's interval.
func (r Record) IntervalAt(k int) (interval.Interval, error) {
	if k < 0 || k >= len(r.Intervals) {
		return interval.Interval{}, fmt.Errorf("trace: sensor %d out of range", k)
	}
	return interval.New(r.Intervals[k][0], r.Intervals[k][1])
}
