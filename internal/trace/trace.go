// Package trace records fusion rounds as JSON Lines and replays them for
// offline analysis. It reproduces no specific figure; it is the
// flight-recorder the paper's experimental setup implies — the raw
// per-round data behind plots like Figs. 4-5 — turned into a durable,
// replayable artifact. A trace captures everything the controller saw — the
// transmission order, the intervals on the bus, the fusion interval, the
// detector verdicts — so post-mortems (which sensor misbehaved? when did
// the safety band break?) can run without re-simulating.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sensorfusion/internal/interval"
)

// Record is one fusion round as written to a trace.
type Record struct {
	// Round is the 1-based round number within the trace.
	Round int `json:"round"`
	// Order is the slot order used (Order[s] = sensor in slot s).
	Order []int `json:"order,omitempty"`
	// Intervals are the received intervals, indexed by sensor, each as
	// [lo, hi].
	Intervals [][2]float64 `json:"intervals"`
	// F is the fusion fault bound used.
	F int `json:"f"`
	// Fused is the fusion interval as [lo, hi].
	Fused [2]float64 `json:"fused"`
	// Suspects are the sensors flagged by the detector.
	Suspects []int `json:"suspects,omitempty"`
	// Truth optionally records the simulated true value (NaN-free traces
	// only; omitted when unknown).
	Truth *float64 `json:"truth,omitempty"`
}

// FromRound builds a Record from raw round data.
func FromRound(round int, order []int, ivs []interval.Interval, f int, fused interval.Interval, suspects []int, truth *float64) Record {
	r := Record{
		Round: round,
		Order: append([]int(nil), order...),
		F:     f,
		Fused: [2]float64{fused.Lo, fused.Hi},
	}
	for _, iv := range ivs {
		r.Intervals = append(r.Intervals, [2]float64{iv.Lo, iv.Hi})
	}
	r.Suspects = append([]int(nil), suspects...)
	if truth != nil {
		v := *truth
		r.Truth = &v
	}
	return r
}

// FusedInterval returns the recorded fusion interval.
func (r Record) FusedInterval() (interval.Interval, error) {
	return interval.New(r.Fused[0], r.Fused[1])
}

// Writer streams records as JSON Lines.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	if err := tw.enc.Encode(r); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	tw.n++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() int { return tw.n }

// Flush flushes buffered output; call before closing the underlying
// file.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader streams records back.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{sc: sc}
}

// Next returns the next record, or io.EOF when the trace is exhausted.
func (tr *Reader) Next() (Record, error) {
	for tr.sc.Scan() {
		tr.line++
		raw := tr.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", tr.line, err)
		}
		return r, nil
	}
	if err := tr.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("trace: scan: %w", err)
	}
	return Record{}, io.EOF
}

// ReadAll drains the reader.
func ReadAll(r io.Reader) ([]Record, error) {
	tr := NewReader(r)
	var out []Record
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Summary aggregates a trace for post-mortem reporting.
type Summary struct {
	Rounds      int
	Suspects    map[int]int // sensor -> times flagged
	MeanWidth   float64
	MaxWidth    float64
	TruthLosses int // rounds where the recorded truth fell outside fusion
}

// Summarize scans records into a Summary.
func Summarize(recs []Record) (Summary, error) {
	s := Summary{Suspects: make(map[int]int)}
	var widthSum float64
	for _, r := range recs {
		fused, err := r.FusedInterval()
		if err != nil {
			return Summary{}, fmt.Errorf("trace: round %d: %w", r.Round, err)
		}
		s.Rounds++
		w := fused.Width()
		widthSum += w
		if w > s.MaxWidth {
			s.MaxWidth = w
		}
		for _, k := range r.Suspects {
			s.Suspects[k]++
		}
		if r.Truth != nil && !fused.Contains(*r.Truth) {
			s.TruthLosses++
		}
	}
	if s.Rounds > 0 {
		s.MeanWidth = widthSum / float64(s.Rounds)
	}
	return s, nil
}
