package main

import (
	"bufio"
	"encoding/json"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the run's root span
	Run    string `json:"run"`    // one id per workload run
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// ledger keeps every span of one traced run in memory; write stores them
// once, at exit. It is safe for concurrent use (engine tasks record spans
// from worker goroutines).
type ledger struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newLedger(run string) *ledger { return &ledger{run: run, epoch: time.Now()} }

// begin opens a span under parent and returns its id; end closes it.
func (l *ledger) begin(name string, parent int) int {
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Run: l.run, Name: name, Start: now})
	return len(l.spans)
}

func (l *ledger) end(id int) {
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
}

// do records fn as one span named name under parent.
func (l *ledger) do(name string, parent int, fn func(id int) error) error {
	id := l.begin(name, parent)
	defer l.end(id)
	return fn(id)
}

// write stores the spans as JSON lines.
func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums, per span name, the total duration and the self time:
// each span's duration minus the part of its interval its child spans
// cover (children may overlap when they run on concurrent workers).
func (l *ledger) layerTimes() (total, self map[string]time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range l.spans {
		total[s.Name] += s.dur()
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return total, self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// hist is a log-linear latency histogram: exact below 2048 ns, then 1024
// sub-buckets per power of two (0.1% resolution), so percentiles keep
// their measured digits without storing every sample.
type hist struct {
	n      uint64
	counts []uint64
}

const histBuckets = 2048 + 54*1024

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func histBucket(v uint64) int {
	if v < 2048 {
		return int(v)
	}
	shift := bits.Len64(v) - 11 // v>>shift is in [1024, 2048)
	return 2048 + (shift-1)*1024 + int(v>>shift) - 1024
}

func histValue(b int) float64 {
	if b < 2048 {
		return float64(b)
	}
	b -= 2048
	shift := b/1024 + 1
	return (float64(b%1024+1024) + 0.5) * float64(uint64(1)<<shift)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return histValue(b)
		}
	}
	return histValue(len(h.counts) - 1)
}

// histSet hands out one histogram per concurrent user so hot-path
// recording never contends, and merges them at the end.
type histSet struct {
	mu   sync.Mutex
	all  []*hist
	free []*hist
}

func (s *histSet) get() *hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	h := newHist()
	s.all = append(s.all, h)
	return h
}

func (s *histSet) put(h *hist) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = append(s.free, h)
}

func (s *histSet) merged() *hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := newHist()
	for _, h := range s.all {
		out.merge(h)
	}
	return out
}
