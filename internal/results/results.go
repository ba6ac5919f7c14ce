// Package results is the typed, streaming results layer of the
// experiment pipeline. Every generator in internal/experiments emits its
// output as a stream of Records through a Sink; the CLI, the shard/merge
// workflow, and the result cache all speak this one representation
// instead of generator-specific row slices and opaque report strings.
//
// # Determinism
//
// A Record's serialized forms are pure functions of its fields: the
// JSONL encoder hand-rolls a fixed field order with shortest-float
// formatting, so serialize -> parse -> serialize is byte-identical. The
// Reorder sink restores task-index order for records arriving from
// concurrent workers or from per-shard files, which extends the campaign
// engine's worker-count-invariance contract to streamed output: a
// streamed run, and the merge of any m-way sharded run, are byte-for-byte
// the serial output.
package results

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"sensorfusion/internal/chaos"
	"sensorfusion/internal/render"
)

// Metric is one named numeric quantity of a Record. Integral counters
// are carried as exact float64s (every count in the pipeline is far
// below 2^53).
type Metric struct {
	Key string
	Val float64
}

// Record is one typed result of an experiment generator: a Table I row,
// a Table II schedule column, one campaign configuration, one figure,
// one attacker strategy.
type Record struct {
	// Kind names the generator: "table1", "table2", "campaign",
	// "figures", "strategies".
	Kind string
	// Index is the record's position in the generator's deterministic
	// enumeration. Sharded campaign runs keep the GLOBAL enumeration
	// index so merged shards reassemble exactly.
	Index int
	// Config is the human-readable configuration label.
	Config string
	// Digest content-addresses the record's inputs: a Digest() of the
	// canonical (generator, config, options, seed) string. The result
	// cache uses it as the storage key.
	Digest string
	// Seed is the root seed the record was produced under.
	Seed int64
	// Metrics are the measured quantities, in a fixed per-kind order.
	Metrics []Metric
}

// Equal reports whether two records are identical field-for-field,
// including metric order (serialized forms are pure functions of the
// fields, so Equal records serialize to identical bytes). The
// coordinator uses it to verify that a retried shard reproduced exactly
// the records a killed attempt had already streamed — any divergence is
// a determinism bug worth failing loudly on.
func (r Record) Equal(o Record) bool {
	if r.Kind != o.Kind || r.Index != o.Index || r.Config != o.Config ||
		r.Digest != o.Digest || r.Seed != o.Seed || len(r.Metrics) != len(o.Metrics) {
		return false
	}
	for k, m := range r.Metrics {
		if m != o.Metrics[k] {
			return false
		}
	}
	return true
}

// Metric returns the value of the named metric.
func (r Record) Metric(key string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Key == key {
			return m.Val, true
		}
	}
	return 0, false
}

// appendMetricValue formats a metric value canonically: integral values
// below 2^53 print as plain integers (counters stay readable), anything
// else uses Go's shortest round-trippable float form. The choice is a
// pure function of the value, so parse -> re-serialize is byte-stable.
func appendMetricValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// formatMetricValue is appendMetricValue's string form.
func formatMetricValue(v float64) string {
	return string(appendMetricValue(nil, v))
}

// FormatMetric renders a metric value in the canonical form the JSONL
// encoder uses (integral values as plain integers, others shortest
// round-trippable) — for reports that quote metrics and must match the
// serialized stream byte-for-byte.
func FormatMetric(v float64) string { return formatMetricValue(v) }

// Digest content-addresses a canonical input description: the first 16
// hex digits of its SHA-256. Canonical strings must include every knob
// that can change the result (config, options, seed) and none that
// cannot (worker count, progress hooks).
func Digest(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:8])
}

// Sink consumes a stream of records. Write is called once per record;
// Flush signals the end of the stream (buffering sinks render or
// validate there). Sinks are not safe for concurrent use unless
// documented otherwise — concurrent producers go through Reorder.
type Sink interface {
	Write(rec Record) error
	Flush() error
}

// --- JSONL --------------------------------------------------------------

// JSONL streams records as one JSON object per line with a fixed field
// order. Write performs zero heap allocations per record once its
// internal buffer has warmed up (BenchmarkResultsSink pins this), so the
// sink adds nothing to the campaign hot path.
type JSONL struct {
	w   io.Writer
	buf []byte
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Write serializes one record as a JSON line.
func (s *JSONL) Write(rec Record) error {
	b, err := appendRecordJSON(s.buf[:0], rec)
	if err != nil {
		return err
	}
	s.buf = append(b, '\n')
	_, err = s.w.Write(s.buf)
	return err
}

// Flush is a no-op: every Write emits a complete line.
func (s *JSONL) Flush() error { return nil }

func appendRecordJSON(b []byte, rec Record) ([]byte, error) {
	b = append(b, `{"kind":`...)
	b = appendJSONString(b, rec.Kind)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	b = append(b, `,"config":`...)
	b = appendJSONString(b, rec.Config)
	b = append(b, `,"digest":`...)
	b = appendJSONString(b, rec.Digest)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, rec.Seed, 10)
	b = append(b, `,"metrics":{`...)
	for k, m := range rec.Metrics {
		if math.IsNaN(m.Val) || math.IsInf(m.Val, 0) {
			return nil, fmt.Errorf("results: metric %q of record %d is %v, not JSON-representable", m.Key, rec.Index, m.Val)
		}
		if k > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, m.Key)
		b = append(b, ':')
		b = appendMetricValue(b, m.Val)
	}
	b = append(b, '}', '}')
	return b, nil
}

// appendJSONString appends s as a JSON string literal. Only the escapes
// the JSON grammar requires are emitted, keeping the encoding canonical.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		default:
			b = append(b, []byte(fmt.Sprintf(`\u%04x`, c))...)
		}
	}
	return append(b, '"')
}

// --- CSV ----------------------------------------------------------------

// CSV streams records as comma-separated rows. The header row is derived
// from the first record's metric keys; every subsequent record must
// carry the same keys in the same order (a stream mixes one generator
// kind, so this holds by construction).
type CSV struct {
	w    io.Writer
	keys []string
	buf  []byte
}

// NewCSV returns a CSV sink writing to w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: w} }

// Write serializes one record as a CSV row, emitting the header first.
func (s *CSV) Write(rec Record) error {
	if s.keys == nil {
		s.keys = make([]string, 0, len(rec.Metrics))
		b := append(s.buf[:0], "kind,index,config,digest,seed"...)
		for _, m := range rec.Metrics {
			s.keys = append(s.keys, m.Key)
			b = append(b, ',')
			b = appendCSVField(b, m.Key)
		}
		b = append(b, '\n')
		if _, err := s.w.Write(b); err != nil {
			return err
		}
	}
	if len(rec.Metrics) != len(s.keys) {
		return fmt.Errorf("results: record %d has %d metrics, header has %d", rec.Index, len(rec.Metrics), len(s.keys))
	}
	b := s.buf[:0]
	b = appendCSVField(b, rec.Kind)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	b = append(b, ',')
	b = appendCSVField(b, rec.Config)
	b = append(b, ',')
	b = appendCSVField(b, rec.Digest)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.Seed, 10)
	for k, m := range rec.Metrics {
		if m.Key != s.keys[k] {
			return fmt.Errorf("results: record %d metric %d is %q, header says %q", rec.Index, k, m.Key, s.keys[k])
		}
		b = append(b, ',')
		b = appendMetricValue(b, m.Val)
	}
	b = append(b, '\n')
	s.buf = b
	_, err := s.w.Write(b)
	return err
}

// Flush is a no-op: every Write emits a complete row.
func (s *CSV) Flush() error { return nil }

func appendCSVField(b []byte, s string) []byte {
	if !bytes.ContainsAny([]byte(s), ",\"\n\r") {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"', '"')
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, '"')
}

// --- Aligned table ------------------------------------------------------

// TableSink buffers records and renders them at Flush as an aligned text
// table (column widths need the whole stream, so this sink cannot
// stream). The header mirrors the CSV layout.
type TableSink struct {
	w        io.Writer
	keys     []string
	t        render.Table
	rendered bool
}

// NewTable returns a table sink writing its rendered table to w at
// Flush.
func NewTable(w io.Writer) *TableSink { return &TableSink{w: w} }

// Write buffers one record as a table row.
func (s *TableSink) Write(rec Record) error {
	if s.keys == nil {
		s.keys = make([]string, 0, len(rec.Metrics))
		s.t.Header = []string{"kind", "index", "config", "digest", "seed"}
		for _, m := range rec.Metrics {
			s.keys = append(s.keys, m.Key)
			s.t.Header = append(s.t.Header, m.Key)
		}
	}
	if len(rec.Metrics) != len(s.keys) {
		return fmt.Errorf("results: record %d has %d metrics, header has %d", rec.Index, len(rec.Metrics), len(s.keys))
	}
	row := []string{rec.Kind, strconv.Itoa(rec.Index), rec.Config, rec.Digest, strconv.FormatInt(rec.Seed, 10)}
	for k, m := range rec.Metrics {
		if m.Key != s.keys[k] {
			return fmt.Errorf("results: record %d metric %d is %q, header says %q", rec.Index, k, m.Key, s.keys[k])
		}
		row = append(row, formatMetricValue(m.Val))
	}
	s.t.AddRow(row...)
	return nil
}

// Flush renders the buffered table. Further flushes are no-ops, so a
// sink stack (Reorder flushing through to the table, then the stream
// owner flushing again) renders exactly once.
func (s *TableSink) Flush() error {
	if s.rendered {
		return nil
	}
	s.rendered = true
	_, err := io.WriteString(s.w, s.t.String())
	return err
}

// --- Collector ----------------------------------------------------------

// Collector buffers records in memory, the adapter between the streaming
// pipeline and slice-returning callers (and the test suite).
type Collector struct {
	Records []Record
}

// Write appends the record.
func (c *Collector) Write(rec Record) error {
	c.Records = append(c.Records, rec)
	return nil
}

// Flush is a no-op.
func (c *Collector) Flush() error { return nil }

// --- Order restoration --------------------------------------------------

// Reorder restores index order for records arriving out of order: from
// concurrent workers writing as they finish, or from per-shard files
// interleaved by the merge subcommand. Records are held until every
// lower index has been written, then released to the wrapped sink in
// strictly increasing order starting at Base. Reorder is safe for
// concurrent Write calls; the wrapped sink only ever sees the serial
// order, which keeps streamed output byte-identical to a serial run for
// any worker count or shard interleaving.
//
// A Reorder built with NewReorder buffers every out-of-order record in
// memory. NewReorderWindow bounds that buffer: records arriving more
// than window positions ahead of the next expected index are spilled to
// temporary bucket files and reloaded when the window reaches them, so
// peak memory is O(window) records regardless of how many records the
// stream holds or how adversarially they arrive.
type Reorder struct {
	mu      sync.Mutex
	next    Sink
	base    int
	expect  int
	pending map[int]Record

	// Bounded-window state (window == 0 means unbounded, no spilling).
	window    int
	spillDir  string
	ownsSpill bool
	fs        chaos.FS
	buckets   map[int]spillBucket
	buf       []byte
	spilled   int64
	maxHeld   int
}

// spillBucket is one bucket's append-only spill file plus a bitset of
// the window offsets already spilled into it, so a duplicate index is
// rejected at APPEND time — when the offending writer is still
// identifiable — instead of surfacing only when the bucket reloads.
type spillBucket struct {
	file chaos.File
	seen []uint64
}

// NewReorder returns a reordering wrapper around next that expects the
// record indices base, base+1, base+2, ... and buffers out-of-order
// records in memory without bound.
func NewReorder(next Sink, base int) *Reorder {
	return &Reorder{next: next, base: base, expect: base, pending: make(map[int]Record)}
}

// NewReorderWindow returns a bounded-memory reordering wrapper: records
// arriving at least window positions beyond the next expected index are
// appended to per-bucket spill files in spillDir (created on demand; ""
// selects a private temp directory) instead of held in memory, and are
// reloaded when the release point reaches their bucket. At most
// 2*window records are ever held in memory — the in-window pending set
// plus one freshly loaded bucket — so merging a larger-than-memory
// record set is bounded by the window, not the set. window <= 0 means
// unbounded (identical to NewReorder). The released byte stream is
// identical to the unbounded reorder's for every arrival order.
func NewReorderWindow(next Sink, base, window int, spillDir string) *Reorder {
	return NewReorderWindowFS(next, base, window, spillDir, chaos.OS)
}

// NewReorderWindowFS is NewReorderWindow with the spill files routed
// through an explicit filesystem seam, so the chaos soak can inject
// write failures into the merge's spill path.
func NewReorderWindowFS(next Sink, base, window int, spillDir string, fsys chaos.FS) *Reorder {
	r := NewReorder(next, base)
	if window > 0 {
		r.window = window
		r.spillDir = spillDir
		r.fs = fsys
		r.buckets = make(map[int]spillBucket)
	}
	return r
}

// Spilled reports how many records were written to spill files so far —
// the merge memory-bound tests assert it is exactly the overflow of the
// configured window.
func (r *Reorder) Spilled() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spilled
}

// MaxHeld reports the high-water count of records held in memory at
// once.
func (r *Reorder) MaxHeld() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxHeld
}

// bucket maps a record index to its spill bucket: bucket b covers
// indices [base+b*window, base+(b+1)*window).
func (r *Reorder) bucket(index int) int { return (index - r.base) / r.window }

// spill appends the record to its bucket's spill file. Each bucket
// tracks which window offsets it already holds in a bitset, so a
// duplicate index is an error HERE — at append time, while the
// offending writer is on the stack — not a deferred surprise when the
// bucket reloads.
func (r *Reorder) spill(rec Record) error {
	if r.spillDir == "" {
		dir, err := os.MkdirTemp("", "reorder-spill-")
		if err != nil {
			return fmt.Errorf("results: create spill dir: %w", err)
		}
		r.spillDir, r.ownsSpill = dir, true
	}
	b := r.bucket(rec.Index)
	bk, ok := r.buckets[b]
	if !ok {
		if err := r.fs.MkdirAll(r.spillDir, 0o755); err != nil {
			return fmt.Errorf("results: spill dir: %w", err)
		}
		// Deterministic bucket names (one bucket, one file) let a
		// crashed merge's leftovers be identified by doctor and
		// truncated away by the next merge's O_TRUNC.
		f, err := r.fs.OpenFile(filepath.Join(r.spillDir, bucketName(b)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("results: open spill bucket: %w", err)
		}
		bk = spillBucket{file: f, seen: make([]uint64, (r.window+63)/64)}
		r.buckets[b] = bk
	}
	off := (rec.Index - r.base) - b*r.window
	if bk.seen[off/64]&(1<<(off%64)) != 0 {
		return fmt.Errorf("results: duplicate record index %d", rec.Index)
	}
	line, err := appendRecordJSON(r.buf[:0], rec)
	if err != nil {
		return err
	}
	r.buf = append(line, '\n')
	if _, err := bk.file.Write(r.buf); err != nil {
		return fmt.Errorf("results: write spill bucket: %w", err)
	}
	bk.seen[off/64] |= 1 << (off % 64)
	r.spilled++
	return nil
}

// bucketName is the deterministic spill file name for bucket b —
// shared with the doctor's orphaned-spill scan.
func bucketName(b int) string { return fmt.Sprintf("bucket-%06d.jsonl", b) }

// loadBucket moves one spill bucket's records into the pending set and
// removes the bucket file. The reload-time duplicate checks are kept as
// defense in depth (a corrupt or foreign bucket file), though the spill
// bitset rejects duplicates before they reach disk.
func (r *Reorder) loadBucket(b int) error {
	f := r.buckets[b].file
	delete(r.buckets, b)
	defer func() {
		name := f.Name()
		f.Close()
		r.fs.Remove(name)
	}()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("results: rewind spill bucket: %w", err)
	}
	rd := NewReader(f)
	rd.name = f.Name()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if rec.Index < r.expect {
			return fmt.Errorf("results: duplicate record index %d (already released)", rec.Index)
		}
		if _, dup := r.pending[rec.Index]; dup {
			return fmt.Errorf("results: duplicate record index %d", rec.Index)
		}
		r.pending[rec.Index] = rec
	}
}

// release hands the contiguous prefix to the wrapped sink, reloading
// spill buckets as the release point reaches them.
func (r *Reorder) release() error {
	for {
		next, ok := r.pending[r.expect]
		if !ok {
			if r.window > 0 {
				if _, spilled := r.buckets[r.bucket(r.expect)]; spilled {
					if err := r.loadBucket(r.bucket(r.expect)); err != nil {
						return err
					}
					if len(r.pending) > r.maxHeld {
						r.maxHeld = len(r.pending)
					}
					continue
				}
			}
			return nil
		}
		delete(r.pending, r.expect)
		if err := r.next.Write(next); err != nil {
			return err
		}
		r.expect++
	}
}

// Write buffers, spills, or releases the record depending on its index.
func (r *Reorder) Write(rec Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.Index < r.expect {
		return fmt.Errorf("results: duplicate record index %d (already released)", rec.Index)
	}
	if r.window > 0 && rec.Index >= r.expect+r.window {
		return r.spill(rec)
	}
	if _, dup := r.pending[rec.Index]; dup {
		return fmt.Errorf("results: duplicate record index %d", rec.Index)
	}
	r.pending[rec.Index] = rec
	if len(r.pending) > r.maxHeld {
		r.maxHeld = len(r.pending)
	}
	return r.release()
}

// cleanupSpill discards every remaining spill file (and the spill
// directory, when this Reorder created it).
func (r *Reorder) cleanupSpill() {
	for b, bk := range r.buckets {
		name := bk.file.Name()
		bk.file.Close()
		r.fs.Remove(name)
		delete(r.buckets, b)
	}
	if r.ownsSpill {
		os.Remove(r.spillDir)
	}
}

// Flush fails if the stream has gaps (a missing shard, a skipped task)
// and otherwise flushes the wrapped sink. Spill files are removed either
// way.
func (r *Reorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.cleanupSpill()
	if err := r.release(); err != nil {
		return err
	}
	if len(r.pending) > 0 || len(r.buckets) > 0 {
		held := make([]int, 0, len(r.pending))
		for idx := range r.pending {
			held = append(held, idx)
		}
		for b := range r.buckets {
			held = append(held, r.base+b*r.window)
		}
		sort.Ints(held)
		return fmt.Errorf("results: missing record for index %d (%d records held back, first %d)", r.expect, len(held), held[0])
	}
	return r.next.Flush()
}

// MergeInto reassembles record streams (concatenated shard files, in
// any order) into strictly increasing index order starting at 0 and
// writes them to sink, flushing it on success. Duplicate indices and
// interior gaps are errors. A missing TAIL is undetectable from the
// records alone (a contiguous prefix looks complete), so callers that
// know the expected record count must pass expect > 0 to close that
// hole; expect <= 0 skips the count check.
func MergeInto(recs []Record, sink Sink, expect int) error {
	if expect > 0 && len(recs) != expect {
		return fmt.Errorf("results: merge has %d records, expected %d (missing or extra shard data)", len(recs), expect)
	}
	reorder := NewReorder(sink, 0)
	for _, rec := range recs {
		if err := reorder.Write(rec); err != nil {
			return err
		}
	}
	return reorder.Flush()
}

// --- JSONL parsing ------------------------------------------------------

// ReadJSONL parses a stream previously written by the JSONL sink,
// preserving metric order so the records re-serialize byte-identically.
// Blank lines are skipped. The whole stream is materialized; callers
// that need bounded memory iterate a Reader instead.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var recs []Record
	rd := NewReader(r)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// recordFields are the serializer's exact field set; the parser demands
// all of them so a hand-edited or truncated-mid-object line cannot pass
// as a zero-valued record.
var recordFields = []string{"kind", "index", "config", "digest", "seed", "metrics"}

// ParseRecord parses one JSONL line into a Record. The parser is strict:
// unknown, duplicate, and MISSING fields are all errors (the JSONL sink
// always writes the full field set), so a corrupted shard file fails
// the merge instead of silently dropping data.
func ParseRecord(line []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var rec Record
	if err := expectDelim(dec, '{'); err != nil {
		return rec, err
	}
	seen := make(map[string]bool, len(recordFields))
	for dec.More() {
		key, err := decodeKey(dec)
		if err != nil {
			return rec, err
		}
		if seen[key] {
			return rec, fmt.Errorf("results: duplicate record field %q", key)
		}
		seen[key] = true
		switch key {
		case "kind":
			rec.Kind, err = decodeString(dec, key)
		case "config":
			rec.Config, err = decodeString(dec, key)
		case "digest":
			rec.Digest, err = decodeString(dec, key)
		case "index":
			var v int64
			v, err = decodeInt(dec, key)
			rec.Index = int(v)
		case "seed":
			rec.Seed, err = decodeInt(dec, key)
		case "metrics":
			err = decodeMetrics(dec, &rec)
		default:
			return rec, fmt.Errorf("results: unknown record field %q", key)
		}
		if err != nil {
			return rec, err
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return rec, err
	}
	// Anything after the closing brace means a corrupted line (e.g. two
	// records fused by a lost newline) — dropping it silently would lose
	// data the merge can never miss on its own.
	if tok, err := dec.Token(); err != io.EOF {
		return rec, fmt.Errorf("results: trailing data after record: %v (err %v)", tok, err)
	}
	for _, field := range recordFields {
		if !seen[field] {
			return rec, fmt.Errorf("results: record missing field %q", field)
		}
	}
	return rec, nil
}

func decodeMetrics(dec *json.Decoder, rec *Record) error {
	if err := expectDelim(dec, '{'); err != nil {
		return err
	}
	for dec.More() {
		key, err := decodeKey(dec)
		if err != nil {
			return err
		}
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		num, ok := tok.(json.Number)
		if !ok {
			return fmt.Errorf("results: metric %q: want number, got %v", key, tok)
		}
		v, err := strconv.ParseFloat(num.String(), 64)
		if err != nil {
			return fmt.Errorf("results: metric %q: %w", key, err)
		}
		rec.Metrics = append(rec.Metrics, Metric{Key: key, Val: v})
	}
	return expectDelim(dec, '}')
}

func expectDelim(dec *json.Decoder, want rune) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("results: malformed record: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || rune(d) != want {
		return fmt.Errorf("results: malformed record: want %q, got %v", want, tok)
	}
	return nil
}

func decodeKey(dec *json.Decoder) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", fmt.Errorf("results: malformed record: %w", err)
	}
	s, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("results: malformed record: want field name, got %v", tok)
	}
	return s, nil
}

func decodeString(dec *json.Decoder, key string) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", err
	}
	s, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("results: field %q: want string, got %v", key, tok)
	}
	return s, nil
}

func decodeInt(dec *json.Decoder, key string) (int64, error) {
	tok, err := dec.Token()
	if err != nil {
		return 0, err
	}
	num, ok := tok.(json.Number)
	if !ok {
		return 0, fmt.Errorf("results: field %q: want integer, got %v", key, tok)
	}
	return num.Int64()
}
