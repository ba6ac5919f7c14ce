package results

// This file is the streaming half of the results layer: an incremental
// JSONL record reader with precise error positions, transparent gzip
// decompression, size-rotated compressed record sinks, and the bounded
// k-way file merge the coordinator and `repro merge` stream through.
// Together with the windowed Reorder these make campaigns larger than
// memory mergeable: no path here ever materializes a whole record set.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sensorfusion/internal/chaos"
)

// Reader parses a JSONL record stream incrementally: one record per
// Next call, so arbitrarily large files are read in constant memory.
// Parse errors carry the source name (when known) and 1-based line
// number of the offending record — a corrupt line fails fast at its
// position instead of after the whole file has been buffered.
type Reader struct {
	name    string
	sc      *bufio.Scanner
	line    int
	closers []io.Closer
}

// NewReader reads records from r. Error positions are reported as bare
// line numbers; use NewFileReader (or set a name with Named) to include
// the source name.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	return &Reader{sc: sc}
}

// Named sets the source name used in error positions and returns the
// reader.
func (r *Reader) Named(name string) *Reader {
	r.name = name
	return r
}

// NewFileReader opens path for incremental record reading,
// transparently decompressing gzip members when the name ends in ".gz".
// Close releases the underlying file.
func NewFileReader(path string) (*Reader, error) {
	return NewFileReaderFS(chaos.OS, path)
}

// NewFileReaderFS is NewFileReader with the open routed through an
// explicit filesystem seam, so fault injection can hit the read side of
// validation and merging.
func NewFileReaderFS(fsys chaos.FS, path string) (*Reader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	var src io.Reader = f
	closers := []io.Closer{f}
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		src = gz
		closers = []io.Closer{gz, f}
	}
	rd := NewReader(src).Named(path)
	rd.closers = closers
	return rd, nil
}

// Name returns the reader's source name ("" when reading a bare
// stream).
func (r *Reader) Name() string { return r.name }

// Line returns the 1-based line number of the most recently returned
// record.
func (r *Reader) Line() int { return r.line }

// errorf prefixes an error with the reader's position.
func (r *Reader) errorf(err error) error {
	if r.name != "" {
		return fmt.Errorf("%s:%d: %w", r.name, r.line, err)
	}
	return fmt.Errorf("line %d: %w", r.line, err)
}

// Next returns the next record, io.EOF at the end of the stream, or a
// position-annotated error for a corrupt line. Blank lines are skipped.
func (r *Reader) Next() (Record, error) {
	for r.sc.Scan() {
		r.line++
		raw := bytes.TrimSpace(r.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		rec, err := ParseRecord(raw)
		if err != nil {
			return Record{}, r.errorf(err)
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return Record{}, r.errorf(err)
	}
	return Record{}, io.EOF
}

// Close releases the reader's underlying file handles (a no-op for
// readers over bare streams).
func (r *Reader) Close() error {
	var first error
	for _, c := range r.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}

// --- Rotated, compressed record files -----------------------------------

// RotateOptions configures a RotatingJSONL sink.
type RotateOptions struct {
	// MaxBytes starts a new file once the current one holds at least
	// this many UNCOMPRESSED payload bytes (rotation happens only at
	// record boundaries, so every file is a valid JSONL stream).
	// <= 0 disables rotation: the whole stream goes to one file.
	MaxBytes int64
	// Compress gzips every file; file names gain a ".gz" suffix.
	Compress bool
}

// RotatingJSONL streams records across size-rotated, optionally
// gzip-compressed files: a base path "campaign.jsonl" with rotation
// produces campaign-0001.jsonl, campaign-0002.jsonl, ... (plus ".gz"
// when compressing). Concatenating the members in sequence order — or
// reading them with NewFileReader, which decompresses transparently —
// reproduces the exact byte stream a plain JSONL sink would have
// written, so rotation and compression never change record bytes, only
// their packaging. Files are published directly (not temp+renamed): a
// killed run leaves a readable prefix of complete files plus one
// truncated tail, exactly like a killed plain stream.
type RotatingJSONL struct {
	stem, ext string
	single    string // non-rotating destination ("" when rotating)
	opts      RotateOptions

	seq     int
	file    *os.File
	gz      *gzip.Writer
	bw      *bufio.Writer
	written int64 // uncompressed payload bytes in the current file
	files   []string
	buf     []byte
	closed  bool
}

// NewRotatingJSONL returns a rotating JSONL sink writing under the
// given base path (its extension is preserved; rotation inserts -NNNN
// before it).
func NewRotatingJSONL(path string, opts RotateOptions) *RotatingJSONL {
	ext := filepath.Ext(path)
	s := &RotatingJSONL{stem: strings.TrimSuffix(path, ext), ext: ext, opts: opts}
	if opts.MaxBytes <= 0 {
		s.single = path
		if opts.Compress && !strings.HasSuffix(path, ".gz") {
			s.single += ".gz"
		}
	}
	return s
}

// Files lists the files written so far, in rotation order.
func (s *RotatingJSONL) Files() []string { return s.files }

// nextName names the next file in the sequence.
func (s *RotatingJSONL) nextName() string {
	if s.single != "" {
		return s.single
	}
	name := fmt.Sprintf("%s-%04d%s", s.stem, s.seq+1, s.ext)
	if s.opts.Compress {
		name += ".gz"
	}
	return name
}

// open starts the next file.
func (s *RotatingJSONL) open() error {
	name := s.nextName()
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	s.file = f
	s.bw = bufio.NewWriter(f)
	if s.opts.Compress {
		s.gz = gzip.NewWriter(s.bw)
	}
	s.seq++
	s.written = 0
	s.files = append(s.files, name)
	return nil
}

// closeCurrent finishes the current file (flushing the gzip trailer).
func (s *RotatingJSONL) closeCurrent() error {
	if s.file == nil {
		return nil
	}
	var first error
	if s.gz != nil {
		first = s.gz.Close()
		s.gz = nil
	}
	if err := s.bw.Flush(); err != nil && first == nil {
		first = err
	}
	s.bw = nil
	if err := s.file.Close(); err != nil && first == nil {
		first = err
	}
	s.file = nil
	return first
}

// Write serializes one record, rotating first when the current file is
// full.
func (s *RotatingJSONL) Write(rec Record) error {
	if s.closed {
		return fmt.Errorf("results: write to flushed rotating sink")
	}
	line, err := appendRecordJSON(s.buf[:0], rec)
	if err != nil {
		return err
	}
	s.buf = append(line, '\n')
	if s.file != nil && s.opts.MaxBytes > 0 && s.written+int64(len(s.buf)) > s.opts.MaxBytes && s.written > 0 {
		if err := s.closeCurrent(); err != nil {
			return err
		}
	}
	if s.file == nil {
		if err := s.open(); err != nil {
			return err
		}
	}
	var w io.Writer = s.bw
	if s.gz != nil {
		w = s.gz
	}
	if _, err := w.Write(s.buf); err != nil {
		return err
	}
	s.written += int64(len(s.buf))
	return nil
}

// Flush finishes the current file. An empty stream still publishes one
// empty file, so downstream readers can distinguish "ran with zero
// records" from "never ran". Further writes are refused.
func (s *RotatingJSONL) Flush() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.file == nil {
		if err := s.open(); err != nil {
			return err
		}
	}
	return s.closeCurrent()
}

// --- Streaming file merge -----------------------------------------------

// MergeStats accounts for one streaming merge.
type MergeStats struct {
	// Records is the number of records released to the sink.
	Records int
	// Files is the number of input files read.
	Files int
	// Spilled counts records that overflowed the reorder window into
	// spill files; MaxHeld is the high-water in-memory record count.
	// Together they witness the memory bound: MaxHeld never exceeds
	// 2*window regardless of input size or arrival order.
	Spilled int64
	MaxHeld int
}

// MergeFiles streams the records of the given files (JSONL, gzipped
// when named *.gz) through a bounded reorder window into sink, in
// strictly increasing global index order starting at 0 — byte-identical
// to the serial stream the shards were cut from. Every file operation
// (shard reads, spill bucket writes) goes through fsys. Files are read
// incrementally and round-robin, so when each file is itself
// index-sorted (as shard files are) the interleaved feed stays close to
// global order and rarely overflows the window; arbitrary arrival
// orders remain correct through the spill path. A corrupt record fails
// the merge immediately with its file and line. Duplicate indices and
// interior gaps are errors; a missing TAIL is undetectable from the
// records alone, so callers that know the expected count pass
// expect > 0. window <= 0 merges unbounded in memory; spillDir "" uses
// a private temp directory. The sink is flushed on success.
func MergeFiles(fsys chaos.FS, paths []string, sink Sink, expect, window int, spillDir string) (MergeStats, error) {
	return mergeFiles(fsys, paths, sink, nil, expect, window, spillDir)
}

// MergeFilesIndexed is MergeFiles for a SPARSE global index set: the
// files must together hold exactly one record per index in indices
// (strictly increasing, not necessarily contiguous or starting at 0),
// and the merged stream reaches sink in indices order. Internally every
// record's global index is translated to its dense position in indices,
// reordered through the same bounded window MergeFiles uses, and
// restored before release — so the memory bound, spill path, and
// fail-fast corruption behavior are identical. A record whose index is
// not in indices is an error (foreign data in the shard files), as are
// duplicates and missing indices. This is the merge an incremental
// update's partial re-run streams through: its shard files cover only
// the invalidated index set, not [0, total).
func MergeFilesIndexed(fsys chaos.FS, paths []string, sink Sink, indices []int, window int, spillDir string) (MergeStats, error) {
	posOf := make(map[int]int, len(indices))
	last := -1
	for pos, idx := range indices {
		if idx <= last {
			return MergeStats{}, fmt.Errorf("results: merge index set not strictly increasing at %d", idx)
		}
		last = idx
		posOf[idx] = pos
	}
	return mergeFiles(fsys, paths, &indexRestoringSink{next: sink, indices: indices}, posOf, len(indices), window, spillDir)
}

// mergeFiles is the round-robin reader loop behind both merges. A nil
// posOf means dense indices; otherwise each record's index is replaced
// by its position in posOf (the reorder window only handles 0..n-1)
// and a record whose index is absent is foreign data.
func mergeFiles(fsys chaos.FS, paths []string, sink Sink, posOf map[int]int, expect, window int, spillDir string) (MergeStats, error) {
	stats := MergeStats{Files: len(paths)}
	counter := &countingSink{next: sink}
	reorder := NewReorderWindowFS(counter, 0, window, spillDir, fsys)
	finish := func(err error) (MergeStats, error) {
		stats.Spilled = reorder.Spilled()
		stats.MaxHeld = reorder.MaxHeld()
		stats.Records = counter.n
		return stats, err
	}
	readers := make([]*Reader, 0, len(paths))
	defer func() {
		for _, rd := range readers {
			rd.Close()
		}
	}()
	for _, path := range paths {
		rd, err := NewFileReaderFS(fsys, path)
		if err != nil {
			reorder.cleanup()
			return finish(err)
		}
		readers = append(readers, rd)
	}
	total := 0
	for len(readers) > 0 {
		live := readers[:0]
		for _, rd := range readers {
			rec, err := rd.Next()
			if err == io.EOF {
				rd.Close()
				continue
			}
			if err != nil {
				reorder.cleanup()
				return finish(err)
			}
			if posOf != nil {
				pos, ok := posOf[rec.Index]
				if !ok {
					reorder.cleanup()
					return finish(fmt.Errorf("%s:%d: results: record index %d is not in the merge's index set", rd.Name(), rd.Line(), rec.Index))
				}
				rec.Index = pos
			}
			total++
			if err := reorder.Write(rec); err != nil {
				reorder.cleanup()
				return finish(err)
			}
			live = append(live, rd)
		}
		readers = readers[:len(live)]
	}
	if expect > 0 && total != expect {
		reorder.cleanup()
		return finish(fmt.Errorf("results: merge has %d records, expected %d (missing or extra shard data)", total, expect))
	}
	return finish(reorder.Flush())
}

// indexRestoringSink undoes MergeFilesIndexed's dense-position
// translation: the reorder window releases records carrying positions
// 0..n-1; this restores each record's true global index before the
// caller's sink sees it.
type indexRestoringSink struct {
	next    Sink
	indices []int
}

func (s *indexRestoringSink) Write(rec Record) error {
	if rec.Index < 0 || rec.Index >= len(s.indices) {
		return fmt.Errorf("results: merge released position %d outside the %d-index set", rec.Index, len(s.indices))
	}
	rec.Index = s.indices[rec.Index]
	return s.next.Write(rec)
}

func (s *indexRestoringSink) Flush() error { return s.next.Flush() }

// cleanup discards a reorder's spill state on an abandoned merge.
func (r *Reorder) cleanup() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cleanupSpill()
}

// countingSink counts records passed through to the wrapped sink.
type countingSink struct {
	next Sink
	n    int
}

func (c *countingSink) Write(rec Record) error {
	if err := c.next.Write(rec); err != nil {
		return err
	}
	c.n++
	return nil
}

func (c *countingSink) Flush() error { return c.next.Flush() }

// RecordDigest content-addresses a record's canonical serialized form —
// the follow-merge deduplicator retains these 16-hex-digit digests
// instead of whole records, which bounds its memory at a few bytes per
// released record while still detecting any divergence between a
// re-read and the original.
func RecordDigest(rec Record) (string, error) {
	line, err := appendRecordJSON(nil, rec)
	if err != nil {
		return "", err
	}
	return Digest(string(line)), nil
}
