package results

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sensorfusion/internal/chaos"
)

// serialJSONL renders records 0..n-1 through a plain JSONL sink — the
// byte-stream reference every reorder and merge must reproduce.
func serialJSONL(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for i := 0; i < n; i++ {
		if err := sink.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// feed writes the records with the given indices through the reorder
// and flushes it.
func feed(t *testing.T, r *Reorder, indices []int) *bytes.Buffer {
	t.Helper()
	for _, i := range indices {
		if err := r.Write(sampleRecord(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	return nil
}

// TestReorderWindowAdversarialOrders drives the bounded window through
// the arrival orders that historically break reorder buffers: fully
// reversed, interleaved by shard stride, and a window-overflow order
// that forces the spill path. Output must match the serial stream
// byte-for-byte in every case, and memory must stay bounded by the
// window.
func TestReorderWindowAdversarialOrders(t *testing.T) {
	const n, window = 60, 8
	want := serialJSONL(t, n)

	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	byShard := make([]int, 0, n) // shard 0 fully, then shard 1, ... (stride 7)
	for s := 0; s < 7; s++ {
		for i := s; i < n; i += 7 {
			byShard = append(byShard, i)
		}
	}
	tailFirst := make([]int, 0, n) // the last window-multiple first
	for i := 48; i < n; i++ {
		tailFirst = append(tailFirst, i)
	}
	for i := 0; i < 48; i++ {
		tailFirst = append(tailFirst, i)
	}

	for name, order := range map[string][]int{
		"reversed": reversed, "interleaved-by-shard": byShard, "tail-first": tailFirst,
	} {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			r := NewReorderWindow(NewJSONL(&got), 0, window, t.TempDir())
			feed(t, r, order)
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("output differs from serial stream:\n%s", got.String())
			}
			if r.MaxHeld() > 2*window {
				t.Fatalf("held %d records in memory, window is %d (bound 2*window)", r.MaxHeld(), window)
			}
			if name != "interleaved-by-shard" && r.Spilled() == 0 {
				t.Fatalf("%s order should overflow a window of %d", name, window)
			}
		})
	}
}

// TestReorderWindowSpillAccounting pins the memory-bound contract on a
// shard-by-shard feed much larger than the window: everything beyond
// the window spills, nothing beyond 2*window is ever resident, and the
// spill directory is left empty afterwards.
func TestReorderWindowSpillAccounting(t *testing.T) {
	const n, window, stride = 200, 10, 4
	dir := t.TempDir()
	var got bytes.Buffer
	r := NewReorderWindow(NewJSONL(&got), 0, window, dir)
	for s := 0; s < stride; s++ {
		for i := s; i < n; i += stride {
			if err := r.Write(sampleRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), serialJSONL(t, n)) {
		t.Fatal("spilled merge differs from serial stream")
	}
	if r.Spilled() == 0 {
		t.Fatal("a stride feed over a small window must spill")
	}
	if r.MaxHeld() > 2*window {
		t.Fatalf("peak memory %d records exceeds 2*window=%d — the bound the window exists for", r.MaxHeld(), 2*window)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

// TestReorderWindowRejectsDuplicates: duplicate indices are rejected on
// every path — already released, pending, and spilled — and the spill
// duplicate is caught AT APPEND TIME, while the offending writer is
// still on the stack, not deferred to the bucket reload.
func TestReorderWindowRejectsDuplicates(t *testing.T) {
	r := NewReorderWindow(NewJSONL(io.Discard), 0, 4, t.TempDir())
	if err := r.Write(sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(sampleRecord(0)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("released duplicate accepted: %v", err)
	}
	if err := r.Write(sampleRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(sampleRecord(2)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("pending duplicate accepted: %v", err)
	}
	// Spill the same out-of-window index twice; the second append must
	// fail immediately.
	if err := r.Write(sampleRecord(9)); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(sampleRecord(9)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("spilled duplicate not rejected at append time: %v", err)
	}
	// The stream is still coherent: every remaining index fills in and
	// the flush succeeds.
	for _, i := range []int{1, 3, 4, 5, 6, 7, 8} {
		if err := r.Write(sampleRecord(i)); err != nil {
			t.Fatalf("write %d after rejected duplicate: %v", i, err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush after rejected duplicate: %v", err)
	}
}

// TestReorderWindowFlushReportsGaps: a gap below spilled records still
// fails the flush.
func TestReorderWindowFlushReportsGaps(t *testing.T) {
	r := NewReorderWindow(NewJSONL(io.Discard), 0, 2, t.TempDir())
	for _, i := range []int{0, 7, 9} { // 7 and 9 spill; 1..6, 8 missing
		if err := r.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err == nil || !strings.Contains(err.Error(), "missing record") {
		t.Fatalf("gap not reported: %v", err)
	}
}

// TestRotatingJSONL covers rotation, compression, and the read-back
// path: the concatenated (decompressed) members must equal the plain
// serial stream, and every member must respect the size bound.
func TestRotatingJSONL(t *testing.T) {
	const n = 25
	want := serialJSONL(t, n)
	oneRecord := int64(len(want) / n)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%t", compress), func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "campaign.jsonl")
			sink := NewRotatingJSONL(base, RotateOptions{MaxBytes: 3 * oneRecord, Compress: compress})
			for i := 0; i < n; i++ {
				if err := sink.Write(sampleRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			files := sink.Files()
			if len(files) < 2 {
				t.Fatalf("expected rotation, got %v", files)
			}
			wantFirst := filepath.Join(dir, "campaign-0001.jsonl")
			if compress {
				wantFirst += ".gz"
			}
			if files[0] != wantFirst {
				t.Fatalf("first member named %s, want %s", files[0], wantFirst)
			}
			var joined bytes.Buffer
			for _, f := range files {
				rd, err := NewFileReader(f)
				if err != nil {
					t.Fatal(err)
				}
				out := NewJSONL(&joined)
				perFile := 0
				for {
					rec, err := rd.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := out.Write(rec); err != nil {
						t.Fatal(err)
					}
					perFile++
				}
				rd.Close()
				if perFile > 3 {
					t.Fatalf("%s holds %d records, size bound allows 3", f, perFile)
				}
			}
			if !bytes.Equal(joined.Bytes(), want) {
				t.Fatal("reassembled rotated set differs from serial stream")
			}
		})
	}
}

// TestRotatingJSONLSingleCompressed: no rotation, compression only —
// one .gz file whose decompressed bytes are the serial stream.
func TestRotatingJSONLSingleCompressed(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "out.jsonl")
	sink := NewRotatingJSONL(base, RotateOptions{Compress: true})
	for i := 0; i < 5; i++ {
		if err := sink.Write(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := sink.Files(); len(files) != 1 || files[0] != base+".gz" {
		t.Fatalf("files: %v", sink.Files())
	}
	f, err := os.Open(base + ".gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, serialJSONL(t, 5)) {
		t.Fatal("decompressed single file differs from serial stream")
	}
}

// TestReaderFailsFastWithPosition: a corrupt record mid-file surfaces
// its file and line immediately, with the records before it already
// delivered — the fail-fast contract repro merge builds on.
func TestReaderFailsFastWithPosition(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.jsonl")
	good := serialJSONL(t, 3)
	lines := bytes.SplitAfter(good, []byte("\n"))
	corrupt := append(append(append([]byte{}, lines[0]...), []byte("{\"kind\":\"campaign\",BROKEN\n")...), lines[1]...)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := NewFileReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Next(); err != nil {
		t.Fatalf("first record should parse: %v", err)
	}
	_, err = rd.Next()
	if err == nil || !strings.Contains(err.Error(), path+":2:") {
		t.Fatalf("corrupt line error lacks file:line position: %v", err)
	}
}

// TestMergeFiles covers the streaming merge end to end: sorted shard
// files in any argument order reassemble byte-identically through a
// small window; corrupt input fails with a position; gaps and bad
// expected counts fail.
func TestMergeFiles(t *testing.T) {
	const n, shards = 40, 4
	dir := t.TempDir()
	want := serialJSONL(t, n)
	var paths []string
	for s := 0; s < shards; s++ {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for i := s; i < n; i += shards {
			if err := sink.Write(sampleRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", s))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Reverse argument order: ordering must come from indices.
	rev := []string{paths[3], paths[1], paths[2], paths[0]}
	var got bytes.Buffer
	stats, err := MergeFiles(chaos.OS, rev, NewJSONL(&got), n, 6, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("merge differs from serial stream")
	}
	if stats.Records != n || stats.Files != shards {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.MaxHeld > 2*6 {
		t.Fatalf("merge held %d records, window 6", stats.MaxHeld)
	}

	// Wrong expected count.
	if _, err := MergeFiles(chaos.OS, rev, NewJSONL(io.Discard), n+1, 6, dir); err == nil {
		t.Fatal("bad expected count accepted")
	}
	// A gap (missing shard).
	if _, err := MergeFiles(chaos.OS, paths[:3], NewJSONL(io.Discard), 0, 6, dir); err == nil {
		t.Fatal("gapped merge accepted")
	}
	// A corrupt mid-file record reports file and line without reading
	// everything first.
	bad := filepath.Join(dir, "bad.jsonl")
	data, _ := os.ReadFile(paths[0])
	lines := bytes.SplitAfter(data, []byte("\n"))
	tampered := bytes.Join([][]byte{lines[0], []byte("{torn\n")}, nil)
	for _, l := range lines[1:] {
		tampered = append(tampered, l...)
	}
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = MergeFiles(chaos.OS, []string{bad, paths[1], paths[2], paths[3]}, NewJSONL(io.Discard), 0, 6, dir)
	if err == nil || !strings.Contains(err.Error(), bad+":2:") {
		t.Fatalf("corrupt merge input error lacks position: %v", err)
	}
}

// TestRecordDigestDetectsDivergence: equal records share a digest,
// any field change breaks it.
func TestRecordDigest(t *testing.T) {
	a, err := RecordDigest(sampleRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecordDigest(sampleRecord(3))
	if err != nil || a != b {
		t.Fatalf("equal records digest differently: %s vs %s (%v)", a, b, err)
	}
	mod := sampleRecord(3)
	mod.Metrics[0].Val += 1e-9
	c, err := RecordDigest(mod)
	if err != nil || c == a {
		t.Fatalf("modified record shares digest: %v", err)
	}
}

// BenchmarkBoundedMerge measures the streaming merge through a bounded
// window (forcing spill via a shard-by-shard feed) against the record
// throughput of the unbounded in-memory path.
func BenchmarkBoundedMerge(b *testing.B) {
	const n, shards = 2000, 8
	dir := b.TempDir()
	var paths []string
	for s := 0; s < shards; s++ {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for i := s; i < n; i += shards {
			if err := sink.Write(sampleRecord(i)); err != nil {
				b.Fatal(err)
			}
		}
		p := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", s))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, p)
	}
	for _, window := range []int{0, 64} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				if _, err := MergeFiles(chaos.OS, paths, NewJSONL(io.Discard), n, window, dir); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
