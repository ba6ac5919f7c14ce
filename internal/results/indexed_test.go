package results

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sensorfusion/internal/chaos"
)

// writeShard renders the given global indices as one JSONL shard file.
func writeShard(t *testing.T, dir, name string, indices []int) string {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, k := range indices {
		if err := sink.Write(sampleRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMergeFilesIndexed: a sparse merge reassembles records carrying
// GLOBAL indices into universe order — the stream an incremental
// update's partial re-run produces — byte-identical to writing those
// records serially.
func TestMergeFilesIndexed(t *testing.T) {
	dir := t.TempDir()
	universe := []int{2, 5, 9, 14, 21}
	var want bytes.Buffer
	sink := NewJSONL(&want)
	for _, k := range universe {
		if err := sink.Write(sampleRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Two shards partitioning the universe, argument order reversed:
	// ordering must come from the index set alone.
	paths := []string{
		writeShard(t, dir, "s1.jsonl", []int{5, 14}),
		writeShard(t, dir, "s0.jsonl", []int{2, 9, 21}),
	}
	var got bytes.Buffer
	stats, err := MergeFilesIndexed(chaos.OS, paths, NewJSONL(&got), universe, 4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sparse merge = %q, want %q", got.Bytes(), want.Bytes())
	}
	if stats.Records != len(universe) || stats.Files != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestMergeFilesIndexedErrors(t *testing.T) {
	dir := t.TempDir()
	universe := []int{2, 5, 9}

	// A record whose global index is outside the universe.
	foreign := writeShard(t, dir, "foreign.jsonl", []int{2, 4})
	rest := writeShard(t, dir, "rest.jsonl", []int{5, 9})
	_, err := MergeFilesIndexed(chaos.OS, []string{foreign, rest}, NewJSONL(io.Discard), universe, 4, dir)
	if err == nil || !strings.Contains(err.Error(), "not in the merge's index set") {
		t.Fatalf("foreign index error = %v", err)
	}

	// A duplicated index.
	dup := writeShard(t, dir, "dup.jsonl", []int{2, 5, 5, 9})
	if _, err := MergeFilesIndexed(chaos.OS, []string{dup}, NewJSONL(io.Discard), universe, 4, dir); err == nil {
		t.Fatal("duplicate index accepted")
	}

	// A missing index (short stream).
	short := writeShard(t, dir, "short.jsonl", []int{2, 5})
	if _, err := MergeFilesIndexed(chaos.OS, []string{short}, NewJSONL(io.Discard), universe, 4, dir); err == nil {
		t.Fatal("missing index accepted")
	}

	// A non-increasing index set is a caller bug, caught up front.
	ok := writeShard(t, dir, "ok.jsonl", []int{2, 5, 9})
	if _, err := MergeFilesIndexed(chaos.OS, []string{ok}, NewJSONL(io.Discard), []int{2, 9, 5}, 4, dir); err == nil {
		t.Fatal("non-increasing universe accepted")
	}

	// Corrupt mid-file records fail fast with their position.
	bad := filepath.Join(dir, "bad.jsonl")
	data, _ := os.ReadFile(ok)
	lines := bytes.SplitAfter(data, []byte("\n"))
	tampered := append(append([]byte{}, lines[0]...), []byte("{torn\n")...)
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = MergeFilesIndexed(chaos.OS, []string{bad}, NewJSONL(io.Discard), universe, 4, dir)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s:2:", bad)) {
		t.Fatalf("corrupt input error lacks position: %v", err)
	}
}

// TestMergeFilesIndexedMatchesDense: over the full [0,n) universe the
// indexed merge must agree byte-for-byte with the dense MergeFiles — the
// update path and the classic path are the same stream when nothing is
// sparse.
func TestMergeFilesIndexedMatchesDense(t *testing.T) {
	const n, shards = 30, 3
	dir := t.TempDir()
	universe := make([]int, n)
	for i := range universe {
		universe[i] = i
	}
	var paths []string
	for s := 0; s < shards; s++ {
		var indices []int
		for i := s; i < n; i += shards {
			indices = append(indices, i)
		}
		paths = append(paths, writeShard(t, dir, fmt.Sprintf("s%d.jsonl", s), indices))
	}
	var dense, sparse bytes.Buffer
	if _, err := MergeFiles(chaos.OS, paths, NewJSONL(&dense), n, 5, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFilesIndexed(chaos.OS, paths, NewJSONL(&sparse), universe, 5, dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dense.Bytes(), sparse.Bytes()) {
		t.Fatal("indexed merge over the full universe differs from the dense merge")
	}
}
