package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sensorfusion/internal/coordinator"
)

// TestEtaLine: the watch view must never render an ETA from an
// uncalibrated cost model — "warming up" is the only honest output
// until a completed shard carries both a cost and a wall time.
func TestEtaLine(t *testing.T) {
	warming := coordinator.Status{Shards: 4, Pending: 4}
	if got := etaLine(warming); !strings.Contains(got, "warming up") {
		t.Fatalf("uncalibrated etaLine = %q, want warming up", got)
	}
	if strings.ContainsAny(etaLine(warming), "∞") || strings.Contains(etaLine(warming), "NaN") {
		t.Fatalf("uncalibrated etaLine leaks a non-finite value: %q", etaLine(warming))
	}
	calibrated := coordinator.Status{Shards: 4, DoneShards: 1, Calibrated: true,
		EstimatedRemaining: 90e9}
	if got := etaLine(calibrated); !strings.Contains(got, "estimated remaining serial work: 1m30s") {
		t.Fatalf("calibrated etaLine = %q", got)
	}
	done := coordinator.Status{Shards: 4, DoneShards: 4, Calibrated: true}
	if got := etaLine(done); got != "" {
		t.Fatalf("finished etaLine = %q, want empty", got)
	}
}

// TestWatchWarmingUpThroughBinary: `coordinate -watch` on an
// empty-progress manifest prints the warming-up line, never an
// extrapolated estimate.
func TestWatchWarmingUpThroughBinary(t *testing.T) {
	bin := buildRepro(t)
	state := t.TempDir()
	// A manifest with per-shard costs whose done shards recorded no wall
	// time: nothing to calibrate from yet.
	manifest := `{
  "version": 2,
  "params": "test-params",
  "shards": 3,
  "total": 8,
  "shard_state": [
    {"state": "done", "attempts": 1, "records": 3, "indices": "0,3,6", "cost": 3},
    {"state": "done", "attempts": 1, "records": 3, "indices": "1,4,7", "cost": 3},
    {"state": "running", "attempts": 1, "records": 0, "indices": "2,5", "cost": 2}
  ]
}
`
	if err := os.WriteFile(filepath.Join(state, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "coordinate", "-state", state, "-watch").CombinedOutput()
	if err != nil {
		t.Fatalf("watch: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "eta: warming up") {
		t.Fatalf("watch on empty progress lacks the warming-up line:\n%s", out)
	}
	if strings.Contains(string(out), "estimated remaining") {
		t.Fatalf("watch on empty progress extrapolated an ETA:\n%s", out)
	}
}

// TestReproUpdateDoctor drives the incremental workflow end to end
// through the real binary: coordinate a small campaign with a custom
// -lengths grid, doctor it clean, edit one grid value, update, and
// demand bytes identical to a from-scratch campaign of the edited grid.
// Then corrupt the state dir and check doctor's findings and exit code.
func TestReproUpdateDoctor(t *testing.T) {
	bin := buildRepro(t)
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
		}
		return string(out)
	}
	readFile := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	merged := filepath.Join(dir, "merged.jsonl")
	run("coordinate", "-state", state, "-workers", "2", "-shards", "3",
		"-seed", "5", "-step", "4", "-lengths", "5,8",
		"-format", "json", "-out", merged)

	// A completed campaign is clean.
	if out := run("doctor", "-state", state); !strings.Contains(out, "doctor: clean") {
		t.Fatalf("doctor on completed campaign: %s", out)
	}

	// Reference: from-scratch campaign of the EDITED grid.
	ref := filepath.Join(dir, "ref.jsonl")
	run("campaign", "-seed", "5", "-step", "4", "-lengths", "5,9",
		"-format", "json", "-out", ref)

	// Incremental update after the one-parameter grid edit.
	updated := filepath.Join(dir, "updated.jsonl")
	cmd := exec.Command(bin, "update", "-state", state, "-workers", "2", "-shards", "3",
		"-seed", "5", "-step", "4", "-lengths", "5,9",
		"-format", "json", "-out", updated)
	stderr, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("update: %v\n%s", err, stderr)
	}
	if readFile(updated) != readFile(ref) {
		t.Fatal("update output differs from the from-scratch edited campaign")
	}
	if !strings.Contains(string(stderr), "unchanged") || !strings.Contains(string(stderr), "0 cache misses") {
		t.Fatalf("update summary missing incremental accounting:\n%s", stderr)
	}

	// Corruption: doctor finds a stale pid-only lock and exits nonzero,
	// printing the exact fix.
	lock := filepath.Join(state, "coordinator.lock")
	if err := os.WriteFile(lock, []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "doctor", "-state", state).CombinedOutput()
	if err == nil {
		t.Fatalf("doctor exited zero despite findings:\n%s", out)
	}
	if !strings.Contains(string(out), "stale-lock") || !strings.Contains(string(out), "fix: rm "+lock) {
		t.Fatalf("doctor findings missing stale-lock fix:\n%s", out)
	}
	os.Remove(lock)
	if out := run("doctor", "-state", state); !strings.Contains(out, "doctor: clean") {
		t.Fatalf("doctor after fix: %s", out)
	}
}
