package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySize runs every workload in a second or two.
var tinySize = size{
	coldK:        4,
	warmLengths:  "2,3",
	mergeRecords: 2000,
	mergeShards:  4,
	scenSteps:    20,
	fuzzN:        5,
	setupReps:    1,
	workers:      2,
}

var reproBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	reproBin = filepath.Join(dir, "repro")
	build := exec.Command("go", "build", "-o", reproBin, "sensorfusion/cmd/repro")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &list); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func tinyBench(t *testing.T, name string) *bench {
	work := t.TempDir()
	dir := filepath.Join(work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return &bench{repro: reproBin, dir: dir, trash: filepath.Join(work, "trash"), seed: 0, size: tinySize, log: io.Discard}
}

func checkPrinted(t *testing.T, what string, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not printed", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s printed with unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
}

// TestWorkloadsPrintEveryMetric runs each workload tiny, untraced and
// traced, and checks the printed metrics against BENCHMARK.json.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			b := tinyBench(t, name)
			res, err := measure(b, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced run: correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			checkPrinted(t, "untraced", res.Metrics, e2e)
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", k, m.Value)
				}
			}
			res, err = traced(b, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			checkPrinted(t, "traced", res.Metrics, layers)
			if _, err := os.Stat(b.path("spans.jsonl")); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// damage changes one digit in the middle of a file, keeping it the same
// length and line count.
func damage(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data); i++ {
		if c := data[i]; c >= '0' && c <= '9' {
			data[i] = '0' + (c-'0'+1)%10
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no digit to damage in %s", path)
}

// TestOutputChecksCountCorruption runs each workload's operation once
// cleanly, commits the clean output's digest where the workload checks
// one, then reruns it with the output damaged before the checks: every
// check must record a failed operation.
func TestOutputChecksCountCorruption(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			b := tinyBench(t, name)
			if _, err := runSetups(b, w, 1); err != nil {
				t.Fatal(err)
			}
			var out string
			b.corrupt = func(path string) { out = path }
			clean, err := w.op(b)
			if err != nil {
				t.Fatal(err)
			}
			if clean.failed != 0 || clean.badCheck {
				t.Fatalf("clean op: %d failed", clean.failed)
			}
			var key string
			switch name {
			case "campaign-cold":
				key = strings.Join(coldSpec(b), " ")
			case "scenarios":
				key = strings.Join(scenSpec(b), " ")
			}
			if key != "" {
				sum, err := fileSHA256(out)
				if err != nil {
					t.Fatal(err)
				}
				digests[key] = sum
				defer delete(digests, key)
			}
			b.corrupt = func(path string) { damage(t, path) }
			bad, err := w.op(b)
			if err != nil {
				t.Fatal(err)
			}
			if bad.failed == 0 || !bad.badCheck {
				t.Errorf("damaged output: %d of %d ops failed, check failed %v", bad.failed, bad.attempted, bad.badCheck)
			}
		})
	}
}

func TestLedgerSelfTime(t *testing.T) {
	l := newLedger("test")
	l.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	total, self := l.layerTimes()
	if total["parent"] != 100 || self["parent"] != 100-50-10 {
		t.Errorf("parent total %d self %d, want 100 and 40", total["parent"], self["parent"])
	}
	if self["child"] != 30+30+30 {
		t.Errorf("child self %d, want 90", self["child"])
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.998 || got > want*1.002 {
			t.Errorf("quantile %v = %v, want %v within 0.2%%", q, got, want)
		}
	}
}
