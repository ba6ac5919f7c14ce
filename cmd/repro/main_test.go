package main

import (
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// These smoke tests catch regressions in the CLI wiring itself: flag
// parsing, subcommand dispatch, and the experiment plumbing behind each
// subcommand. They build the real binary and run it.

func buildRepro(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "repro")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build cmd/repro: %v\n%s", err, out)
	}
	return bin
}

func TestReproSubcommandsSmoke(t *testing.T) {
	bin := buildRepro(t)
	cases := []struct {
		name string
		args []string
		want string // substring expected in output
	}{
		{"table1", []string{"table1", "-rows", "1"}, "Table I"},
		{"figures", []string{"figures", "-fig", "1"}, "Fig1"},
		{"table2", []string{"table2", "-steps", "60", "-parallel", "2"}, "Table II"},
		{"sweep", []string{"sweep", "-steps", "30", "-parallel", "2"}, "TrustedLast"},
		{"campaign", []string{"campaign", "-k", "2", "-parallel", "2"}, "campaign"},
		{"strategies", []string{"strategies", "-parallel", "2"}, "optimal"},
		{"scenarios", []string{"scenarios", "-steps", "10", "-parallel", "2"}, "0 FAIL"},
		{"help", []string{"help"}, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("repro %s: %v\n%s", strings.Join(tc.args, " "), err, out)
			}
			if tc.want != "" && !strings.Contains(string(out), tc.want) {
				t.Fatalf("repro %s: output missing %q:\n%s", strings.Join(tc.args, " "), tc.want, out)
			}
		})
	}
}

// TestReproDeterministicAcrossParallel runs the same seeded subcommands
// with 1 and 4 workers and demands byte-identical stdout (the engine's
// core guarantee, checked end to end through the binary). Only stdout
// is compared: progress lines go to stderr, and the elapsed line is
// stripped — wall-clock is the one thing allowed to differ.
func TestReproDeterministicAcrossParallel(t *testing.T) {
	bin := buildRepro(t)
	run := func(args ...string) string {
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("repro %s: %v", strings.Join(args, " "), err)
		}
		lines := strings.Split(string(out), "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.HasPrefix(l, "elapsed:") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	campaign1 := run("campaign", "-k", "2", "-seed", "1", "-parallel", "1")
	campaign4 := run("campaign", "-k", "2", "-seed", "1", "-parallel", "4")
	if campaign1 != campaign4 {
		t.Fatalf("campaign output differs between -parallel 1 and 4:\n%s\n--- vs ---\n%s", campaign1, campaign4)
	}
	sweep1 := run("sweep", "-steps", "30", "-seed", "3", "-parallel", "1")
	sweep4 := run("sweep", "-steps", "30", "-seed", "3", "-parallel", "4")
	if sweep1 != sweep4 {
		t.Fatalf("sweep output differs between -parallel 1 and 4:\n%s\n--- vs ---\n%s", sweep1, sweep4)
	}
}

// TestExamplesCompile builds every example program, so the examples stay
// in sync with the facade even though they have no test files of their
// own.
func TestExamplesCompile(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir, "./examples/...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
}

// TestReproRecordPipeline drives the streaming pipeline through the
// real binary: record formats, the shard/merge workflow, and the result
// cache.
func TestReproRecordPipeline(t *testing.T) {
	bin := buildRepro(t)
	dir := t.TempDir()
	run := func(wantErr bool, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if (err != nil) != wantErr {
			t.Fatalf("repro %s: err=%v", strings.Join(args, " "), err)
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

	// Record formats on stdout.
	if out := run(false, "table1", "-rows", "1", "-format", "json"); !strings.Contains(out, `"kind":"table1"`) {
		t.Fatalf("table1 json: %s", out)
	}
	if out := run(false, "table2", "-steps", "60", "-format", "csv"); !strings.HasPrefix(out, "kind,index,config") {
		t.Fatalf("table2 csv: %s", out)
	}
	if out := run(false, "figures", "-format", "json"); !strings.Contains(out, `"kind":"figures"`) {
		t.Fatalf("figures json: %s", out)
	}
	if out := run(false, "strategies", "-format", "json"); !strings.Contains(out, `"config":"optimal"`) {
		t.Fatalf("strategies json: %s", out)
	}
	run(true, "table1", "-rows", "1", "-format", "bogus")
	run(true, "campaign", "-k", "2", "-shard", "9/2")

	// A format typo must not truncate an existing output file.
	precious := filepath.Join(dir, "precious.jsonl")
	if err := os.WriteFile(precious, []byte("do not clobber\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run(true, "table1", "-rows", "1", "-format", "jsn", "-out", precious)
	if got := readFile(precious); got != "do not clobber\n" {
		t.Fatalf("bad -format truncated -out file: %q", got)
	}

	// -out files must be world-readable (CreateTemp would leave 0600).
	run(false, "table1", "-rows", "1", "-format", "json", "-out", precious)
	if info, err := os.Stat(precious); err != nil {
		t.Fatal(err)
	} else if info.Mode().Perm()&0o044 == 0 {
		t.Fatalf("-out file not group/world readable: %v", info.Mode())
	}

	// -out to a non-regular file must write through it, not rename over
	// it (renaming would replace /dev/null with a regular file).
	run(false, "table1", "-rows", "1", "-format", "json", "-out", os.DevNull)
	if info, err := os.Stat(os.DevNull); err != nil || info.Mode().IsRegular() {
		t.Fatalf("-out %s destroyed the device node: mode=%v err=%v", os.DevNull, info.Mode(), err)
	}

	// -out to a symlink must publish through to its target, keeping the
	// link intact.
	linkTarget := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(linkTarget, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "latest.jsonl")
	if err := os.Symlink(linkTarget, link); err != nil {
		t.Fatal(err)
	}
	run(false, "table1", "-rows", "1", "-format", "json", "-out", link)
	if info, err := os.Lstat(link); err != nil || info.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("-out severed the symlink: mode=%v err=%v", info.Mode(), err)
	}
	if got := readFile(linkTarget); !strings.Contains(got, `"kind":"table1"`) {
		t.Fatalf("symlink target not updated: %q", got)
	}

	// Unsharded vs sharded+merged: byte-identical JSONL.
	all := filepath.Join(dir, "all.jsonl")
	run(false, "campaign", "-k", "5", "-seed", "198", "-parallel", "4", "-format", "json", "-out", all)
	var shardFiles []string
	for i := 0; i < 3; i++ {
		name := filepath.Join(dir, "s"+strconv.Itoa(i)+".jsonl")
		run(false, "campaign", "-k", "5", "-seed", "198", "-shard", strconv.Itoa(i)+"/3", "-format", "json", "-out", name)
		shardFiles = append(shardFiles, name)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	// Shard files in reverse order: merge must restore index order.
	args := []string{"merge", "-format", "json", "-out", merged, shardFiles[2], shardFiles[1], shardFiles[0]}
	run(false, args...)
	if readFile(all) != readFile(merged) {
		t.Fatalf("merged shards differ from unsharded run:\n%s\n--- vs ---\n%s", readFile(merged), readFile(all))
	}
	// Merging an incomplete shard set must fail (gap in indices).
	run(true, "merge", "-format", "json", "-out", filepath.Join(dir, "gap.jsonl"), shardFiles[2])
	// merge accepts the uniform -parallel/-seed flags as no-ops.
	run(false, "merge", "-parallel", "4", "-seed", "1", "-format", "json", "-out", filepath.Join(dir, "u.jsonl"), shardFiles[0], shardFiles[1], shardFiles[2])
	// -expect catches a missing tail that gap detection cannot.
	run(false, "merge", "-format", "json", "-out", filepath.Join(dir, "e.jsonl"), "-expect", "5", shardFiles[0], shardFiles[1], shardFiles[2])
	run(true, "merge", "-format", "json", "-out", filepath.Join(dir, "e2.jsonl"), "-expect", "6", shardFiles[0], shardFiles[1], shardFiles[2])
	// merge -format table renders the final report.
	if out := run(false, "merge", shardFiles[0], shardFiles[1], shardFiles[2]); !strings.Contains(out, "asc") {
		t.Fatalf("merge table: %s", out)
	}

	// Cache: cold run misses, warm run hits and is byte-identical.
	cdir := filepath.Join(dir, "cache")
	c1 := filepath.Join(dir, "c1.jsonl")
	c2 := filepath.Join(dir, "c2.jsonl")
	coldOut, err := exec.Command(bin, "campaign", "-k", "3", "-seed", "198", "-cache", cdir, "-format", "json", "-out", c1).CombinedOutput()
	if err != nil {
		t.Fatalf("cold cache run: %v\n%s", err, coldOut)
	}
	// Three part-level lookups per configuration (attacked asc, attacked
	// desc, clean), so 3 configurations account for 9.
	if !strings.Contains(string(coldOut), "0 hits, 9 misses") {
		t.Fatalf("cold run cache stats:\n%s", coldOut)
	}
	warmOut, err := exec.Command(bin, "campaign", "-k", "3", "-seed", "198", "-cache", cdir, "-format", "json", "-out", c2).CombinedOutput()
	if err != nil {
		t.Fatalf("warm cache run: %v\n%s", err, warmOut)
	}
	if !strings.Contains(string(warmOut), "9 hits, 0 misses") {
		t.Fatalf("warm run still simulated:\n%s", warmOut)
	}
	if readFile(c1) != readFile(c2) {
		t.Fatal("warm cache run output differs")
	}
}

// TestReproScenarios drives the scenario verdict harness through the
// real binary: the all-PASS gate, determinism across workers, the
// record pipeline with a warm cache, profiling, suite filtering,
// mixed-stream format guards, and the armed fuzzer self-test that must FAIL with a
// shrunk reproducer.
func TestReproScenarios(t *testing.T) {
	bin := buildRepro(t)
	dir := t.TempDir()
	run := func(wantErr bool, args ...string) (string, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if (err != nil) != wantErr {
			t.Fatalf("repro %s: err=%v\nstderr: %s", strings.Join(args, " "), err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	readFile := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	common := []string{"-steps", "10", "-seed", "2014"}

	// All suites must PASS; the summary reports zero FAILs.
	out, _ := run(false, append([]string{"scenarios"}, common...)...)
	if !strings.Contains(out, "0 FAIL") {
		t.Fatalf("scenarios not all-PASS:\n%s", out)
	}
	for _, suite := range []string{"scenario-faults", "scenario-platoon", "scenario-consensus", "scenario-track"} {
		if !strings.Contains(out, suite) {
			t.Fatalf("report missing %s:\n%s", suite, out)
		}
	}

	// Byte-identical records across -parallel values, cold vs warm cache.
	cdir := filepath.Join(dir, "cache")
	p1 := filepath.Join(dir, "p1.jsonl")
	p4 := filepath.Join(dir, "p4.jsonl")
	_, stderr := run(false, append([]string{"scenarios", "-parallel", "1", "-cache", cdir, "-format", "json", "-out", p1}, common...)...)
	if !strings.Contains(stderr, "0 hits, 16 misses") {
		t.Fatalf("cold cache stats:\n%s", stderr)
	}
	_, stderr = run(false, append([]string{"scenarios", "-parallel", "4", "-cache", cdir, "-format", "json", "-out", p4}, common...)...)
	if !strings.Contains(stderr, "16 hits, 0 misses") {
		t.Fatalf("warm run still simulated:\n%s", stderr)
	}
	if readFile(p1) != readFile(p4) {
		t.Fatal("scenario records differ between -parallel 1 (cold) and 4 (warm)")
	}

	// Profiling is a diagnostic: it writes non-empty pprof files and
	// leaves the records alone.
	cpuProf := filepath.Join(dir, "cpu.prof")
	memProf := filepath.Join(dir, "mem.prof")
	prof := filepath.Join(dir, "prof.jsonl")
	run(false, append([]string{"scenarios", "-parallel", "1", "-cpuprofile", cpuProf, "-memprofile", memProf, "-format", "json", "-out", prof}, common...)...)
	for _, name := range []string{cpuProf, memProf} {
		if fi, err := os.Stat(name); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", name, err)
		}
	}
	if readFile(prof) != readFile(p1) {
		t.Fatal("scenario records differ between profiled and unprofiled runs")
	}

	// Suite filtering keeps the full-run records (global indices, seeds).
	fOnly := filepath.Join(dir, "faults.jsonl")
	run(false, append([]string{"scenarios", "-suite", "faults", "-format", "json", "-out", fOnly}, common...)...)
	for _, line := range strings.Split(strings.TrimSpace(readFile(fOnly)), "\n") {
		if !strings.Contains(line, `"kind":"scenario-faults"`) {
			t.Fatalf("suite filter leaked foreign records: %s", line)
		}
		if !strings.Contains(readFile(p1), line) {
			t.Fatalf("filtered record not a substream of the full run: %s", line)
		}
	}

	// Flat formats need a homogeneous stream.
	run(true, append([]string{"scenarios", "-format", "csv"}, common...)...)
	if csvOut, _ := run(false, append([]string{"scenarios", "-suite", "track", "-format", "csv"}, common...)...); !strings.HasPrefix(csvOut, "kind,index,config") {
		t.Fatalf("single-suite csv: %s", csvOut)
	}

	// The fuzzer: clean PASS, and the armed self-test FAILs with a
	// decodable shrunk reproducer.
	out, _ = run(false, append([]string{"scenarios", "-suite", "faults", "-fuzz", "30"}, common...)...)
	if !strings.Contains(out, "scenario-fuzz") || !strings.Contains(out, "30 random scenarios, no claim violation") {
		t.Fatalf("clean fuzz:\n%s", out)
	}
	out, _ = run(true, append([]string{"scenarios", "-suite", "faults", "-fuzz", "10", "-fuzz-break"}, common...)...)
	if !strings.Contains(out, "reproducer for scenario-fuzz") || !strings.Contains(out, `"widths"`) {
		t.Fatalf("fuzz-break self-test lacks a reproducer:\n%s", out)
	}
}

// TestReproCoordinate drives the resumable multi-process coordinator
// through the real binary, including its crash story:
//
//  1. a clean coordinated run (and a -follow run) must be
//     byte-identical to the unsharded serial campaign;
//  2. a coordinator SIGKILLed mid-campaign (its workers die with it via
//     PDEATHSIG) with a shard file truncated on top must, when re-run
//     with -resume, still produce byte-identical output;
//  3. the resume leg must re-simulate nothing that was already cached:
//     summing the per-worker cache miss counters over the resume leg
//     accounts exactly for the configurations missing from the cache at
//     kill time.
func TestReproCoordinate(t *testing.T) {
	bin := buildRepro(t)
	dir := t.TempDir()
	const totalConfigs = 12
	common := []string{"-k", strconv.Itoa(totalConfigs), "-seed", "198", "-step", "4"}

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

	// Serial reference: the unsharded campaign stream.
	ref := filepath.Join(dir, "ref.jsonl")
	run(append([]string{"campaign", "-format", "json", "-out", ref}, common...)...)

	// Clean coordinated run, non-follow and follow: byte-identical.
	for _, extra := range [][]string{nil, {"-follow"}} {
		state := filepath.Join(dir, "state-clean"+strings.Join(extra, ""))
		out := filepath.Join(dir, "clean"+strings.Join(extra, "")+".jsonl")
		args := append([]string{"coordinate", "-state", state, "-workers", "2", "-shards", "5",
			"-format", "json", "-out", out}, common...)
		run(append(args, extra...)...)
		if readFile(out) != readFile(ref) {
			t.Fatalf("coordinate %v output differs from serial campaign", extra)
		}
	}

	// Crash leg: SIGKILL the coordinator once some configurations are
	// cached but (ideally) not all. The orphan-worker guarantee (and so
	// the safety of resuming while nothing else writes the state dir)
	// comes from PDEATHSIG, which only Linux provides.
	if runtime.GOOS != "linux" {
		t.Logf("skipping crash leg: worker PDEATHSIG binding is Linux-only")
		return
	}
	state := filepath.Join(dir, "state-crash")
	cacheDir := filepath.Join(state, "cache")
	merged := filepath.Join(dir, "crash.jsonl")
	cmd := exec.Command(bin, append([]string{"coordinate", "-state", state, "-workers", "2",
		"-shards", "6", "-format", "json", "-out", merged}, common...)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	crashed := make(chan error, 1)
	go func() { crashed <- cmd.Wait() }()
	completed := false
poll:
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-crashed:
			// Completed before we got to kill it (fast machine): the
			// resume assertions below still hold, with everything cached.
			if err != nil {
				t.Fatalf("coordinate crash leg failed on its own: %v", err)
			}
			completed = true
			break poll
		default:
		}
		if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.json")); len(entries) >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !completed {
		cmd.Process.Kill() // SIGKILL: no cleanup, workers die via PDEATHSIG
		<-crashed
	}

	// The workers must die with the coordinator: the cache must stop
	// growing once it is gone.
	settle, _ := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	time.Sleep(1200 * time.Millisecond)
	after, _ := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if len(after) != len(settle) {
		t.Fatalf("orphan workers still simulating after coordinator death: cache grew %d -> %d", len(settle), len(after))
	}
	cachedAtKill := len(after)

	// Tamper on top of the crash: truncate a shard file mid-stream, as a
	// worker killed mid-write would leave it. Workers write compressed
	// shard streams at the source, so the files carry the .gz name.
	shards, _ := filepath.Glob(filepath.Join(state, "shard-*.jsonl.gz"))
	if len(shards) == 0 {
		t.Fatal("no compressed shard files on disk — exec workers should gzip at the source")
	}
	for _, s := range shards {
		if data := readFile(s); len(data) > 10 {
			if err := os.WriteFile(s, []byte(data[:len(data)-10]), 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	// Isolate the resume leg's worker logs for the miss accounting.
	logs, _ := filepath.Glob(filepath.Join(state, "shard-*.log"))
	for _, l := range logs {
		os.Remove(l)
	}

	// Resume: byte-identical to the serial run, despite kill + truncate.
	resumeArgs := append([]string{"coordinate", "-state", state, "-resume", "-workers", "2",
		"-shards", "6", "-format", "json", "-out", merged}, common...)
	run(resumeArgs...)
	if readFile(merged) != readFile(ref) {
		t.Fatal("resumed coordinate output differs from serial campaign")
	}

	// Zero re-simulation: the resume leg's misses are exactly the
	// configurations that were not yet cached at kill time. A
	// configuration evaluates as three engine parts (attacked asc,
	// attacked desc, clean), each consulting the cache independently, so
	// an uncached configuration counts three misses and a cached one
	// replays as three hits; either way no cached simulation re-runs.
	resumeMisses := 0
	logs, _ = filepath.Glob(filepath.Join(state, "shard-*.log"))
	re := regexp.MustCompile(`(\d+) hits, (\d+) misses`)
	for _, l := range logs {
		for _, m := range re.FindAllStringSubmatch(readFile(l), -1) {
			n, _ := strconv.Atoi(m[2])
			resumeMisses += n
		}
	}
	if want := 3 * (totalConfigs - cachedAtKill); resumeMisses != want {
		t.Fatalf("resume leg missed %d part lookups, want %d (cache had %d of %d configurations at kill)",
			resumeMisses, want, cachedAtKill, totalConfigs)
	}

	// A second resume over the completed state launches nothing and
	// still reproduces the bytes.
	run(resumeArgs...)
	if readFile(merged) != readFile(ref) {
		t.Fatal("idempotent resume changed the output")
	}
}

// TestReproStreamingKnobs drives the new large-stream machinery through
// the real binary: batch invariance, explicit index-set shards,
// compressed and rotated output, the bounded-window streaming merge
// with fail-fast corruption errors, and the cost-balanced coordinator
// whose compressed+rotated+windowed output must decompress
// byte-identical to the serial campaign.
func TestReproStreamingKnobs(t *testing.T) {
	bin := buildRepro(t)
	dir := t.TempDir()
	run := func(wantErr bool, args ...string) (string, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if (err != nil) != wantErr {
			t.Fatalf("repro %s: err=%v\nstderr: %s", strings.Join(args, " "), err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	readFile := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	gunzipAll := func(names ...string) string {
		t.Helper()
		var out strings.Builder
		for _, name := range names {
			f, err := os.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			gz, err := gzip.NewReader(f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			data, err := io.ReadAll(gz)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out.Write(data)
			f.Close()
		}
		return out.String()
	}
	common := []string{"-k", "6", "-seed", "198", "-step", "4"}

	// Serial reference.
	ref := filepath.Join(dir, "ref.jsonl")
	run(false, append([]string{"campaign", "-format", "json", "-out", ref}, common...)...)

	// -batch must not change bytes.
	batched := filepath.Join(dir, "batched.jsonl")
	run(false, append([]string{"campaign", "-batch", "4", "-format", "json", "-out", batched}, common...)...)
	if readFile(batched) != readFile(ref) {
		t.Fatal("-batch changed campaign bytes")
	}

	// Explicit index-set shards merge byte-identically; gz input is read
	// transparently; merge streams through a tiny window.
	sA := filepath.Join(dir, "sA.jsonl")
	sB := filepath.Join(dir, "sB.jsonl")
	run(false, append([]string{"campaign", "-shard", "0-2,5", "-format", "json", "-out", sA}, common...)...)
	run(false, append([]string{"campaign", "-shard", "3-4", "-format", "json", "-out", sB, "-compress"}, common...)...)
	merged := filepath.Join(dir, "merged.jsonl")
	_, stderr := run(false, "merge", "-window", "2", "-expect", "6", "-format", "json", "-out", merged, sB+".gz", sA)
	if readFile(merged) != readFile(ref) {
		t.Fatal("index-set shard merge differs from serial run")
	}
	if !strings.Contains(stderr, "6 records from 2 files") {
		t.Fatalf("merge stderr: %s", stderr)
	}

	// Compressed single-file output round-trips.
	czip := filepath.Join(dir, "c.jsonl")
	run(false, append([]string{"campaign", "-format", "json", "-out", czip, "-compress"}, common...)...)
	if got := gunzipAll(czip + ".gz"); got != readFile(ref) {
		t.Fatal("compressed campaign output differs after decompression")
	}

	// A corrupt mid-file record fails the merge with file and line.
	bad := filepath.Join(dir, "bad.jsonl")
	lines := strings.SplitAfter(readFile(sA), "\n")
	if err := os.WriteFile(bad, []byte(lines[0]+"{torn}\n"+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr = run(true, "merge", "-format", "json", "-out", filepath.Join(dir, "x.jsonl"), bad)
	if !strings.Contains(stderr, bad+":2:") {
		t.Fatalf("corrupt merge error lacks file:line: %s", stderr)
	}

	// The acceptance chain: a cost-balanced coordinated run with a small
	// merge window, compression, and rotation. The decompressed
	// concatenation of the rotated members must equal the serial stream.
	state := filepath.Join(dir, "state")
	rotated := filepath.Join(dir, "rot.jsonl")
	run(false, append([]string{"coordinate", "-state", state, "-workers", "2", "-shards", "4",
		"-window", "3", "-format", "json", "-out", rotated, "-compress", "-rotate", "1K"}, common...)...)
	members, err := filepath.Glob(filepath.Join(dir, "rot-*.jsonl.gz"))
	if err != nil || len(members) < 2 {
		t.Fatalf("expected rotated members, got %v (%v)", members, err)
	}
	sort.Strings(members)
	if got := gunzipAll(members...); got != readFile(ref) {
		t.Fatal("coordinated compressed+rotated output differs from the serial campaign after decompression")
	}

	// The manifest carries the balanced partition with costs; -watch
	// renders it without touching the lock.
	watchOut, _ := run(false, "coordinate", "-state", state, "-watch")
	if !strings.Contains(watchOut, "4/4 done") {
		t.Fatalf("watch output:\n%s", watchOut)
	}
	if !strings.Contains(watchOut, "records 6/6") {
		t.Fatalf("watch output lacks record totals:\n%s", watchOut)
	}

	// Resume over the finished balanced run launches nothing and
	// reproduces the bytes through the same rotated pipeline.
	for _, m := range members {
		os.Remove(m)
	}
	run(false, append([]string{"coordinate", "-state", state, "-resume", "-workers", "2", "-shards", "4",
		"-window", "3", "-format", "json", "-out", rotated, "-compress", "-rotate", "1K"}, common...)...)
	members, _ = filepath.Glob(filepath.Join(dir, "rot-*.jsonl.gz"))
	sort.Strings(members)
	if got := gunzipAll(members...); got != readFile(ref) {
		t.Fatal("resumed rotated output differs")
	}
}
