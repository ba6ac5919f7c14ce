package coordinator

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sensorfusion/internal/chaos"
	"sensorfusion/internal/results"
)

// completedState runs a small campaign to completion and returns its
// options — the canonical healthy state directory every doctor fixture
// corrupts from. The lock is released, every shard is done and
// validated, and a matching spec manifest is in place.
func completedState(t *testing.T, total, shards int) Options {
	t.Helper()
	opts := baseOptions(t, total, shards)
	opts.Run = testWorker(total, nil, nil)
	opts.Sink = results.NewJSONL(io.Discard)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}
	digests := make([]string, total)
	for k := range digests {
		digests[k] = fmt.Sprintf("digest-%03d", k)
	}
	if err := SaveSpec(opts.StateDir, opts.Params, digests); err != nil {
		t.Fatal(err)
	}
	return opts
}

func doctorCodes(findings []Finding) []string {
	var codes []string
	for _, f := range findings {
		codes = append(codes, f.Code)
	}
	return codes
}

// applyFixes runs every finding's fix command VERBATIM through the
// shell — the acceptance contract is that the printed commands, pasted
// as-is, repair the directory.
func applyFixes(t *testing.T, findings []Finding) {
	t.Helper()
	for _, f := range findings {
		if f.Fix == "" {
			t.Fatalf("finding %s on %s has no fix to apply", f.Code, f.Path)
		}
		if out, err := exec.Command("sh", "-c", f.Fix).CombinedOutput(); err != nil {
			t.Fatalf("fix %q failed: %v\n%s", f.Fix, err, out)
		}
	}
}

func wantClean(t *testing.T, stateDir string) {
	t.Helper()
	findings, err := DoctorState(stateDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("want clean, got findings %v: %+v", doctorCodes(findings), findings)
	}
}

func TestDoctorCleanOnCompletedRun(t *testing.T) {
	opts := completedState(t, 9, 3)
	wantClean(t, opts.StateDir)
}

func TestDoctorStaleLock(t *testing.T) {
	opts := completedState(t, 6, 2)
	lock := filepath.Join(opts.StateDir, lockName)
	// Legacy pid-only lock from a SIGKILLed coordinator: pid is gone.
	if err := os.WriteFile(lock, []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := DoctorState(opts.StateDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Code != "stale-lock" {
		t.Fatalf("want one stale-lock, got %+v", findings)
	}
	if findings[0].Fix != "rm "+lock {
		t.Fatalf("stale-lock fix = %q, want %q", findings[0].Fix, "rm "+lock)
	}
	applyFixes(t, findings)
	wantClean(t, opts.StateDir)
}

func TestDoctorForeignLockHasNoFix(t *testing.T) {
	opts := completedState(t, 6, 2)
	lock := filepath.Join(opts.StateDir, lockName)
	if err := os.WriteFile(lock, []byte("4242\nsome-other-host\n777\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := DoctorState(opts.StateDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Code != "foreign-lock" {
		t.Fatalf("want one foreign-lock, got %+v", findings)
	}
	if findings[0].Fix != "" {
		t.Fatalf("foreign-lock must not advise a fix from this host, got %q", findings[0].Fix)
	}
	os.Remove(lock)
	wantClean(t, opts.StateDir)
}

func TestDoctorLockDebris(t *testing.T) {
	opts := completedState(t, 6, 2)
	debris := filepath.Join(opts.StateDir, lockName+".tmp123")
	if err := os.WriteFile(debris, []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := DoctorState(opts.StateDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Code != "lock-debris" {
		t.Fatalf("want one lock-debris, got %+v", findings)
	}
	applyFixes(t, findings)
	wantClean(t, opts.StateDir)
}

// TestDoctorTruncatedManifest: a torn mid-write manifest is corrupt,
// and without a readable manifest every shard file is unverifiable.
// Running the printed fixes leaves a clean (if empty) directory.
func TestDoctorTruncatedManifest(t *testing.T) {
	opts := completedState(t, 6, 2)
	manPath := manifestPath(opts.StateDir)
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := DoctorState(opts.StateDir, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"corrupt-manifest", "unverifiable-shard", "unverifiable-shard"}
	if got := doctorCodes(findings); !reflect.DeepEqual(got, want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
	if findings[0].Fix != "rm "+manPath {
		t.Fatalf("corrupt-manifest fix = %q", findings[0].Fix)
	}
	// The spec manifest now has no manifest to skew against, which is
	// fine — but it should still be there after the fixes.
	applyFixes(t, findings)
	wantClean(t, opts.StateDir)
}

func TestDoctorOrphanedShard(t *testing.T) {
	opts := completedState(t, 6, 2)
	orphan := shardFile(opts.StateDir, 7) // slot 7 of a 2-shard layout
	if err := os.WriteFile(orphan, emptyGzip(), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := DoctorState(opts.StateDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Code != "orphaned-shard" || findings[0].Path != orphan {
		t.Fatalf("want one orphaned-shard on %s, got %+v", orphan, findings)
	}
	applyFixes(t, findings)
	wantClean(t, opts.StateDir)
}

// TestDoctorCorruptDoneShard: truncating a DONE shard's file mid-record
// is the bit-rot case resume cannot see until it re-reads; doctor must
// pinpoint it. After the fix (removing the file) the directory is clean
// again — a done shard with no file is resume-recoverable by contract.
func TestDoctorCorruptDoneShard(t *testing.T) {
	opts := completedState(t, 6, 2)
	path := shardFile(opts.StateDir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := DoctorState(opts.StateDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Code != "corrupt-shard" || findings[0].Path != path {
		t.Fatalf("want one corrupt-shard on %s, got %+v", path, findings)
	}
	applyFixes(t, findings)
	wantClean(t, opts.StateDir)
}

// plainRecords encodes records as one uncompressed JSONL stream — the
// legacy shard file form.
func plainRecords(t *testing.T, ks ...int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := results.NewJSONL(&buf)
	for _, k := range ks {
		if err := sink.Write(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDoctorMixedShardPair: a plain shard file next to its gzip form —
// what a crash mid-upgrade by an older coordinator left — is older
// state however the two compare. Doctor reports the plain twin as
// old-state and judges the gzip file alone; resume never reads the
// plain file.
func TestDoctorMixedShardPair(t *testing.T) {
	t.Run("superseded-plain", func(t *testing.T) {
		opts := completedState(t, 6, 2)
		// Shard 0 owns {0,2,4}; a stale plain file with the WRONG records
		// next to the valid gz.
		plain := filepath.Join(opts.StateDir, "shard-0000.jsonl")
		if err := os.WriteFile(plain, plainRecords(t, 0, 2), 0o644); err != nil {
			t.Fatal(err)
		}
		findings, err := DoctorState(opts.StateDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || findings[0].Code != "old-state" || findings[0].Path != plain {
			t.Fatalf("want one old-state on %s, got %+v", plain, findings)
		}
		applyFixes(t, findings)
		wantClean(t, opts.StateDir)
	})
	t.Run("torn-gzip", func(t *testing.T) {
		opts := completedState(t, 6, 2)
		gz := shardFile(opts.StateDir, 0)
		data, err := os.ReadFile(gz)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gz, data[:len(data)-4], 0o644); err != nil {
			t.Fatal(err)
		}
		plain := filepath.Join(opts.StateDir, "shard-0000.jsonl")
		if err := os.WriteFile(plain, plainRecords(t, 0, 2, 4), 0o644); err != nil {
			t.Fatal(err)
		}
		findings, err := DoctorState(opts.StateDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := doctorCodes(findings), []string{"old-state", "corrupt-shard"}; !reflect.DeepEqual(got, want) ||
			findings[0].Path != plain || findings[1].Path != gz {
			t.Fatalf("want old-state on %s and corrupt-shard on %s, got %+v", plain, gz, findings)
		}

		// Resume re-runs the torn shard from its gzip file alone: the
		// valid plain records are never served.
		opts.Resume = true
		var launched []int
		opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
			launched = append(launched, task.Index)
			return testWorker(6, nil, nil)(ctx, task, out, logw)
		}
		var buf bytes.Buffer
		opts.Sink = results.NewJSONL(&buf)
		if _, err := Coordinate(opts); err != nil {
			t.Fatal(err)
		}
		if buf.String() != serialBytes(t, 6) {
			t.Fatal("resume next to a plain twin broke the merged bytes")
		}
		if !reflect.DeepEqual(launched, []int{0}) {
			t.Fatalf("resume launched %v, want the torn shard 0", launched)
		}
		findings, err = DoctorState(opts.StateDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || findings[0].Code != "old-state" || findings[0].Path != plain {
			t.Fatalf("after resume, want only the plain twin's old-state, got %+v", findings)
		}
		applyFixes(t, findings)
		wantClean(t, opts.StateDir)
	})
}

// TestDoctorV1Manifest: a version-1 manifest is older state — exactly
// one old-state finding whose fix removes the manifest — and without a
// readable manifest the shard files it leaves are unverifiable.
// Running the printed fixes leaves a clean directory.
func TestDoctorV1Manifest(t *testing.T) {
	t.Run("manifest-only", func(t *testing.T) {
		state := t.TempDir()
		manPath := manifestPath(state)
		if err := os.WriteFile(manPath, []byte(v1Manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		findings, err := DoctorState(state, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || findings[0].Code != "old-state" || findings[0].Path != manPath {
			t.Fatalf("want one old-state on %s, got %+v", manPath, findings)
		}
		if findings[0].Fix != "rm "+manPath {
			t.Fatalf("old-state fix = %q, want %q", findings[0].Fix, "rm "+manPath)
		}
		applyFixes(t, findings)
		wantClean(t, state)
	})
	t.Run("with-shards", func(t *testing.T) {
		opts := completedState(t, 6, 2)
		manPath := manifestPath(opts.StateDir)
		if err := os.WriteFile(manPath, []byte(v1Manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		plain := filepath.Join(opts.StateDir, "shard-0002.jsonl")
		if err := os.WriteFile(plain, plainRecords(t, 2, 5), 0o644); err != nil {
			t.Fatal(err)
		}
		findings, err := DoctorState(opts.StateDir, "")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"old-state", "unverifiable-shard", "unverifiable-shard", "old-state"}
		if got := doctorCodes(findings); !reflect.DeepEqual(got, want) {
			t.Fatalf("findings %v, want %v", got, want)
		}
		if findings[3].Path != plain {
			t.Fatalf("plain shard finding on %s, want %s", findings[3].Path, plain)
		}
		applyFixes(t, findings)
		wantClean(t, opts.StateDir)
	})
}

func TestDoctorSpec(t *testing.T) {
	t.Run("corrupt", func(t *testing.T) {
		opts := completedState(t, 6, 2)
		specPath := SpecPath(opts.StateDir)
		if err := os.WriteFile(specPath, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		findings, err := DoctorState(opts.StateDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || findings[0].Code != "corrupt-spec" {
			t.Fatalf("want one corrupt-spec, got %+v", findings)
		}
		applyFixes(t, findings)
		wantClean(t, opts.StateDir)
	})
	t.Run("skew", func(t *testing.T) {
		opts := completedState(t, 6, 2)
		if err := SaveSpec(opts.StateDir, "other-params", []string{"d0"}); err != nil {
			t.Fatal(err)
		}
		findings, err := DoctorState(opts.StateDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 || findings[0].Code != "spec-skew" {
			t.Fatalf("want one spec-skew, got %+v", findings)
		}
		applyFixes(t, findings)
		wantClean(t, opts.StateDir)
	})
	t.Run("update-params-are-not-skew", func(t *testing.T) {
		// An interrupted `update` leaves the manifest holding the spec's
		// params plus the sparse |update= suffix — legitimate, not skew.
		opts := completedState(t, 6, 2)
		man, err := loadManifest(opts.StateDir)
		if err != nil || man == nil {
			t.Fatalf("manifest: %v", err)
		}
		man.Params = opts.Params + "|update=1,3,"
		if err := man.save(chaos.OS, opts.StateDir); err != nil {
			t.Fatal(err)
		}
		findings, err := DoctorState(opts.StateDir, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			if f.Code == "spec-skew" {
				t.Fatalf("update params misread as skew: %+v", f)
			}
		}
	})
}

// --- Lock hardening -----------------------------------------------------

func TestLockOwnerStale(t *testing.T) {
	self := os.Getpid()
	start := pidStartTime(self)
	cases := []struct {
		name             string
		owner            lockOwner
		stale, decidable bool
	}{
		{"legacy-dead-pid", lockOwner{Pid: 999999999}, true, true},
		{"legacy-live-pid", lockOwner{Pid: self}, false, true},
		{"foreign-host", lockOwner{Pid: 1, Host: "another-host", Start: "7"}, false, false},
		{"same-host-dead", lockOwner{Pid: 999999999, Host: "this-host", Start: "7"}, true, true},
		{"garbage", lockOwner{Pid: 0}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stale, decidable := tc.owner.stale("this-host")
			if stale != tc.stale || decidable != tc.decidable {
				t.Fatalf("stale(%+v) = (%v, %v), want (%v, %v)",
					tc.owner, stale, decidable, tc.stale, tc.decidable)
			}
		})
	}
	if start != "" {
		// Pid reuse: the pid is alive but its start time is not the one
		// the lock recorded — the original owner is gone.
		host, _ := os.Hostname()
		reused := lockOwner{Pid: self, Host: host, Start: start + "0"}
		if stale, decidable := reused.stale(host); !stale || !decidable {
			t.Fatalf("reused pid judged (%v, %v), want stale", stale, decidable)
		}
		// And the genuine owner identity is NOT stale.
		own := lockOwner{Pid: self, Host: host, Start: start}
		if stale, decidable := own.stale(host); stale || !decidable {
			t.Fatalf("live owner judged (%v, %v), want live", stale, decidable)
		}
	}
	t.Run("same-host-zombie", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("process state is read from /proc")
		}
		// A killed but unreaped owner still answers signal 0 and keeps
		// its start time, yet it holds nothing: the lock is stale.
		cmd := exec.Command("sleep", "60")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		pid := cmd.Process.Pid
		host, _ := os.Hostname()
		owner := lockOwner{Pid: pid, Host: host, Start: pidStartTime(pid)}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); procState(pid) != "Z"; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				cmd.Wait()
				t.Fatalf("killed pid %d never became a zombie (state %q)", pid, procState(pid))
			}
		}
		stale, decidable := owner.stale(host)
		cmd.Wait()
		if !stale || !decidable {
			t.Fatalf("zombie owner judged (%v, %v), want stale", stale, decidable)
		}
	})
}

// procState reads the one-letter state of a Linux process from
// /proc/<pid>/stat ("" when it cannot be read).
func procState(pid int) string {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ""
	}
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

func TestAcquireLockRefusesForeignHost(t *testing.T) {
	dir := t.TempDir()
	lock := filepath.Join(dir, lockName)
	if err := os.WriteFile(lock, []byte("4242\nsome-other-host\n777\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := acquireLock(dir)
	if err == nil || !strings.Contains(err.Error(), "refusing to steal") {
		t.Fatalf("want foreign-host refusal, got %v", err)
	}
	// The foreign lock must be untouched: never stolen, never removed.
	if _, statErr := os.Stat(lock); statErr != nil {
		t.Fatalf("foreign lock disturbed: %v", statErr)
	}
}

func TestAcquireLockStealsReusedPid(t *testing.T) {
	self := os.Getpid()
	if pidStartTime(self) == "" {
		t.Skip("no process start time on this platform; pid reuse is undetectable here")
	}
	dir := t.TempDir()
	host, _ := os.Hostname()
	// A lock naming OUR live pid but a different start time: the pid was
	// reused, the recording coordinator is gone.
	content := fmt.Sprintf("%d\n%s\n%s\n", self, host, pidStartTime(self)+"0")
	if err := os.WriteFile(filepath.Join(dir, lockName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	release, err := acquireLock(dir)
	if err != nil {
		t.Fatalf("reused-pid lock not stolen: %v", err)
	}
	release()
}

func TestAcquireLockRecordsIdentityAndHonorsLegacy(t *testing.T) {
	dir := t.TempDir()
	release, err := acquireLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, lockName))
	if err != nil {
		t.Fatal(err)
	}
	owner := parseLockOwner(data)
	host, _ := os.Hostname()
	if owner.Pid != os.Getpid() || owner.Host != host || owner.Start != pidStartTime(os.Getpid()) {
		t.Fatalf("lock identity = %+v, want this process's", owner)
	}
	release()

	// Legacy pid-only locks still gate: a live one refuses, a dead one
	// is stolen.
	if err := os.WriteFile(filepath.Join(dir, lockName), []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := acquireLock(dir); err == nil || !strings.Contains(err.Error(), "live coordinator") {
		t.Fatalf("live legacy lock not refused: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, lockName), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	release, err = acquireLock(dir)
	if err != nil {
		t.Fatalf("dead legacy lock not stolen: %v", err)
	}
	release()
}

// --- Sparse universe runs -----------------------------------------------

// TestCoordinateSparseUniverse: a run over an explicit global index set
// (what `update` dispatches) shards and merges those indices only, in
// universe order, with records keeping their global indices.
func TestCoordinateSparseUniverse(t *testing.T) {
	universe := []int{2, 5, 9, 14}
	opts := baseOptions(t, len(universe), 2)
	opts.Universe = universe
	opts.Run = testWorker(20, nil, nil)
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	res, err := Coordinate(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	sink := results.NewJSONL(&want)
	for _, k := range universe {
		if err := sink.Write(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.String() != want.String() {
		t.Fatalf("sparse merge = %q, want %q", buf.String(), want.String())
	}
	if res.Records != len(universe) {
		t.Fatalf("records = %d, want %d", res.Records, len(universe))
	}

	// Resume over the same universe relaunches nothing and reproduces
	// the bytes; the manifest round-trips the universe.
	opts.Resume = true
	var launched []int
	opts.Run = func(ctx context.Context, task Task, out, logw io.Writer) error {
		launched = append(launched, task.Index)
		return testWorker(20, nil, nil)(ctx, task, out, logw)
	}
	buf.Reset()
	opts.Sink = results.NewJSONL(&buf)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}
	if len(launched) != 0 {
		t.Fatalf("sparse resume relaunched %v", launched)
	}
	if buf.String() != want.String() {
		t.Fatal("sparse resume bytes differ")
	}

	// A resume under a DIFFERENT universe is a different campaign.
	opts.Universe = []int{2, 5, 9, 15}
	if _, err := Coordinate(opts); err == nil || !strings.Contains(err.Error(), "covers index set") {
		t.Fatalf("universe change not refused on resume: %v", err)
	}

	// More shards than universe indices: the surplus shards are empty,
	// and an empty index set is an empty shard, on a fresh run and on
	// resume alike.
	small := []int{2, 5}
	opts = baseOptions(t, len(small), 4)
	opts.Universe = small
	opts.Run = testWorker(20, nil, nil)
	var wantSmall bytes.Buffer
	sink = results.NewJSONL(&wantSmall)
	for _, k := range small {
		if err := sink.Write(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, resume := range []bool{false, true} {
		opts.Resume = resume
		buf.Reset()
		opts.Sink = results.NewJSONL(&buf)
		if _, err := Coordinate(opts); err != nil {
			t.Fatalf("resume=%v: %v", resume, err)
		}
		if buf.String() != wantSmall.String() {
			t.Fatalf("resume=%v: sparse merge over empty shards = %q, want %q", resume, buf.String(), wantSmall.String())
		}
	}
}

// TestCoordinateReplace: Replace discards an existing unrelated
// manifest (and its stale shard files) instead of refusing — the
// update workflow's "same state dir, new sparse campaign" entry.
func TestCoordinateReplace(t *testing.T) {
	first := completedState(t, 9, 3)
	opts := baseOptions(t, 3, 3)
	opts.StateDir = first.StateDir
	opts.Params = "test-params|update=1,4,7,"
	opts.Universe = []int{1, 4, 7}
	opts.Replace = true
	opts.Run = testWorker(9, nil, nil)
	var buf bytes.Buffer
	opts.Sink = results.NewJSONL(&buf)
	if _, err := Coordinate(opts); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	sink := results.NewJSONL(&want)
	for _, k := range []int{1, 4, 7} {
		if err := sink.Write(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.String() != want.String() {
		t.Fatal("replace run bytes differ from the sparse reference")
	}
	man, err := loadManifest(opts.StateDir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	if man.Params != opts.Params {
		t.Fatalf("replace kept params %q", man.Params)
	}
	// Resume + Replace together is a contradiction.
	opts.Resume = true
	if _, err := Coordinate(opts); err == nil {
		t.Fatal("Resume+Replace not refused")
	}
}

// TestReadStatusWarmingUp: an empty-progress manifest has no calibrated
// throughput; Status must say so instead of handing renderers a zero to
// divide by.
func TestReadStatusWarmingUp(t *testing.T) {
	opts := baseOptions(t, 8, 2)
	costs := make([]float64, 8)
	for k := range costs {
		costs[k] = 3
	}
	opts.Costs = costs
	man := newManifest(opts, planPartition(8, 2, nil))
	man.init()
	if err := man.save(chaos.OS, opts.StateDir); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStatus(opts.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Calibrated {
		t.Fatal("empty-progress manifest reported a calibrated model")
	}
	if st.EstimatedRemaining != 0 {
		t.Fatalf("uncalibrated estimate = %v, want 0", st.EstimatedRemaining)
	}
}
