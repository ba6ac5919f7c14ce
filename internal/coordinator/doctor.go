package coordinator

// Doctor is the state layer's self-check: it validates everything a
// state directory persists — the lock, the progress manifest, the spec
// manifest, and every shard record file — and reports each problem as a
// Finding carrying one copy-pasteable fix command. The design contract
// mirrors the manifest's recovery rules exactly: states that a plain
// `-resume` repairs on its own (a missing shard file, a pending shard's
// partial output) are NOT findings, while states resume cannot repair
// (a torn manifest, a done shard whose records are corrupt) or refuses
// to read (older state: a manifest of another format version, a plain
// uncompressed shard file), are. Running every printed fix leaves a
// directory doctor reports clean; doctor itself never modifies
// anything.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"sensorfusion/internal/chaos"
)

// Finding is one problem doctor diagnosed.
type Finding struct {
	// Code is the finding's stable machine-readable kind:
	// "stale-lock", "foreign-lock", "lock-debris", "corrupt-manifest",
	// "old-state", "unverifiable-shard", "orphaned-shard",
	// "corrupt-shard", "corrupt-spec", "spec-skew", "partial-result",
	// "stale-partial", "corrupt-partial", "stale-speculation",
	// "orphaned-spill".
	Code string
	// Path is the offending file.
	Path string
	// Detail describes the problem in one sentence.
	Detail string
	// Fix is the exact command that repairs this finding, empty when no
	// repair can be advised (a foreign host's lock: only its owner knows
	// whether that coordinator still runs).
	Fix string
}

// shardFileRE matches shard artifacts and captures the slot number.
var shardFileRE = regexp.MustCompile(`^shard-(\d{4})\.(jsonl|jsonl\.gz|log)$`)

// DoctorState validates a campaign state directory and returns its
// findings (empty = clean). reproCmd is the command name fix commands
// invoke for repairs that go through the CLI ("repro" when empty).
func DoctorState(stateDir, reproCmd string) ([]Finding, error) {
	if reproCmd == "" {
		reproCmd = "repro"
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		return nil, fmt.Errorf("coordinator: doctor: %w", err)
	}
	var findings []Finding
	add := func(code, path, detail, fix string) {
		findings = append(findings, Finding{Code: code, Path: path, Detail: detail, Fix: fix})
	}

	// Lock: a live same-host owner is a running campaign (clean); a
	// provably dead owner is stale debris; a foreign host's lock is
	// reported but never judged — pids are per-machine.
	host, _ := os.Hostname()
	lockPath := filepath.Join(stateDir, lockName)
	liveRun := false
	if data, err := os.ReadFile(lockPath); err == nil {
		owner := parseLockOwner(data)
		stale, decidable := owner.stale(host)
		switch {
		case !decidable:
			add("foreign-lock", lockPath,
				fmt.Sprintf("lock held by coordinator pid %d on host %s; liveness cannot be judged from %s — remove it only where that run was started", owner.Pid, owner.Host, host),
				"")
		case stale:
			add("stale-lock", lockPath,
				fmt.Sprintf("lock owner pid %d is gone (killed coordinator); the lock is stale", owner.Pid),
				"rm "+lockPath)
		default:
			liveRun = true
		}
	}
	for _, de := range entries {
		name := de.Name()
		if name != lockName && strings.HasPrefix(name, lockName+".") {
			p := filepath.Join(stateDir, name)
			add("lock-debris", p, "leftover lock temp/stale file from an interrupted acquire", "rm "+p)
		}
	}

	// Manifest: resolve it if possible; every shard-file judgment below
	// depends on the expected index sets it carries.
	var indices [][]int
	var man *manifest
	manPath := manifestPath(stateDir)
	man, err = loadManifest(stateDir)
	switch {
	case errors.Is(err, errOldState):
		add("old-state", manPath, err.Error(), "rm "+manPath)
	case err != nil:
		add("corrupt-manifest", manPath, err.Error(), "rm "+manPath)
	case man != nil:
		man.init()
		resolved, rerr := man.shardIndices()
		if rerr != nil {
			add("corrupt-manifest", manPath, rerr.Error(), "rm "+manPath)
			man = nil
		} else {
			indices = resolved
		}
	}

	// Shard record files. With no readable manifest nothing ties them
	// to any campaign, so each is unverifiable; with one, a slot beyond
	// the shard count is an orphan from an abandoned layout, and an
	// in-range file must validate when its ledger entry claims done. A
	// plain .jsonl shard file is older state whatever the manifest says.
	for _, de := range entries {
		m := shardFileRE.FindStringSubmatch(de.Name())
		if m == nil {
			continue
		}
		p := filepath.Join(stateDir, de.Name())
		switch m[2] {
		case "log":
			continue // logs are append-only diagnostics, never validated
		case "jsonl":
			add("old-state", p, "plain uncompressed shard file from an older state dir; no read path opens it", "rm "+p)
			continue
		}
		slot := 0
		fmt.Sscanf(m[1], "%d", &slot)
		switch {
		case man == nil:
			add("unverifiable-shard", p, "shard file cannot be validated without a readable manifest", "rm "+p)
		case slot >= man.Shards:
			add("orphaned-shard", p,
				fmt.Sprintf("shard slot %d does not exist in this campaign's %d-shard layout (abandoned attempt)", slot, man.Shards),
				"rm "+p)
		default:
			findings = append(findings, doctorShard(p, indices[slot], man.Shard[slot].State)...)
		}
	}

	// Spec manifest: corrupt files and params skew both mean the digest
	// list cannot be trusted for incremental update; removing it only
	// costs a full (cache-warm) re-plan on the next update.
	specPath := SpecPath(stateDir)
	if fileExists(specPath) {
		spec, serr := LoadSpec(stateDir)
		switch {
		case serr != nil:
			add("corrupt-spec", specPath, serr.Error(), "rm "+specPath)
		case man != nil && spec.Params != man.Params &&
			!strings.HasPrefix(man.Params, spec.Params+"|update="):
			// An update run's manifest legitimately carries the spec's
			// params plus its sparse |update= index set — not skew.
			add("spec-skew", specPath,
				fmt.Sprintf("spec was written for params %q but the manifest holds %q", spec.Params, man.Params),
				"rm "+specPath)
		}
	}

	// Transient run artifacts — speculative side files, merge spill
	// buckets, and the partial-result report — are all legitimate while a
	// campaign is LIVE, so they are judged only when no live same-host
	// coordinator holds the lock.
	if !liveRun {
		pp := PartialPath(stateDir)
		if fileExists(pp) {
			rep, perr := LoadPartial(stateDir)
			switch {
			case perr != nil:
				add("corrupt-partial", pp, perr.Error(), "rm "+pp)
			case man != nil && rep.Params != man.Params:
				add("stale-partial", pp,
					fmt.Sprintf("partial report was written for params %q but the manifest holds %q", rep.Params, man.Params),
					"rm "+pp)
			default:
				add("partial-result", pp,
					fmt.Sprintf("campaign ended partially: %d/%d records merged, %d shards failed terminally", rep.Merged, rep.Total, len(rep.Failed)),
					fmt.Sprintf("%s coordinate -resume -state %s", reproCmd, stateDir))
			}
		}
		specFiles, _ := filepath.Glob(filepath.Join(stateDir, "shard-*.spec.jsonl.gz"))
		sort.Strings(specFiles)
		for _, p := range specFiles {
			add("stale-speculation", p,
				"leftover speculative attempt file from an interrupted run (resume never reads it)",
				"rm "+p)
		}
		spillDir := filepath.Join(stateDir, "merge-spill")
		if ents, derr := os.ReadDir(spillDir); derr == nil && len(ents) > 0 {
			add("orphaned-spill", spillDir,
				fmt.Sprintf("%d orphaned merge spill bucket(s) from an interrupted merge (the next merge truncates and reuses them)", len(ents)),
				"rm -r "+spillDir)
		}
	}
	return findings, nil
}

// doctorShard judges an in-range shard slot's record file. A missing
// or partial file for a non-done shard is normal mid-campaign state
// that resume repairs, never a finding. A DONE shard's file must
// validate — corruption after the fact (bit rot, truncation, a torn
// mid-file record the fail-fast reader pinpoints) is exactly what
// resume cannot detect until it re-reads, and what doctor exists to
// surface.
func doctorShard(path string, indices []int, state string) []Finding {
	if state != shardDone {
		return nil
	}
	if _, err := validateShardFile(chaos.OS, path, indices); err != nil {
		return []Finding{{Code: "corrupt-shard", Path: path,
			Detail: fmt.Sprintf("shard is recorded done but its file does not validate: %v", err),
			Fix:    "rm " + path}}
	}
	return nil
}
