package coordinator

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sensorfusion/internal/cache"
	"sensorfusion/internal/chaos"
	"sensorfusion/internal/experiments"
)

// Shard lifecycle states recorded in the manifest. A shard is "done"
// only after its output file validated against the expected global
// index set; "running" survives in the manifest across a coordinator
// crash and is re-checked (and usually re-queued) on resume.
// "failed" is terminal within one Partial-mode run — the shard's
// attempt budget is spent or it is classified permanently poisoned —
// but not across runs: resume revalidates and demotes it to pending.
const (
	shardPending = "pending"
	shardRunning = "running"
	shardDone    = "done"
	shardFailed  = "failed"
)

// manifestName is the manifest's file name inside the state directory.
const manifestName = "manifest.json"

// manifestVersion guards the on-disk format: the one version every
// read path accepts. A state directory stamped with any other version
// is older state (errOldState) — a cache, by contract, that is removed
// and recomputed rather than migrated.
const manifestVersion = 2

// errOldState reports a state directory written in a format this
// version no longer reads. Its fix is always to delete the stale file
// and rerun; the shared result cache is unaffected, so the rerun
// replays every configuration it holds.
var errOldState = errors.New("older state dir")

// shardState is one shard's progress entry.
type shardState struct {
	// State is pending, running, done, or failed.
	State string `json:"state"`
	// Attempts counts worker launches for this shard across all
	// coordinator runs (retries and resumes included).
	Attempts int `json:"attempts"`
	// Records is the validated record count of a done shard.
	Records int `json:"records"`
	// Indices is the shard's global index set in the compact range form
	// of experiments.FormatIndexSet ("0-5,9"); empty for an empty shard.
	Indices string `json:"indices,omitempty"`
	// Cost is the shard's estimated cost in the cost model's abstract
	// units (0 when the run was not cost-balanced).
	Cost float64 `json:"cost,omitempty"`
	// ElapsedMS is the wall time in milliseconds of the attempt that
	// completed the shard — the measurement the cost model calibrates
	// against on later runs.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// LastError is the final attempt's error text of a failed shard
	// (Partial mode), cleared when the shard later completes.
	LastError string `json:"last_error,omitempty"`
	// FailClass is the terminal failure's classification (a FailClass
	// string), set alongside LastError.
	FailClass string `json:"fail_class,omitempty"`
}

// manifest is the coordinator's crash-safe progress ledger. It is
// written with cache.WriteFileAtomic on every shard state transition, so
// a coordinator killed at any instant leaves either the previous or the
// next consistent ledger on disk — never a torn one — and a restart
// resumes from exactly what the ledger says plus what revalidation of
// the shard files proves.
type manifest struct {
	Version int `json:"version"`
	// Params fingerprints the campaign parameters (seed, step, sample
	// size, shard count, total records). A resume against a state
	// directory built for different parameters is refused: the shard
	// files would merge into a stream that matches neither run.
	Params string       `json:"params"`
	Shards int          `json:"shards"`
	Total  int          `json:"total"`
	Shard  []shardState `json:"shard_state"`
	// Universe, when non-empty, is the SPARSE global index set this run
	// covers, in compact range form — the incremental-update case, where
	// a campaign re-runs only invalidated indices. Empty means the
	// contiguous [0, Total) every full campaign covers. Shard index sets
	// must exactly partition the universe either way.
	Universe string `json:"universe,omitempty"`
}

func manifestPath(stateDir string) string { return filepath.Join(stateDir, manifestName) }

// shardFile names shard i's gzip-compressed record stream inside the
// state directory.
func shardFile(stateDir string, i int) string {
	return filepath.Join(stateDir, fmt.Sprintf("shard-%04d.jsonl.gz", i))
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// specShardFile names the side file a speculative duplicate attempt of
// shard i writes to. Its base name deliberately does not contain the
// canonical shard file's base (".spec." sits inside, not appended), so
// a fault schedule targeting the canonical name never trips on the
// speculative copy. The winner is renamed over the canonical name;
// losers are removed.
func specShardFile(stateDir string, i int) string {
	return filepath.Join(stateDir, fmt.Sprintf("shard-%04d.spec.jsonl.gz", i))
}

// shardLog names shard i's worker log (stderr of every attempt,
// appended) inside the state directory.
func shardLog(stateDir string, i int) string {
	return filepath.Join(stateDir, fmt.Sprintf("shard-%04d.log", i))
}

// newManifest builds a fresh all-pending ledger for the run, recording
// each shard's planned index set and estimated cost.
func newManifest(o Options, partition [][]int) *manifest {
	m := &manifest{
		Version:  manifestVersion,
		Params:   o.Params,
		Shards:   o.Shards,
		Total:    o.Total,
		Universe: formatUniverse(o.Universe),
		Shard:    make([]shardState, o.Shards),
	}
	cost := partitionCost(partition, o.Costs)
	for i, indices := range partition {
		if len(indices) > 0 {
			m.Shard[i].Indices = experiments.FormatIndexSet(indices)
		}
		m.Shard[i].Cost = cost[i]
	}
	return m
}

func (m *manifest) init() {
	for i := range m.Shard {
		if m.Shard[i].State == "" {
			m.Shard[i].State = shardPending
		}
	}
}

// save publishes the ledger atomically through the run's filesystem
// seam (chaos.OS outside the fault harness).
func (m *manifest) save(fsys chaos.FS, stateDir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("coordinator: marshal manifest: %w", err)
	}
	if err := cache.WriteFileAtomicFS(fsys, manifestPath(stateDir), append(data, '\n')); err != nil {
		return fmt.Errorf("coordinator: save manifest: %w", err)
	}
	return nil
}

// loadManifest reads the ledger, reporting (nil, nil) when none exists.
func loadManifest(stateDir string) (*manifest, error) {
	data, err := os.ReadFile(manifestPath(stateDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coordinator: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("coordinator: corrupt manifest %s: %w", manifestPath(stateDir), err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("coordinator: %w: manifest version %d, want %d — remove %s and rerun (%s is kept, so the rerun replays every cached configuration)",
			errOldState, m.Version, manifestVersion, manifestPath(stateDir), filepath.Join(stateDir, "cache"))
	}
	return &m, nil
}

// formatUniverse renders a sparse universe for the manifest ("" for the
// nil contiguous default).
func formatUniverse(universe []int) string {
	if universe == nil {
		return ""
	}
	return experiments.FormatIndexSet(universe)
}

// universeIndices resolves the manifest's universe: nil for the
// contiguous [0, Total) default, else the parsed sparse set (whose size
// must be Total).
func (m *manifest) universeIndices() ([]int, error) {
	if m.Universe == "" {
		return nil, nil
	}
	universe, err := experiments.ParseIndexSet(m.Universe)
	if err != nil {
		return nil, fmt.Errorf("coordinator: manifest universe: %w", err)
	}
	if len(universe) != m.Total {
		return nil, fmt.Errorf("coordinator: manifest universe has %d indices for total %d", len(universe), m.Total)
	}
	return universe, nil
}

// shardIndices resolves every shard's global index set from the
// explicit sets the manifest stores (an empty Indices is an empty
// shard) and validates that they exactly partition the universe —
// [0, Total) for a full campaign, the manifest's sparse index set for
// an incremental one.
func (m *manifest) shardIndices() ([][]int, error) {
	universe, err := m.universeIndices()
	if err != nil {
		return nil, err
	}
	var posOf map[int]int
	if universe != nil {
		posOf = make(map[int]int, len(universe))
		for pos, k := range universe {
			posOf[k] = pos
		}
	}
	out := make([][]int, len(m.Shard))
	seen := make([]bool, m.Total)
	covered := 0
	for i := range m.Shard {
		var indices []int
		if spec := m.Shard[i].Indices; spec != "" {
			var err error
			indices, err = experiments.ParseIndexSet(spec)
			if err != nil {
				return nil, fmt.Errorf("coordinator: manifest shard %d: %w", i, err)
			}
		}
		for _, k := range indices {
			pos := k
			if posOf != nil {
				p, ok := posOf[k]
				if !ok {
					return nil, fmt.Errorf("coordinator: manifest shard %d claims index %d outside the universe", i, k)
				}
				pos = p
			}
			if pos >= m.Total || seen[pos] {
				return nil, fmt.Errorf("coordinator: manifest shard %d claims index %d, which is out of range or already owned", i, k)
			}
			seen[pos] = true
			covered++
		}
		out[i] = indices
	}
	if covered != m.Total {
		return nil, fmt.Errorf("coordinator: manifest shards cover %d of %d records", covered, m.Total)
	}
	return out, nil
}

// calibration fits the cost model from the manifest's timed done
// shards (entries with both a cost estimate and a recorded duration)
// and sums the estimated cost still pending or running — the one
// aggregation behind both the coordinator's progress log and the
// -watch ETA, so the two can never disagree on what counts as
// calibrated or remaining.
func (m *manifest) calibration() (model experiments.CostModel, ok bool, pendingCost float64) {
	var units []float64
	var elapsed []time.Duration
	for _, st := range m.Shard {
		if st.State == shardDone {
			if st.Cost > 0 && st.ElapsedMS > 0 {
				units = append(units, st.Cost)
				elapsed = append(elapsed, time.Duration(st.ElapsedMS)*time.Millisecond)
			}
		} else {
			pendingCost += st.Cost
		}
	}
	model, ok = experiments.FitCostModel(units, elapsed)
	return model, ok, pendingCost
}

// compatible checks a loaded ledger against this run's options.
func (m *manifest) compatible(o Options) error {
	switch {
	case m.Params != o.Params:
		return fmt.Errorf("coordinator: state dir was built for params %q, this run is %q", m.Params, o.Params)
	case m.Shards != o.Shards:
		return fmt.Errorf("coordinator: state dir was built for %d shards, this run wants %d", m.Shards, o.Shards)
	case m.Total != o.Total:
		return fmt.Errorf("coordinator: state dir expects %d records, this run %d", m.Total, o.Total)
	case m.Universe != formatUniverse(o.Universe):
		return fmt.Errorf("coordinator: state dir covers index set %q, this run %q", m.Universe, formatUniverse(o.Universe))
	case len(m.Shard) != m.Shards:
		return fmt.Errorf("coordinator: manifest has %d shard entries for %d shards", len(m.Shard), m.Shards)
	}
	return nil
}

// --- Lock file ----------------------------------------------------------

// lockName guards a state directory against two live coordinators. The
// file records the owner's identity as pid, hostname, and process start
// time (one per line); a lock whose identified process no longer runs
// is stale (the previous coordinator was SIGKILLed) and is stolen.
// Legacy locks holding only a pid are still honored — with pid-only
// liveness, which is the best a legacy lock allows.
const lockName = "coordinator.lock"

// lockOwner is the parsed identity a lock file records.
type lockOwner struct {
	Pid int
	// Host is the owner's hostname ("" in legacy pid-only locks). A
	// lock from another host is never judged for liveness — pids are
	// per-machine — and never stolen.
	Host string
	// Start is the owner process's start-time token (pidStartTime; ""
	// in legacy locks or on platforms without one). It is what makes
	// pid reuse detectable: a live process with the lock's pid but a
	// different start time is NOT the owner.
	Start string
}

// parseLockOwner reads a lock file's contents (pid\nhostname\nstart).
func parseLockOwner(data []byte) lockOwner {
	lines := strings.Split(string(data), "\n")
	var o lockOwner
	if len(lines) > 0 {
		o.Pid, _ = strconv.Atoi(strings.TrimSpace(lines[0]))
	}
	if len(lines) > 1 {
		o.Host = strings.TrimSpace(lines[1])
	}
	if len(lines) > 2 {
		o.Start = strings.TrimSpace(lines[2])
	}
	return o
}

// stale decides whether the lock's owner is provably gone from this
// host. Foreign-host locks are never stale from here (second return
// false). A live pid with a recorded start time that disagrees with the
// running process's is a REUSED pid: the owner is gone.
func (o lockOwner) stale(localHost string) (stale, decidable bool) {
	if o.Host != "" && localHost != "" && o.Host != localHost {
		return false, false
	}
	if o.Pid <= 0 {
		return true, true
	}
	if !pidAlive(o.Pid) {
		return true, true
	}
	if o.Start != "" {
		if now := pidStartTime(o.Pid); now != "" && now != o.Start {
			return true, true
		}
	}
	return false, true
}

func acquireLock(stateDir string) (release func(), err error) {
	path := filepath.Join(stateDir, lockName)
	host, _ := os.Hostname()
	// Publish the owner identity atomically: write it to a private temp
	// file, then hard-link that file to the lock name. Link fails if the
	// lock exists, and on success the lock appears with its identity
	// already inside — no window where a concurrent coordinator can read
	// an empty lock, misjudge it stale, and steal a live one.
	tmp, err := os.CreateTemp(stateDir, lockName+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("coordinator: lock: %w", err)
	}
	// CreateTemp's 0600 would hide the owner identity from other users
	// sharing the state dir; match the conventional mode.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("coordinator: lock: %w", err)
	}
	fmt.Fprintf(tmp, "%d\n%s\n%s\n", os.Getpid(), host, pidStartTime(os.Getpid()))
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("coordinator: lock: %w", err)
	}
	defer os.Remove(tmp.Name())
	for tries := 0; tries < 2; tries++ {
		if err := os.Link(tmp.Name(), path); err == nil {
			return func() { os.Remove(path) }, nil
		} else if !errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("coordinator: lock: %w", err)
		}
		data, readErr := os.ReadFile(path)
		if readErr != nil {
			// Lost a race with the owner's release; retry once.
			continue
		}
		owner := parseLockOwner(data)
		stale, decidable := owner.stale(host)
		if !decidable {
			return nil, fmt.Errorf("coordinator: state dir %s locked by coordinator pid %d on host %s — cannot judge liveness from %s, refusing to steal (remove %s by hand if that run is dead)",
				stateDir, owner.Pid, owner.Host, host, path)
		}
		if !stale {
			return nil, fmt.Errorf("coordinator: state dir %s locked by live coordinator pid %d", stateDir, owner.Pid)
		}
		// Stale lock from a killed coordinator: steal it by renaming it
		// away (never a blind remove — two concurrent stealers both
		// judging it stale would otherwise race, and the loser's remove
		// could delete the winner's freshly acquired lock). Rename is
		// atomic: exactly one stealer wins it; the loser's rename fails,
		// and its retry sees the winner's live lock and is refused.
		stale2 := fmt.Sprintf("%s.stale.%d", path, os.Getpid())
		if err := os.Rename(path, stale2); err == nil {
			os.Remove(stale2)
		}
	}
	return nil, fmt.Errorf("coordinator: could not acquire lock in %s", stateDir)
}
