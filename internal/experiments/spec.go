package experiments

// This file is the incremental-recompute core: it turns a campaign spec
// into the per-configuration digest list that IS the campaign's identity
// (ConfigDigests), and diffs two such lists into the exact index set a
// changed spec needs re-run (DiffSpecs). The digests are the same
// content addresses the result cache is keyed by, so "unchanged digest"
// and "cache hit" are the same fact — the differ never guesses what a
// grid edit invalidated, it reads it off the addresses.

import (
	"encoding/json"
	"fmt"

	"sensorfusion/internal/cache"
)

// ConfigDigests resolves the campaign spec to one digest per planned
// configuration, in global enumeration order. The digest of index k is
// exactly the cache key Table1Run stores row k under — what participates
// is every result-bearing knob (widths, fa, discretization steps,
// attacker bounds, tie policy, seed) and nothing else: never Parallel,
// Batch, Shard, or wall times, which cannot change results. Sharding is
// ignored — a spec describes the whole campaign, not one worker's slice.
func (opts CampaignOptions) ConfigDigests() ([]string, error) {
	full := opts
	full.Shard = ShardSpec{}
	o := full.Table1Options.withDefaults()
	cfgs, _, err := full.plan()
	if err != nil {
		return nil, err
	}
	digests := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		digests[i] = o.digest(cfg)
	}
	return digests, nil
}

// SpecDiff partitions a new spec's configuration indices against an old
// spec's digest list. Every index of the NEW spec lands in exactly one
// of the three classes; indices of the old spec with no surviving
// digest simply disappear (their cache entries stay valid, just unread).
type SpecDiff struct {
	// Unchanged are new-spec indices whose digest appears anywhere in
	// the old spec — their results are already computed and cached, even
	// if the grid edit moved them to a different enumeration index.
	Unchanged []int
	// Invalidated are new-spec indices inside the old spec's index range
	// whose digest is new — an edit changed what that slot computes.
	Invalidated []int
	// New are new-spec indices beyond the old spec's range with a digest
	// the old spec never computed — the campaign grew.
	New []int
}

// Rerun returns the strictly increasing union of Invalidated and New —
// the exact index set an incremental update must re-dispatch.
func (d SpecDiff) Rerun() []int {
	out := make([]int, 0, len(d.Invalidated)+len(d.New))
	i, j := 0, 0
	for i < len(d.Invalidated) || j < len(d.New) {
		switch {
		case j == len(d.New) || (i < len(d.Invalidated) && d.Invalidated[i] < d.New[j]):
			out = append(out, d.Invalidated[i])
			i++
		default:
			out = append(out, d.New[j])
			j++
		}
	}
	return out
}

// DiffSpecs classifies every index of the new digest list against the
// old one. Membership is by digest value, not position: a configuration
// that merely MOVED (its digest survives at a different index) is
// unchanged, because the cache is content-addressed and will replay it
// wherever it lands.
func DiffSpecs(old, cur []string) SpecDiff {
	had := make(map[string]bool, len(old))
	for _, d := range old {
		had[d] = true
	}
	var diff SpecDiff
	for k, d := range cur {
		switch {
		case had[d]:
			diff.Unchanged = append(diff.Unchanged, k)
		case k < len(old):
			diff.Invalidated = append(diff.Invalidated, k)
		default:
			diff.New = append(diff.New, k)
		}
	}
	return diff
}

// InspectCacheEntry validates one scanned cache entry against the
// experiment pipeline's entry format — the cache package stores opaque
// bytes; only this package knows what a well-formed entry looks like.
// A non-nil error marks an entry that must not be replayed: unparseable
// JSON, or a self-digest (possibly empty) disagreeing with the key it
// is stored under.
func InspectCacheEntry(e cache.Entry) error {
	var entry table1Entry
	if err := json.Unmarshal(e.Data, &entry); err != nil {
		return fmt.Errorf("experiments: cache entry %s: corrupt JSON: %w", e.Key, err)
	}
	if entry.Digest != e.Key {
		return fmt.Errorf("experiments: cache entry %s carries digest %q — entry is misplaced or corrupt", e.Key, entry.Digest)
	}
	return nil
}
