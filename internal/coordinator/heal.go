package coordinator

// This file is the coordinator's self-healing machinery: attempt
// failures are CLASSIFIED (transient I/O vs straggler vs permanent),
// transient retries back off exponentially with deterministic seeded
// jitter, idle workers SPECULATIVELY re-launch the shard predicted to
// finish last (validation + the merge's dedup already tolerate
// duplicate attempts). All of it stays off the record hot path:
// classification and backoff run only on a failed attempt, speculation
// only on dispatch and completion transitions.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// FailClass labels why a shard attempt (or, terminally, a whole shard)
// failed — the classification driving the retry policy and reported in
// partial-result accounts.
type FailClass string

const (
	// FailTransient is a recoverable fault — an I/O error, a torn or
	// short write, a killed worker. Retried after a backoff delay.
	FailTransient FailClass = "transient-io"
	// FailStraggler is an attempt killed by its ShardTimeout deadline.
	// Re-queued immediately: the shared cache replays the completed
	// prefix, so the retry is forward progress, and waiting would only
	// lengthen the tail the deadline exists to cut.
	FailStraggler FailClass = "straggler"
	// FailPermanent is a poisoned shard: consecutive attempts failing
	// IDENTICALLY, the signature of a deterministic bug no retry budget
	// can outlast. Failed immediately without burning the remaining
	// attempts.
	FailPermanent FailClass = "permanent"
)

// classify sorts one attempt failure into its class. prev is the
// previous attempt's error text ("" on the first attempt): a repeat of
// the identical message is the poison signature — transient faults
// (torn bytes at some offset, a killed process, a full disk that
// recovered) virtually never reproduce to the character, while a
// deterministic failure always does.
func classify(err error, prev string, attempt int) FailClass {
	if errors.Is(err, context.DeadlineExceeded) {
		return FailStraggler
	}
	if attempt >= 2 && prev != "" && err.Error() == prev {
		return FailPermanent
	}
	return FailTransient
}

// splitmix64 is the same avalanche mix the campaign seed tree uses —
// platform-independent, so backoff schedules reproduce anywhere.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryDelay computes the backoff before re-dispatching shard after its
// attempt-th failure: base doubling per attempt, capped at max, with
// the result jittered into [d/2, d] by a pure hash of (seed, shard,
// attempt). Deterministic — the same run replays the same delays — but
// de-synchronized: two shards failing together back off differently, so
// their retries do not stampede the same recovering disk.
func retryDelay(base, max time.Duration, seed int64, shard, attempt int) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	if max < base {
		max = base
	}
	d := base
	for a := 1; a < attempt && d < max; a++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	jitter := time.Duration(splitmix64(uint64(seed)^uint64(shard)<<40^uint64(attempt)<<8) % uint64(half+1))
	return d - half + jitter
}

// pickSpeculationLocked chooses the running shard predicted to finish
// last — highest estimated cost, ties toward the lower index — that has
// not already been speculated on. Caller holds c.mu.
func (c *coord) pickSpeculationLocked() (int, bool) {
	best := -1
	for i := range c.running {
		if c.specTried[i] || c.specs[i] != nil {
			continue
		}
		if best < 0 || c.cost[i] > c.cost[best] || (c.cost[i] == c.cost[best] && i < best) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// runSpeculative performs a duplicate attempt of running shard i on an
// idle worker, writing to a side file so the primary attempt is never
// disturbed. Whichever attempt validates first publishes: the
// speculative winner renames its side file over the canonical name and
// completes the shard, canceling the primary; a speculative loser (the
// primary finished first, or the side output did not validate) cleans
// up silently. Correctness never depends on speculation — it only moves
// the finish line of the predicted-last shard.
func (c *coord) runSpeculative(ctx context.Context, i int) {
	c.mu.Lock()
	if c.man.Shard[i].State != shardRunning || c.running[i] == nil || c.fatal != nil {
		c.mu.Unlock()
		return
	}
	c.man.Shard[i].Attempts++
	attempt := c.man.Shard[i].Attempts
	c.attempts++
	c.speculated++
	actx, acancel := context.WithCancel(ctx)
	c.specs[i] = &attemptHandle{cancel: acancel}
	saveErr := c.saveManLocked()
	c.mu.Unlock()
	defer acancel()
	if saveErr != nil {
		c.fail(saveErr)
		return
	}
	c.logf("speculating on shard %d (predicted last, cost %.3g): duplicate attempt %d", i, c.cost[i], attempt)

	spec := specShardFile(c.opts.StateDir, i)
	start := time.Now()
	out, err := c.fsys.OpenFile(spec, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		err = c.attemptShard(actx, i, attempt, out)
	}
	n, verr := validateShardFile(c.fsys, spec, c.indices[i])

	c.mu.Lock()
	delete(c.specs, i)
	if st := c.man.Shard[i].State; st == shardDone || st == shardFailed || c.fatal != nil {
		// The shard resolved while this duplicate ran — the primary won,
		// or (Partial mode) the shard failed terminally and its account
		// is already settled. Either way this attempt just cleans up.
		c.mu.Unlock()
		c.fsys.Remove(spec)
		return
	}
	if verr != nil {
		c.mu.Unlock()
		c.fsys.Remove(spec)
		if err == nil {
			err = verr
		}
		c.logf("speculative attempt %d of shard %d lost: %v", attempt, i, err)
		return
	}
	// The speculative copy validated first: publish it as the shard file
	// (the primary's open handle detaches harmlessly) and complete.
	if rerr := c.fsys.Rename(spec, shardFile(c.opts.StateDir, i)); rerr != nil {
		c.mu.Unlock()
		c.fsys.Remove(spec)
		c.logf("speculative attempt %d of shard %d could not publish: %v", attempt, i, rerr)
		return
	}
	saveErr = c.completeLocked(i, n, time.Since(start), attempt, "speculative")
	c.mu.Unlock()
	if saveErr != nil {
		c.fail(saveErr)
	}
}

// failShardLocked records shard i's terminal failure in Partial mode:
// the shard is marked failed in the manifest (with its class and last
// error, so doctor and watch can explain it), accounted in the run's
// failed list, and the run CONTINUES — the remaining shards still merge
// into a usable partial result. Caller holds c.mu.
func (c *coord) failShardLocked(i, attempt int, class FailClass, err error) {
	c.man.Shard[i].State = shardFailed
	c.man.Shard[i].LastError = err.Error()
	c.man.Shard[i].FailClass = string(class)
	c.failed = append(c.failed, FailedShard{Shard: i, Attempts: attempt, Class: string(class), Error: err.Error()})
	c.remaining--
	if c.remaining == 0 {
		c.closed = true
	}
	if serr := c.saveManLocked(); serr != nil && c.fatal == nil {
		c.fatal = serr
	}
	c.cond.Broadcast()
	c.logf("shard %d FAILED terminally (%s) after %d attempts; continuing for a partial result", i, class, attempt)
}

// terminalError renders a shard's terminal failure with its class.
func terminalError(i, attempt int, class FailClass, err error) error {
	if class == FailPermanent {
		return fmt.Errorf("coordinator: shard %d is poisoned (%d consecutive attempts failed identically), last error: %w", i, attempt, err)
	}
	return fmt.Errorf("coordinator: shard %d failed %d times, last error: %w", i, attempt, err)
}
