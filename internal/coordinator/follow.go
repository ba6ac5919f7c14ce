package coordinator

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"sensorfusion/internal/results"
)

// follower is the follow-the-leader merger: an order-restoring,
// duplicate-tolerant release buffer. Records arrive from the tailer in
// whatever interleaving the shard files grow in; the follower releases
// them to the sink in strictly increasing global index order as soon as
// the contiguous prefix extends. Duplicates appear legitimately — a
// retried shard replays records its killed predecessor already streamed,
// and the final drain re-reads every file — and must be byte-identical
// to what was already seen; any divergence is a determinism violation
// and fails the run. Released records are not retained: the follower
// keeps only a 16-hex-digit content digest per released index, so a
// re-read can still be compared while follow-mode memory stays a few
// bytes per record instead of the whole record set.
type follower struct {
	mu       sync.Mutex
	sink     results.Sink
	total    int
	next     int
	pending  map[int]results.Record
	released []string // content digest of released record k
}

func newFollower(sink results.Sink, total int) *follower {
	return &follower{sink: sink, total: total, pending: make(map[int]results.Record)}
}

// add accepts one record, deduplicating and releasing the contiguous
// prefix to the sink.
func (f *follower) add(rec results.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rec.Index < 0 || rec.Index >= f.total {
		return fmt.Errorf("coordinator: record index %d outside campaign [0,%d)", rec.Index, f.total)
	}
	if rec.Index < f.next {
		dig, err := results.RecordDigest(rec)
		if err != nil {
			return err
		}
		if dig != f.released[rec.Index] {
			return fmt.Errorf("coordinator: record %d re-read with different content — shard workers are not deterministic", rec.Index)
		}
		return nil
	}
	if held, dup := f.pending[rec.Index]; dup {
		if !held.Equal(rec) {
			return fmt.Errorf("coordinator: record %d re-read with different content — shard workers are not deterministic", rec.Index)
		}
		return nil
	}
	f.pending[rec.Index] = rec
	for {
		held, ok := f.pending[f.next]
		if !ok {
			return nil
		}
		delete(f.pending, f.next)
		if err := f.sink.Write(held); err != nil {
			return err
		}
		dig, err := results.RecordDigest(held)
		if err != nil {
			return err
		}
		f.released = append(f.released, dig)
		f.next++
	}
}

// finish verifies every record was released and returns the count.
func (f *follower) finish() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next != f.total {
		return 0, fmt.Errorf("coordinator: follow merge incomplete: released %d of %d records", f.next, f.total)
	}
	return f.next, nil
}

// tail polls the shard files until the context is canceled, feeding
// newly appended complete lines to the follower. It never blocks the
// workers: files are read snapshot-style with their sizes tracked per
// shard, and a file that shrinks (a retry truncated it) or tears
// mid-line is simply re-read from the start on a later tick — the
// follower's deduplication makes re-reads idempotent.
func (c *coord) tail(ctx context.Context) {
	offsets := make([]int64, c.opts.Shards)
	ticker := time.NewTicker(c.opts.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			for i := range offsets {
				if err := c.tailShard(shardFile(c.opts.StateDir, i), &offsets[i]); err != nil {
					c.fail(err)
					return
				}
			}
		}
	}
}

// tailShard feeds the decodable prefix of a growing shard file to the
// follower. The coordinator's flush-per-write keeps complete deflate
// blocks on disk, so the prefix of a live gzip stream decompresses up
// to the growth point. A gzip stream cannot be resumed mid-flate, so
// every read restarts decompression from byte 0; to keep the total
// tailing cost linear instead of quadratic in the shard size, *offset
// tracks the compressed size at the last full read and the shard is
// only re-read once it has grown by 10% since then. Young shards
// re-read cheaply on almost every tick (10% of small is small), large
// shards amortize to O(size) total decompression over their lifetime,
// and the follower's final drainAll delivers whatever the last tick's
// threshold deferred. Decode errors mean "the tail is still being
// written" and end the read quietly; the next qualifying tick retries
// from the top and the follower deduplicates everything already
// delivered. Only a follower rejection — a genuine content conflict or
// sink failure — is fatal.
func (c *coord) tailShard(path string, offset *int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return nil // not created yet
	}
	size := info.Size()
	if size == *offset {
		return nil
	}
	if size > *offset && size-*offset < *offset/10 {
		return nil // not enough growth to pay another full decompression
	}
	*offset = size
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil // header not fully flushed yet
	}
	defer zr.Close()
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := results.ParseRecord(line)
		if err != nil {
			return nil // torn tail record; complete ones were delivered
		}
		if err := c.fol.add(rec); err != nil {
			return err
		}
	}
	return nil // scanner errors (unexpected EOF mid-stream) are expected on a live file
}

// drainAll replays every shard file through the follower once the
// workers are done — anything the poller missed between its last tick
// and completion is delivered here, and everything it did see
// deduplicates away. Files are read incrementally: the drain holds one
// record at a time plus the follower's contiguous-prefix buffer.
func (c *coord) drainAll() error {
	for i := 0; i < c.opts.Shards; i++ {
		rd, err := results.NewFileReader(shardFile(c.opts.StateDir, i))
		if err != nil {
			return err
		}
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rd.Close()
				return fmt.Errorf("coordinator: shard %d: %w", i, err)
			}
			if err := c.fol.add(rec); err != nil {
				rd.Close()
				return err
			}
		}
		rd.Close()
	}
	return nil
}
