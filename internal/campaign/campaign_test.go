package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestTaskSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10000; i++ {
		s := TaskSeed(42, i)
		if s != TaskSeed(42, i) {
			t.Fatalf("TaskSeed(42, %d) not deterministic", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("TaskSeed collision: tasks %d and %d both seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if TaskSeed(1, 0) == TaskSeed(2, 0) {
		t.Fatal("different roots produced the same task seed")
	}
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, runtime.NumCPU(), 64} {
		const n = 137
		counts := make([]atomic.Int32, n)
		err := Run(n, Options{Workers: workers}, func(i int, rng *rand.Rand) error {
			if rng == nil {
				return errors.New("nil rng")
			}
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunTaskRNGMatchesSeedTree(t *testing.T) {
	const n, root = 25, int64(7)
	draws := make([]float64, n)
	if err := Run(n, Options{Workers: 4, Seed: root}, func(i int, rng *rand.Rand) error {
		draws[i] = rng.Float64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := rand.New(rand.NewSource(TaskSeed(root, i))).Float64()
		if draws[i] != want {
			t.Fatalf("task %d drew %v, want %v from TaskSeed(%d, %d)", i, draws[i], want, root, i)
		}
	}
}

func TestMapIsWorkerCountInvariant(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(40, Options{Workers: workers, Seed: 99},
			func(i int, rng *rand.Rand) (float64, error) {
				return float64(i) + rng.Float64(), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 3, runtime.NumCPU()} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := Run(50, Options{Workers: workers}, func(i int, _ *rand.Rand) error {
			if i == 13 || i == 31 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 13 failed" {
			t.Fatalf("workers=%d: got %v, want the task-13 error", workers, err)
		}
	}
}

func TestMapReturnsNilSliceOnError(t *testing.T) {
	out, err := Map(4, Options{Workers: 2}, func(i int, _ *rand.Rand) (int, error) {
		if i == 2 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatalf("expected nil results on error, got %v", out)
	}
}

func TestRunEdgeCounts(t *testing.T) {
	if err := Run(0, Options{}, func(int, *rand.Rand) error { return errors.New("must not run") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if err := Run(-1, Options{}, nil); err == nil {
		t.Fatal("n=-1: expected error")
	}
}

func TestStreamEmitsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, runtime.NumCPU(), 64} {
		const n = 123
		var got []int
		err := Stream(n, Options{Workers: workers, Seed: 5},
			func(i int, rng *rand.Rand) (int, error) {
				return i * 10, nil
			},
			func(i int, v int) error {
				if v != i*10 {
					return fmt.Errorf("task %d delivered %d", i, v)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emission %d was task %d (out of order)", workers, i, idx)
			}
		}
	}
}

func TestStreamMatchesMapForAnyWorkerCount(t *testing.T) {
	const n, seed = 60, int64(11)
	want, err := Map(n, Options{Workers: 1, Seed: seed},
		func(i int, rng *rand.Rand) (float64, error) { return float64(i) + rng.Float64(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		var got []float64
		err := Stream(n, Options{Workers: workers, Seed: seed},
			func(i int, rng *rand.Rand) (float64, error) { return float64(i) + rng.Float64(), nil },
			func(i int, v float64) error { got = append(got, v); return nil })
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: stream[%d]=%v, map says %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestStreamTaskErrorIsLowestIndexed(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var emitted []int
		err := Stream(50, Options{Workers: workers},
			func(i int, _ *rand.Rand) (int, error) {
				if i == 17 || i == 33 {
					return 0, fmt.Errorf("task %d failed", i)
				}
				return i, nil
			},
			func(i int, v int) error { emitted = append(emitted, i); return nil })
		if err == nil || err.Error() != "task 17 failed" {
			t.Fatalf("workers=%d: got %v, want the task-17 error", workers, err)
		}
		for _, i := range emitted {
			if i >= 17 {
				t.Fatalf("workers=%d: emitted task %d past the failure point", workers, i)
			}
		}
	}
}

// TestStreamEmitErrorStopsRun: tasks past the failing emit index are
// held until emit(5) has failed and the engine has recorded it, so no
// task can slip past the failure by finishing early; only the claims
// in flight at that moment (at most one per worker) may still run.
func TestStreamEmitErrorStopsRun(t *testing.T) {
	const failAt = 5
	for _, workers := range []int{1, 2, 8} {
		var ran, early atomic.Int32
		gate := make(chan struct{})
		opts := Options{
			Workers: workers,
			// Run marks the run failed before it reports the task done,
			// and emit(5) fails inside whichever of tasks 0..5 finishes
			// last, so the last of their OnTaskDone calls comes after
			// the failure is recorded.
			OnTaskDone: func(i int) {
				if i <= failAt && early.Add(1) == failAt+1 {
					close(gate)
				}
			},
		}
		err := Stream(100, opts,
			func(i int, _ *rand.Rand) (int, error) {
				if i > failAt {
					<-gate
				}
				ran.Add(1)
				return i, nil
			},
			func(i int, v int) error {
				if i == failAt {
					return errors.New("sink full")
				}
				return nil
			})
		if err == nil || err.Error() != "sink full" {
			t.Fatalf("workers=%d: got %v, want the sink error", workers, err)
		}
		if n := ran.Load(); n > failAt+1+int32(workers) {
			t.Fatalf("workers=%d: %d tasks ran, want at most %d after the emit failure", workers, n, failAt+1+workers)
		}
	}
}

// TestRunContextCancellation: cancel mid-run; unclaimed tasks are
// skipped, claimed tasks complete, and the context error is returned.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	gate := make(chan struct{})
	err := Run(100, Options{Workers: 2, Context: ctx}, func(i int, _ *rand.Rand) error {
		if ran.Add(1) == 2 {
			cancel()
			close(gate)
		}
		<-gate // both in-flight tasks finish only after cancellation
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n < 2 || n > 4 {
		t.Fatalf("expected only in-flight tasks to run after cancel, got %d", n)
	}
}

// TestRunTaskErrorBeatsCancellation: a recorded task failure takes
// precedence over a later cancellation, keeping the returned error
// deterministic.
func TestRunTaskErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := Run(10, Options{Workers: 1, Context: ctx}, func(i int, _ *rand.Rand) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want task error, got %v", err)
	}
}

// TestStreamCancellationDeliversPrefix: records emitted before a
// cancellation form a contiguous prefix of the deterministic stream.
func TestStreamCancellationDeliversPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var got []int
	err := Stream(50, Options{Workers: 1, Context: ctx},
		func(i int, _ *rand.Rand) (int, error) {
			if i == 7 {
				cancel()
			}
			return i, nil
		},
		func(i int, v int) error {
			got = append(got, v)
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for k, v := range got {
		if v != k {
			t.Fatalf("emitted prefix not contiguous: %v", got)
		}
	}
	if len(got) < 7 {
		t.Fatalf("tasks claimed before cancel must be delivered, got %d", len(got))
	}
}

// TestStreamBatchedMatchesStream: for every batch size and worker
// count, the batched stream emits exactly the items, in order, with the
// per-ITEM seed tree — byte-for-byte the semantics of Stream.
func TestStreamBatchedMatchesStream(t *testing.T) {
	const n, root = 53, int64(11)
	type itemVal struct {
		item int
		v    float64
	}
	collect := func(batch, workers int) []itemVal {
		t.Helper()
		var got []itemVal
		err := StreamBatched(n, batch, Options{Workers: workers, Seed: root},
			func(i int, rng *rand.Rand) (float64, error) {
				return float64(i) + rng.Float64(), nil
			},
			func(i int, v float64) error {
				got = append(got, itemVal{i, v})
				return nil
			})
		if err != nil {
			t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
		}
		return got
	}
	ref := collect(1, 1)
	if len(ref) != n {
		t.Fatalf("reference emitted %d items", len(ref))
	}
	for k, iv := range ref {
		if iv.item != k {
			t.Fatalf("reference out of order at %d: %+v", k, iv)
		}
		want := float64(k) + rand.New(rand.NewSource(TaskSeed(root, k))).Float64()
		if iv.v != want {
			t.Fatalf("item %d drew %v, want the per-item seed tree value %v", k, iv.v, want)
		}
	}
	for _, batch := range []int{0, 2, 7, 53, 100} {
		for _, workers := range []int{1, 3, runtime.NumCPU()} {
			got := collect(batch, workers)
			if len(got) != n {
				t.Fatalf("batch=%d workers=%d emitted %d items", batch, workers, len(got))
			}
			for k := range got {
				if got[k] != ref[k] {
					t.Fatalf("batch=%d workers=%d diverges at item %d: %+v vs %+v",
						batch, workers, k, got[k], ref[k])
				}
			}
		}
	}
}

// TestStreamBatchedErrorIsDeterministic: the lowest-indexed failing
// item wins regardless of batch size and worker count, exactly like
// Stream.
func TestStreamBatchedErrorIsDeterministic(t *testing.T) {
	const n = 30
	for _, batch := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			err := StreamBatched(n, batch, Options{Workers: workers},
				func(i int, _ *rand.Rand) (int, error) {
					if i == 7 || i == 23 {
						return 0, fmt.Errorf("item %d failed", i)
					}
					return i, nil
				},
				func(int, int) error { return nil })
			if err == nil || err.Error() != "item 7 failed" {
				t.Fatalf("batch=%d workers=%d: got %v, want the lowest-indexed failure", batch, workers, err)
			}
		}
	}
}

// TestStreamBatchedEmitErrorStopsRun: an emit failure surfaces as-is
// and no later items are emitted.
func TestStreamBatchedEmitErrorStopsRun(t *testing.T) {
	sentinel := errors.New("sink full")
	var emitted atomic.Int64
	err := StreamBatched(40, 8, Options{Workers: 4},
		func(i int, _ *rand.Rand) (int, error) { return i, nil },
		func(i int, _ int) error {
			if i == 10 {
				return sentinel
			}
			emitted.Add(1)
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("emit error not surfaced: %v", err)
	}
	if emitted.Load() != 10 {
		t.Fatalf("emitted %d items after failure at 10", emitted.Load())
	}
}

// BenchmarkCampaignBatched measures engine overhead amortization: many
// cheap items streamed one-per-task versus batched. The work per item
// is a single RNG draw, so the difference is pure per-task overhead.
func BenchmarkCampaignBatched(b *testing.B) {
	const n = 8192
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				var sum float64
				err := StreamBatched(n, batch, Options{Workers: 4, Seed: 1},
					func(i int, rng *rand.Rand) (float64, error) { return rng.Float64(), nil },
					func(_ int, v float64) error { sum += v; return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}
