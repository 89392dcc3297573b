package simclock

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpanPartitions(t *testing.T) {
	for _, tc := range []struct{ shards, n int }{
		{1, 0}, {1, 7}, {2, 7}, {3, 2}, {8, 100}, {8, 3}, {5, 5},
	} {
		next := 0
		total := 0
		for s := 0; s < tc.shards; s++ {
			lo, hi := Span(s, tc.shards, tc.n)
			if lo != next {
				t.Errorf("Span(%d, %d, %d): lo = %d, want %d (contiguous cover)", s, tc.shards, tc.n, lo, next)
			}
			if hi < lo {
				t.Errorf("Span(%d, %d, %d): hi %d < lo %d", s, tc.shards, tc.n, hi, lo)
			}
			if size := hi - lo; size > tc.n/tc.shards+1 {
				t.Errorf("Span(%d, %d, %d): size %d exceeds even split by more than one", s, tc.shards, tc.n, size)
			}
			next = hi
			total += hi - lo
		}
		if next != tc.n || total != tc.n {
			t.Errorf("Span(*, %d, %d): covered [0, %d), want [0, %d)", tc.shards, tc.n, next, tc.n)
		}
	}
}

func TestPoolRunCoversEveryShardOnce(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		p := NewPool(shards)
		counts := make([]int64, shards)
		for round := 0; round < 50; round++ {
			p.Run(func(s int) { atomic.AddInt64(&counts[s], 1) })
		}
		for s, c := range counts {
			if c != 50 {
				t.Errorf("%d shards: shard %d ran %d times, want 50", shards, s, c)
			}
		}
	}
}

func TestPoolRunIsABarrier(t *testing.T) {
	p := NewPool(4)
	var during atomic.Int64
	for round := 0; round < 20; round++ {
		p.Run(func(s int) {
			during.Add(1)
			time.Sleep(time.Millisecond)
			during.Add(-1)
		})
		if v := during.Load(); v != 0 {
			t.Fatalf("round %d: Run returned with %d shards still inside f", round, v)
		}
	}
}

func TestNilAndSingleShardPoolsDegenerate(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Shards(); got != 1 {
		t.Fatalf("nil pool Shards() = %d, want 1", got)
	}
	ran := 0
	nilPool.Run(func(s int) {
		if s != 0 {
			t.Fatalf("nil pool ran shard %d", s)
		}
		ran++
	})
	if ran != 1 {
		t.Fatalf("nil pool ran f %d times, want 1", ran)
	}
	if got := NewPool(1).Shards(); got != 1 {
		t.Fatalf("NewPool(1).Shards() = %d, want 1", got)
	}
}

func TestNewPoolRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPool(%d) did not panic", n)
				}
			}()
			NewPool(n)
		}()
	}
}

// TestPoolAbandonedShutsDownWorkers pins the finalizer contract: dropping
// the last reference to a multi-shard pool must let GC reclaim it and stop
// its workers — pooled campaign sites churn through sync.Pool, and leaked
// worker goroutines would accumulate across trials.
func TestPoolAbandonedShutsDownWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		p := NewPool(8)
		p.Run(func(int) {})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("worker goroutines still alive %v after abandoning the pool: %d, started from %d",
		5*time.Second, runtime.NumGoroutine(), before)
}

// --- Prepared wheel entries ---

// preparedHarness registers a mix of prepared and plain entries whose
// callbacks append to a shared journal; the journal must be independent
// of the pool's shard count because applies replay in registration order.
func preparedJournal(t *testing.T, pool *Pool) []string {
	t.Helper()
	sim := New(1)
	w := NewWheel(sim)
	w.SetPool(pool)
	var journal []string
	for i := 0; i < 10; i++ {
		i := i
		label := fmt.Sprintf("prep%d", i)
		w.AddPrepared(Minute, Minute, label, func(now Time) func(Time) {
			// Prepare is read-only by contract; record via the returned
			// apply so the journal sees serialised order only.
			return func(now Time) {
				journal = append(journal, fmt.Sprintf("%s@%d", label, now/Minute))
			}
		})
		if i%3 == 0 {
			label := fmt.Sprintf("plain%d", i)
			w.Add(Minute, Minute, label, func(now Time) {
				journal = append(journal, fmt.Sprintf("%s@%d", label, now/Minute))
			})
		}
	}
	sim.RunUntil(5 * Minute)
	return journal
}

func TestPreparedEntriesMatchSerialOrderAtAnyShardCount(t *testing.T) {
	want := preparedJournal(t, nil)
	if len(want) == 0 {
		t.Fatal("serial journal is empty; harness broken")
	}
	for _, shards := range []int{1, 2, 3, 8} {
		got := preparedJournal(t, NewPool(shards))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: journal diverged from serial\n got: %v\nwant: %v", shards, got, want)
		}
	}
}

func TestPreparedNilApplySkips(t *testing.T) {
	sim := New(1)
	w := NewWheel(sim)
	w.SetPool(NewPool(4))
	applies := 0
	var prepCount atomic.Int64 // prepares run concurrently
	w.AddPrepared(Minute, Minute, "sometimes", func(now Time) func(Time) {
		prepCount.Add(1)
		if (now/Minute)%2 == 0 {
			return nil
		}
		return func(Time) { applies++ }
	})
	sim.RunUntil(6 * Minute)
	prepares := int(prepCount.Load())
	if prepares != 6 {
		t.Fatalf("prepare ran %d times, want 6", prepares)
	}
	if applies != 3 {
		t.Fatalf("apply ran %d times, want 3 (odd minutes only)", applies)
	}
}

func TestAddPreparedRejectsNil(t *testing.T) {
	sim := New(1)
	w := NewWheel(sim)
	defer func() {
		if recover() == nil {
			t.Error("AddPrepared(nil) did not panic")
		}
	}()
	w.AddPrepared(Minute, Minute, "nil", nil)
}
