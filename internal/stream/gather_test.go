package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back at baseline:
// Gather's workers have called wg.Done by the time it returns, but the
// runtime may need a beat to retire them.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatherIndexOrder: results land in index order even when later
// items finish first.
func TestGatherIndexOrder(t *testing.T) {
	const n = 8
	// Item i waits for item i+1 to finish, so completion order is the
	// exact reverse of index order.
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	var order []int
	var mu sync.Mutex
	got, err := Gather(context.Background(), n, n, func(i int) (int, error) {
		<-finished[i+1]
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		close(finished[i])
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if order[0] != n-1 || order[n-1] != 0 {
		t.Fatalf("completion order %v, want reversed", order)
	}
}

// TestGatherLowestIndexErrorWins: when a higher index fails first, the
// lower index's error is still the one returned.
func TestGatherLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		highDone := make(chan struct{})
		got, err := Gather(context.Background(), workers, 10, func(i int) (int, error) {
			switch i {
			case 7:
				close(highDone)
				return 0, fmt.Errorf("item %d", i)
			case 3:
				if workers > 1 {
					<-highDone // fail only after item 7 has failed
				}
				return 0, fmt.Errorf("item %d", i)
			}
			return i, nil
		})
		if got != nil || err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, item 3)", workers, got, err)
		}
	}
}

// TestGatherPreCancelled: a cancelled ctx starts no item and returns
// ctx.Err().
func TestGatherPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	got, err := Gather(ctx, 4, 100, func(int) (int, error) {
		started.Add(1)
		return 0, nil
	})
	if got != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", got, err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d items started under a cancelled ctx", n)
	}
}

// TestGatherMidRunCancel: once ctx is cancelled no further item starts,
// the cancellation outranks every item error, and every worker is gone.
func TestGatherMidRunCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Items 0..workers-2 hold their workers until the last worker's item
	// has cancelled, so exactly workers items are in flight at the cancel
	// and none may start after it.
	const workers = 4
	cancelled := make(chan struct{})
	var started atomic.Int64
	_, err := Gather(ctx, workers, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == workers-1 {
			cancel()
			close(cancelled)
			return i, nil
		}
		<-cancelled
		return 0, fmt.Errorf("item %d", i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := started.Load(); n != workers {
		t.Fatalf("%d items started, want exactly the %d in flight at the cancel", n, workers)
	}
	waitGoroutines(t, baseline)

	// A single worker is sequential: the item that cancels is the last.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	started.Store(0)
	if _, err := Gather(ctx, 1, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == 5 {
			cancel()
		}
		return i, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("workers=1: got %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 6 {
		t.Fatalf("workers=1: %d items started, want 6", n)
	}
	waitGoroutines(t, baseline)
}

// TestGatherEmpty: n == 0 starts no goroutine and returns no results.
func TestGatherEmpty(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{-1, 0, 4} {
		got, err := Gather(context.Background(), workers, 0, func(int) (int, error) {
			t.Error("work called for n == 0")
			return 0, nil
		})
		if err != nil || len(got) != 0 {
			t.Fatalf("workers=%d: got (%v, %v), want empty", workers, got, err)
		}
		if n := runtime.NumGoroutine(); n != baseline {
			t.Fatalf("workers=%d: %d goroutines, want %d", workers, n, baseline)
		}
	}
}

// TestGatherWorkerBound: workers <= 0 selects GOMAXPROCS, workers > n is
// clamped to n, and no more than the bound ever run at once.
func TestGatherWorkerBound(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, n, want int
	}{
		{0, 64, min(procs, 64)},
		{-3, 64, min(procs, 64)},
		{2, 64, 2},
		{1, 64, 1},
		{16, 3, 3},
	}
	for _, c := range cases {
		var running, peak atomic.Int64
		// Hold every item until the expected number of workers is busy at
		// once (or a short timeout passes), so the peak reaches the bound.
		got, err := Gather(context.Background(), c.workers, c.n, func(i int) (int, error) {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			deadline := time.Now().Add(200 * time.Millisecond)
			for peak.Load() < int64(c.want) && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			running.Add(-1)
			return i, nil
		})
		if err != nil || len(got) != c.n {
			t.Fatalf("workers=%d n=%d: got %d results, err %v", c.workers, c.n, len(got), err)
		}
		if p := peak.Load(); p != int64(c.want) {
			t.Fatalf("workers=%d n=%d: peak concurrency %d, want %d", c.workers, c.n, p, c.want)
		}
	}
}
