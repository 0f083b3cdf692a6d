package stream

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Gather runs work(0), ..., work(n-1) on a bounded pool and returns the
// results in index order — the parallel half every built-in Source shares
// before it hands its per-unit streams to Deliver (one unit per simulated
// node, log file or store segment).
//
// At most workers items run at once (0 or less selects GOMAXPROCS; the
// pool never exceeds n). Workers claim indices in ascending order from a
// shared counter and write each result straight into its slot, so the
// output order is the index order whatever the completion order.
//
// Gather returns only after every worker has exited. Once ctx is
// cancelled no further item starts (items already running finish, or
// watch ctx themselves). The error is deterministic: a cancelled ctx
// wins; otherwise the error of the lowest-indexed failing item, even when
// a higher index failed first. On error the results are discarded.
func Gather[T any](ctx context.Context, workers, n int, work func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = work(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
