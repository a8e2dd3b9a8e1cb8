package jobs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Map fans fn out over items on a bounded worker pool and returns the
// results in input order, which keeps parallel runs byte-identical to
// serial ones when fn is deterministic per item. The first error cancels
// the shared context and aborts remaining work; panics in fn are
// converted to errors. workers < 1 defaults to GOMAXPROCS. Every
// experiment sweep fans out through Map.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, item T) (R, error)) ([]R, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if cctx.Err() != nil {
					continue // drain after abort
				}
				r, err := safeCall(cctx, items[i], fn)
				if err != nil {
					fail(err)
					continue
				}
				out[i] = r
			}
		}()
	}
feed:
	for i := range items {
		select {
		case idx <- i:
		case <-cctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func safeCall[T, R any](ctx context.Context, item T, fn func(ctx context.Context, item T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: worker panicked: %v", p)
		}
	}()
	return fn(ctx, item)
}
