// Package sweep is a generic, pure-stdlib bounded worker pool: Map
// evaluates a function over a slice on GOMAXPROCS workers by default, lands
// each result at its input index regardless of completion order, cancels
// outstanding work on the first error, and returns output indistinguishable
// from a plain sequential loop.
//
// It serves work whose items are heavy: the replicas of a tubenet campus
// study (each a full campus simulation) and dhllint's per-package pass.
// The analytical model's sweeps take microseconds per table and run as
// plain loops in core and astra.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Option configures a sweep.
type Option func(*options)

type options struct {
	workers int
}

// Workers bounds the worker pool at n goroutines. n <= 0 selects the
// default, runtime.GOMAXPROCS(0). Workers(1) runs the sweep as a plain
// inline loop with no goroutines — the sequential reference path.
func Workers(n int) Option {
	return func(o *options) { o.workers = n }
}

func resolve(opts []Option) options {
	o := options{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// ErrNilFunc is returned when Map is given a nil evaluation function.
var ErrNilFunc = errors.New("sweep: nil evaluation function")

// failure is the first-error slot of one parallel sweep. The out slice is
// index-partitioned — each worker writes only indices it claimed, so it
// needs no lock — but the failure slot is the one cell every worker may
// race on, hence the mutex and the lockcheck annotations.
type failure struct {
	mu sync.Mutex
	//dhllint:guardedby mu
	idx int
	//dhllint:guardedby mu
	err error
}

// record keeps the error of the lowest-indexed failing item, matching what
// a sequential loop would surface first.
func (f *failure) record(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil || i < f.idx {
		f.idx, f.err = i, err
	}
}

// get returns the recorded failure, if any.
func (f *failure) get() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.idx, f.err
}

// Map evaluates fn over every item on a bounded worker pool and returns the
// results in input order: out[i] = fn(ctx, items[i]) regardless of which
// worker finished first. The pool size defaults to GOMAXPROCS and is capped
// at len(items); Workers(1) degenerates to a plain sequential loop.
//
// On failure the sweep stops dispatching new items, cancels the derived
// context handed to in-flight calls, and returns the error of the
// lowest-indexed failing item among those evaluated (which, for a
// deterministic fn, is the same error a sequential loop would surface).
// Cancellation of the parent ctx is propagated as ctx.Err().
func Map[I, O any](ctx context.Context, items []I, fn func(context.Context, I) (O, error), opts ...Option) ([]O, error) {
	if fn == nil {
		return nil, ErrNilFunc
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]O, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	workers := resolve(opts).workers
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o, err := fn(ctx, items[i])
			if err != nil {
				return nil, fmt.Errorf("sweep: item %d: %w", i, err)
			}
			out[i] = o
		}
		return out, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		fl   failure
		wg   sync.WaitGroup
	)
	fail := func(i int, err error) {
		fl.record(i, err)
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || wctx.Err() != nil {
					return
				}
				o, err := fn(wctx, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	idx, err := fl.get()
	if err != nil {
		return nil, fmt.Errorf("sweep: item %d: %w", idx, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
