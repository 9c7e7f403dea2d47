// Package sweep is the parallel design-space exploration engine: a generic,
// pure-stdlib bounded worker pool for evaluating independent model points
// concurrently with deterministic, input-ordered results.
//
// Every sweep in the repository — the Table VI design space, the ablations,
// the §V-E minimum-spec search, and the Figure 6 iso-power curves — is a map
// of a pure evaluation function over a slice (or cartesian grid) of
// configurations. sweep.Map runs that map over GOMAXPROCS workers by
// default, lands each result at its input index regardless of completion
// order, cancels outstanding work on the first error, and returns output
// indistinguishable from a plain sequential loop.
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

// Grid is an N-dimensional cartesian index space for factorial sweeps. A
// Grid with dims (a, b, c) enumerates a×b×c points in row-major order: the
// last axis varies fastest, matching a nest of for loops with axis 0
// outermost.
type Grid struct {
	dims []int
}

// NewGrid builds a grid with the given axis sizes. Every axis must have at
// least one point.
func NewGrid(dims ...int) (Grid, error) {
	if len(dims) == 0 {
		return Grid{}, errors.New("sweep: grid needs at least one axis")
	}
	for i, d := range dims {
		if d < 1 {
			return Grid{}, fmt.Errorf("sweep: grid axis %d has size %d, need ≥ 1", i, d)
		}
	}
	return Grid{dims: append([]int(nil), dims...)}, nil
}

// Dims returns a copy of the axis sizes.
func (g Grid) Dims() []int { return append([]int(nil), g.dims...) }

// Size is the total number of grid points.
func (g Grid) Size() int {
	if len(g.dims) == 0 {
		return 0
	}
	n := 1
	for _, d := range g.dims {
		n *= d
	}
	return n
}

// Coord decodes a flat row-major index into per-axis coordinates.
func (g Grid) Coord(flat int) []int {
	c := make([]int, len(g.dims))
	for i := len(g.dims) - 1; i >= 0; i-- {
		c[i] = flat % g.dims[i]
		flat /= g.dims[i]
	}
	return c
}

// MapGrid evaluates fn at every grid point on the worker pool, returning
// results in row-major order. fn receives the point's per-axis coordinates.
func MapGrid[O any](ctx context.Context, g Grid, fn func(context.Context, []int) (O, error), opts ...Option) ([]O, error) {
	if fn == nil {
		return nil, ErrNilFunc
	}
	idx := make([]int, g.Size())
	for i := range idx {
		idx[i] = i
	}
	return Map(ctx, idx, func(ctx context.Context, i int) (O, error) {
		return fn(ctx, g.Coord(i))
	}, opts...)
}

// Cache is a concurrency-safe, single-flight memoization table for repeated
// evaluations within a sweep (e.g. the same core.Launch(Config) appearing at
// many grid points). The first Do for a key runs fn exactly once — even
// under concurrent callers, which block until it completes — and every later
// Do returns the memoized value. Errors are memoized too: the evaluation
// functions in this repository are deterministic in their key.
//
// The zero Cache is ready to use.
type Cache[K comparable, V any] struct {
	m      sync.Map // K → *cacheEntry[V]
	keys   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Do returns the memoized result for key, computing it with fn on first use.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	e, loaded := c.m.Load(key)
	if !loaded {
		e, loaded = c.m.LoadOrStore(key, new(cacheEntry[V]))
		if !loaded {
			c.keys.Add(1)
		}
	}
	entry := e.(*cacheEntry[V])
	computed := false
	entry.once.Do(func() {
		entry.v, entry.err = fn()
		computed = true
	})
	if computed {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return entry.v, entry.err
}

// Len is the number of distinct keys memoized so far.
func (c *Cache[K, V]) Len() int { return int(c.keys.Load()) }

// Stats reports how many Do calls were served from the cache (hits) and how
// many computed fresh values (misses).
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
