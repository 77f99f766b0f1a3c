// Package par is the shared parallel runtime under BePI's preprocessing
// stages and sparse kernels: a bounded goroutine pool and a chunked
// index-range scheduler with deterministic chunk boundaries.
//
// Design constraints, in order:
//
//  1. Determinism. Chunk boundaries depend only on the input size (or
//     weight prefix) and the part count, never on scheduling. Every kernel
//     built on top of this package writes disjoint output ranges and keeps
//     its per-element accumulation order unchanged, so parallel results
//     are bit-identical to the serial path at any worker count.
//  2. No deadlocks under nesting. A parallel stage may call another
//     parallel stage (ChooseHubRatio profiles candidates concurrently and
//     each profile runs a parallel Schur build). Pool slots are therefore
//     acquired with a non-blocking try: a chunk that cannot get a slot
//     immediately runs inline on the submitting goroutine. The submitter
//     never blocks waiting for capacity it might itself be holding.
//  3. Bounded concurrency. At most Workers chunks of any pool run on
//     spawned goroutines at a time, however many stages share it. One
//     engine-level Parallelism knob therefore caps the compute fan-out of
//     preprocessing and of all query kernels together.
package par

import (
	"runtime"
	"sync"
)

// Pool bounds how many chunks may execute on spawned goroutines at once.
// A Pool is safe for concurrent use by any number of goroutines and may be
// shared between engines; the zero-cost way to get one is Shared.
//
// A nil *Pool is valid everywhere and means "run serially".
type Pool struct {
	workers int
	sem     chan struct{} // nil when workers == 1
}

// NewPool returns a pool that runs at most workers chunks concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0). A one-worker pool executes
// everything inline on the caller.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.sem = make(chan struct{}, workers)
	}
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, sized to runtime.GOMAXPROCS(0) at
// first use. Engines built with Parallelism == 0 share it, so any number of
// concurrent preprocessing runs and query streams together stay bounded by
// one machine-sized budget.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// Workers returns the pool's concurrency bound; 1 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ChunkBounds splits [0, n) into parts contiguous chunks of near-equal
// length and returns the parts+1 boundary offsets. Deterministic in (n,
// parts): bounds[c] = c*n/parts, so the first n%parts chunks are one longer.
// parts is clamped to [1, n] (to 1 when n == 0).
func ChunkBounds(n, parts int) []int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, parts+1)
	for c := 1; c <= parts; c++ {
		bounds[c] = c * n / parts
	}
	return bounds
}

// BoundsByPrefix splits [0, n) into parts contiguous chunks of near-equal
// total weight, where prefix is the length-(n+1) cumulative weight array
// (prefix[i] = total weight of items [0, i), as in a CSR row-pointer
// array). The element type is generic so compact row-pointer arrays (int32
// or int64, as stored by sparse.CSR32) drive the same partition without
// widening to []int first. Deterministic in (prefix, parts). Empty chunks
// are avoided: every chunk spans at least one item while items remain, so
// bounds are strictly increasing and parts is clamped to [1, n].
func BoundsByPrefix[T int | int32 | int64](prefix []T, parts int) []int {
	n := len(prefix) - 1
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	total := int64(prefix[n]) - int64(prefix[0])
	bounds := make([]int, parts+1)
	bounds[parts] = n
	at := 0
	for c := 1; c < parts; c++ {
		// Last boundary whose cumulative weight stays within the c-th
		// equal share.
		target := int64(prefix[0]) + total*int64(c)/int64(parts)
		for at < n && int64(prefix[at+1]) <= target {
			at++
		}
		// Leave enough items for the remaining chunks to be non-empty.
		if hi := n - (parts - c); at > hi {
			at = hi
		}
		if lo := bounds[c-1] + 1; at < lo {
			at = lo
		}
		bounds[c] = at
	}
	return bounds
}

// BoundsByWeight is BoundsByPrefix over the items [0, n) of weights
// weight(i), without storing their prefix: it walks the weights once for
// their total and once more to cut the chunks. The boundaries are
// BoundsByPrefix's on the prefix of the weights.
func BoundsByWeight(n, parts int, weight func(i int) int) []int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	total := 0
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	bounds := make([]int, parts+1)
	bounds[parts] = n
	at, sum := 0, 0 // sum is the weight of [0, at)
	for c := 1; c < parts; c++ {
		target := total * c / parts
		for at < n && sum+weight(at) <= target {
			sum += weight(at)
			at++
		}
		for hi := n - (parts - c); at > hi; {
			at--
			sum -= weight(at)
		}
		for lo := bounds[c-1] + 1; at < lo; at++ {
			sum += weight(at)
		}
		bounds[c] = at
	}
	return bounds
}

// For splits [0, n) into Workers() evenly sized chunks and runs
// fn(chunk, lo, hi) for each, returning when all chunks are done. Chunk 0
// always runs on the calling goroutine; the rest run on pool goroutines as
// capacity allows and inline otherwise. A nil or one-worker pool runs a
// single chunk fn(0, 0, n) inline.
func (p *Pool) For(n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.Workers() == 1 {
		fn(0, 0, n)
		return
	}
	p.ForBounds(ChunkBounds(n, p.workers), fn)
}

// ForBounds is For with caller-supplied chunk boundaries (e.g. from
// BoundsByPrefix for weight-balanced partitions). bounds must be
// non-decreasing; chunk c covers [bounds[c], bounds[c+1]).
func (p *Pool) ForBounds(bounds []int, fn func(chunk, lo, hi int)) {
	parts := len(bounds) - 1
	if parts <= 0 {
		return
	}
	if parts == 1 || p.Workers() == 1 {
		for c := 0; c < parts; c++ {
			fn(c, bounds[c], bounds[c+1])
		}
		return
	}
	var wg sync.WaitGroup
	var inline []int
	for c := 1; c < parts; c++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(c int) {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				fn(c, bounds[c], bounds[c+1])
			}(c)
		default:
			// Pool saturated (possibly by our own caller chain): run this
			// chunk on the submitter rather than wait — see the package
			// comment on nesting.
			inline = append(inline, c)
		}
	}
	fn(0, bounds[0], bounds[1])
	for _, c := range inline {
		fn(c, bounds[c], bounds[c+1])
	}
	wg.Wait()
}

// Each runs fn(i) for every i in [0, n), distributing contiguous index
// ranges over the pool. Iteration order within a chunk is ascending.
func (p *Pool) Each(n int, fn func(i int)) {
	p.For(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
