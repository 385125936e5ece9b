// Package par is the shared parallel runtime under BePI's preprocessing
// stages and sparse kernels: a bounded goroutine pool, a chunked
// index-range scheduler with deterministic chunk boundaries, and
// per-chunk scratch arenas.
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
	sem     chan struct{} // nil when workers == 1 or sticky

	// sticky, when non-nil, holds the persistent per-worker task channels
	// of a sticky pool (NewStickyPool). Chunk c > 0 of every ForBounds is
	// first offered to worker (c-1) mod len(sticky), so repeated kernel
	// invocations with the same partition land each chunk on the same
	// goroutine. That keeps a chunk's output range and first-touched matrix
	// pages local to one worker across applies — the NUMA story behind
	// CSR.FirstTouch.
	sticky []chan func()
	closed sync.Once
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

// NewStickyPool returns a pool whose workers are persistent goroutines with
// a deterministic chunk→worker assignment (see the sticky field). Dispatch
// stays non-blocking: a chunk whose owner is
// busy runs inline on the submitter, so the no-deadlock-under-nesting rule
// holds and results remain bit-identical (chunks write disjoint ranges
// regardless of where they run).
//
// Idle workers cost a parked goroutine each; Close releases them. Using the
// pool after Close panics, so only close a pool no kernel will touch again.
func NewStickyPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.sticky = make([]chan func(), workers-1)
		for w := range p.sticky {
			ch := make(chan func())
			p.sticky[w] = ch
			go stickyWorker(ch)
		}
	}
	return p
}

func stickyWorker(ch <-chan func()) {
	for f := range ch {
		f()
	}
}

// Sticky reports whether the pool has persistent sticky workers.
func (p *Pool) Sticky() bool { return p != nil && p.sticky != nil }

// Close shuts down a sticky pool's persistent workers. It is idempotent and
// a no-op on nil or non-sticky pools. The caller must ensure no ForBounds is
// in flight and none will follow: dispatching on a closed pool panics.
func (p *Pool) Close() {
	if p == nil || p.sticky == nil {
		return
	}
	p.closed.Do(func() {
		for _, ch := range p.sticky {
			close(ch)
		}
	})
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
// array). Deterministic in (prefix, parts). Empty chunks are avoided:
// every chunk spans at least one item while items remain, so bounds are
// strictly increasing and parts is clamped to [1, n].
func BoundsByPrefix(prefix []int, parts int) []int {
	return BoundsByPrefixOf(prefix, parts)
}

// BoundsByPrefixOf is BoundsByPrefix generalized over the prefix element
// type, so compact row-pointer arrays (int32 or int64, as stored by
// sparse.CSR32) drive the same nnz-balanced partition without widening to
// []int first. The boundaries are identical to BoundsByPrefix on the
// widened prefix.
func BoundsByPrefixOf[T int | int32 | int64](prefix []T, parts int) []int {
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
	if p.sticky != nil {
		p.forBoundsSticky(bounds, parts, fn)
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

// forBoundsSticky dispatches chunk c to its owning persistent worker. The
// send is non-blocking — an unbuffered channel accepts only when the worker
// is parked in receive — so a busy owner (another stage holding it, or more
// chunks than workers) degrades to inline execution on the submitter
// instead of blocking, exactly like the semaphore path.
func (p *Pool) forBoundsSticky(bounds []int, parts int, fn func(chunk, lo, hi int)) {
	var wg sync.WaitGroup
	var inline []int
	for c := 1; c < parts; c++ {
		c := c
		wg.Add(1)
		task := func() {
			defer wg.Done()
			fn(c, bounds[c], bounds[c+1])
		}
		select {
		case p.sticky[(c-1)%len(p.sticky)] <- task:
		default:
			wg.Done()
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

// Arena hands out one lazily built scratch value per chunk index, so a
// parallel kernel can reuse accumulators across chunks without sharing
// them between concurrently running ones. Get is safe for concurrent use
// by distinct chunk indices — exactly the access pattern of For — and an
// Arena may be reused across sequential For invocations on the same pool.
type Arena[T any] struct {
	mk    func() T
	slots []T
	built []bool
}

// NewArena returns an arena with parts slots; mk builds a slot's scratch
// value on first use.
func NewArena[T any](parts int, mk func() T) *Arena[T] {
	if parts < 1 {
		parts = 1
	}
	return &Arena[T]{mk: mk, slots: make([]T, parts), built: make([]bool, parts)}
}

// Get returns chunk's scratch value, building it on first use.
func (a *Arena[T]) Get(chunk int) T {
	if !a.built[chunk] {
		a.slots[chunk] = a.mk()
		a.built[chunk] = true
	}
	return a.slots[chunk]
}
