package par

import (
	"sync/atomic"
	"testing"
)

// TestStickyPoolCoversEveryIndexOnce: the sticky dispatch path must visit
// every index exactly once at any worker count, like the semaphore path.
func TestStickyPoolCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := NewStickyPool(workers)
		for _, n := range []int{0, 1, 3, 1000} {
			counts := make([]int32, n)
			p.For(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestStickyPoolMoreChunksThanWorkers drives ForBounds with far more chunks
// than workers, so the modular chunk→worker assignment wraps and the inline
// fallback fires for chunks whose owner is busy.
func TestStickyPoolMoreChunksThanWorkers(t *testing.T) {
	p := NewStickyPool(3)
	defer p.Close()
	const n, parts = 700, 29
	bounds := ChunkBounds(n, parts)
	counts := make([]int32, n)
	for rep := 0; rep < 20; rep++ {
		p.ForBounds(bounds, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
	}
	for i, c := range counts {
		if c != 20 {
			t.Fatalf("index %d visited %d times, want 20", i, c)
		}
	}
}

// TestStickyPoolNestedNoDeadlock: the non-blocking offer must preserve the
// inline-fallback guarantee when a sticky worker's task itself dispatches on
// the same pool.
func TestStickyPoolNestedNoDeadlock(t *testing.T) {
	p := NewStickyPool(2)
	defer p.Close()
	var total int64
	p.For(8, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.For(8, func(_, lo2, hi2 int) {
				for j := lo2; j < hi2; j++ {
					p.Each(4, func(int) { atomic.AddInt64(&total, 1) })
				}
			})
		}
	})
	if total != 8*8*4 {
		t.Fatalf("nested For total = %d, want %d", total, 8*8*4)
	}
}

// TestStickyPoolAccessors covers the degenerate configurations: one-worker
// sticky pools run inline (no workers to spawn), plain pools and nil pools
// are never sticky, and Close is idempotent and safe on all of them.
func TestStickyPoolAccessors(t *testing.T) {
	one := NewStickyPool(1)
	if one.Sticky() {
		t.Fatal("one-worker sticky pool claims to be sticky")
	}
	calls := 0
	one.For(5, func(chunk, lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("one-worker sticky pool made %d calls, want 1", calls)
	}

	plain := NewPool(4)
	if plain.Sticky() {
		t.Fatal("plain pool claims to be sticky")
	}
	var nilPool *Pool
	if nilPool.Sticky() {
		t.Fatal("nil pool claims to be sticky")
	}

	// Close: idempotent on sticky pools, a no-op everywhere else.
	p := NewStickyPool(4)
	p.Close()
	p.Close()
	one.Close()
	plain.Close()
	nilPool.Close()

	if NewStickyPool(0).Workers() < 1 {
		t.Fatal("NewStickyPool(0) must default to GOMAXPROCS")
	}
}

// TestStickyPoolConcurrentFor stresses many goroutines sharing one sticky
// pool: the per-worker channels are contended, so most chunks fall back
// inline, and every submission must still complete with the right sum.
func TestStickyPoolConcurrentFor(t *testing.T) {
	p := NewStickyPool(4)
	defer p.Close()
	const goroutines, n = 8, 2000
	done := make(chan int64, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			var sum int64
			for rep := 0; rep < 5; rep++ {
				sum = 0
				p.For(n, func(_, lo, hi int) {
					var local int64
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&sum, local)
				})
			}
			done <- sum
		}()
	}
	want := int64(n) * int64(n-1) / 2
	for g := 0; g < goroutines; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent sticky For sum = %d, want %d", got, want)
		}
	}
}
