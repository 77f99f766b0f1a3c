package par

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// checkBounds asserts the structural invariants every bounds slice must
// satisfy: starts at 0, ends at n, and (for n > 0) strictly increasing so no
// chunk is empty.
func checkBounds(t *testing.T, bounds []int, n int) {
	t.Helper()
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		t.Fatalf("bounds %v do not cover [0,%d)", bounds, n)
	}
	for c := 1; c < len(bounds); c++ {
		if n > 0 && bounds[c] <= bounds[c-1] {
			t.Fatalf("bounds %v: empty or inverted chunk %d", bounds, c-1)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 1}, {1, 8}, {5, 2}, {7, 7}, {10, 3}, {100, 7}, {3, 0}, {3, -2},
	} {
		bounds := ChunkBounds(tc.n, tc.parts)
		checkBounds(t, bounds, tc.n)
		if tc.n > 0 && tc.parts >= 1 && tc.parts <= tc.n && len(bounds) != tc.parts+1 {
			t.Fatalf("ChunkBounds(%d,%d) = %v, want %d chunks", tc.n, tc.parts, bounds, tc.parts)
		}
		// Near-equal: chunk lengths differ by at most one.
		min, max := tc.n+1, -1
		for c := 1; c < len(bounds); c++ {
			l := bounds[c] - bounds[c-1]
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if tc.n > 0 && max-min > 1 {
			t.Fatalf("ChunkBounds(%d,%d) = %v: lengths range [%d,%d]", tc.n, tc.parts, bounds, min, max)
		}
	}
}

func TestBoundsByPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		prefix := make([]int, n+1)
		for i := 1; i <= n; i++ {
			// Weights include zeros and the occasional heavy item, like CSR
			// rows of a power-law graph.
			w := rng.Intn(4)
			if rng.Intn(10) == 0 {
				w = 1000
			}
			prefix[i] = prefix[i-1] + w
		}
		parts := 1 + rng.Intn(12)
		bounds := BoundsByPrefix(prefix, parts)
		checkBounds(t, bounds, n)
		want := parts
		if want > n {
			want = n
		}
		if len(bounds) != want+1 {
			t.Fatalf("BoundsByPrefix(n=%d, parts=%d) produced %d chunks, want %d",
				n, parts, len(bounds)-1, want)
		}
		// Deterministic: same inputs, same bounds.
		again := BoundsByPrefix(prefix, parts)
		for i := range bounds {
			if bounds[i] != again[i] {
				t.Fatalf("BoundsByPrefix not deterministic: %v vs %v", bounds, again)
			}
		}
	}
}

// TestBoundsByPrefixOfMatchesWide: BoundsByPrefix's int32/int64
// instantiations must pick exactly the boundaries of its []int one on the
// same weights.
func TestBoundsByPrefixOfMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		prefix := make([]int, n+1)
		p32 := make([]int32, n+1)
		p64 := make([]int64, n+1)
		for i := 1; i <= n; i++ {
			prefix[i] = prefix[i-1] + rng.Intn(5)
			p32[i] = int32(prefix[i])
			p64[i] = int64(prefix[i])
		}
		parts := 1 + rng.Intn(10)
		want := BoundsByPrefix(prefix, parts)
		for i, got := range [][]int{BoundsByPrefix(p32, parts), BoundsByPrefix(p64, parts)} {
			if len(got) != len(want) {
				t.Fatalf("variant %d: %v vs %v", i, got, want)
			}
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("variant %d differs: %v vs %v", i, got, want)
				}
			}
		}
	}
}

func TestBoundsByPrefixBalances(t *testing.T) {
	// Uniform weights must reduce to near-equal chunks.
	n, parts := 1000, 8
	prefix := make([]int, n+1)
	for i := 1; i <= n; i++ {
		prefix[i] = i * 3
	}
	bounds := BoundsByPrefix(prefix, parts)
	for c := 1; c < len(bounds); c++ {
		l := bounds[c] - bounds[c-1]
		if l < n/parts-1 || l > n/parts+1 {
			t.Fatalf("uniform weights gave unbalanced bounds %v", bounds)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := NewPool(workers)
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
	}
}

func TestEachCoversEveryIndexOnce(t *testing.T) {
	p := NewPool(8)
	const n = 5000
	counts := make([]int32, n)
	p.Each(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
	calls := 0
	p.For(10, func(chunk, lo, hi int) {
		calls++
		if chunk != 0 || lo != 0 || hi != 10 {
			t.Fatalf("nil pool chunk (%d,%d,%d), want (0,0,10)", chunk, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool made %d calls, want 1", calls)
	}
}

// TestNestedForNoDeadlock exercises the try-acquire design: every level of a
// deeply nested parallel call chain shares one small pool. With blocking
// acquisition this deadlocks (outer chunks hold all slots while inner calls
// wait); with the inline fallback it must complete.
func TestNestedForNoDeadlock(t *testing.T) {
	p := NewPool(2)
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

// TestSharedPoolConcurrentFor stresses many goroutines driving For on one
// pool at once — the shape of concurrent engine preprocessing runs sharing
// Shared(). Run under -race this also checks the scheduler's own state.
func TestSharedPoolConcurrentFor(t *testing.T) {
	p := Shared()
	const goroutines, n = 16, 2000
	var wg sync.WaitGroup
	totals := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				var sum int64
				p.For(n, func(_, lo, hi int) {
					var local int64
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&sum, local)
				})
				totals[g] = sum
			}
		}(g)
	}
	wg.Wait()
	want := int64(n) * int64(n-1) / 2
	for g, got := range totals {
		if got != want {
			t.Fatalf("goroutine %d sum = %d, want %d", g, got, want)
		}
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if w := NewPool(0).Workers(); w < 1 {
		t.Fatalf("NewPool(0).Workers() = %d", w)
	}
	if w := NewPool(-3).Workers(); w < 1 {
		t.Fatalf("NewPool(-3).Workers() = %d", w)
	}
	if w := NewPool(6).Workers(); w != 6 {
		t.Fatalf("NewPool(6).Workers() = %d, want 6", w)
	}
	if Shared() != Shared() {
		t.Fatal("Shared() is not a singleton")
	}
}
