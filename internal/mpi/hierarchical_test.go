package mpi

import (
	"math"
	"sync"
	"testing"
)

func TestReduceOntoRoot(t *testing.T) {
	for _, size := range []int{1, 2, 4, 5, 8} {
		for _, root := range []int{0, size - 1} {
			w := NewWorld(size)
			var mu sync.Mutex
			results := make([][]float32, size)
			w.Run(func(c *Comm) {
				buf := []float32{float32(c.Rank() + 1), 10 * float32(c.Rank()+1)}
				c.Reduce(buf, root)
				mu.Lock()
				results[c.Rank()] = buf
				mu.Unlock()
			})
			var want float32
			for r := 1; r <= size; r++ {
				want += float32(r)
			}
			if results[root][0] != want || results[root][1] != 10*want {
				t.Fatalf("size=%d root=%d: root got %v, want [%g %g]",
					size, root, results[root], want, 10*want)
			}
			// Non-root buffers unchanged (MPI_Reduce semantics).
			for r := 0; r < size; r++ {
				if r == root {
					continue
				}
				if results[r][0] != float32(r+1) {
					t.Fatalf("size=%d: non-root %d buffer clobbered: %v", size, r, results[r])
				}
			}
		}
	}
}

func TestReduceScatterBlock(t *testing.T) {
	for _, size := range []int{1, 2, 4, 6} {
		n := size * 3
		w := NewWorld(size)
		var mu sync.Mutex
		results := make([][]float32, size)
		w.Run(func(c *Comm) {
			buf := make([]float32, n)
			for i := range buf {
				buf[i] = float32((c.Rank() + 1) * (i + 1))
			}
			recv := make([]float32, 3)
			c.ReduceScatterBlock(buf, recv)
			mu.Lock()
			results[c.Rank()] = recv
			mu.Unlock()
		})
		var rankSum float32
		for r := 1; r <= size; r++ {
			rankSum += float32(r)
		}
		for r, recv := range results {
			for j, v := range recv {
				idx := r*3 + j
				want := rankSum * float32(idx+1)
				if math.Abs(float64(v-want)) > 1e-3 {
					t.Fatalf("size=%d rank=%d block[%d] = %g, want %g", size, r, j, v, want)
				}
			}
		}
	}
}

func TestReduceScatterBlockValidation(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-divisible length")
			}
		}()
		c.ReduceScatterBlock(make([]float32, 3), make([]float32, 1))
	})
}

func TestHierarchicalMatchesRing(t *testing.T) {
	const size = 8
	run := func(hier bool) []float32 {
		w := NewWorld(size)
		w.SetGPUsPerNode(4)
		var out []float32
		var mu sync.Mutex
		w.Run(func(c *Comm) {
			buf := make([]float32, 100)
			for i := range buf {
				buf[i] = float32(c.Rank()) * 0.25 * float32(i%7)
			}
			if hier {
				c.AllreduceSumNodeAware(buf, false)
			} else {
				c.AllreduceSum(buf, AlgoRing)
			}
			if c.Rank() == 0 {
				mu.Lock()
				out = buf
				mu.Unlock()
			}
		})
		return out
	}
	a, b := run(true), run(false)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-3 {
			t.Fatalf("element %d: hierarchical %g vs ring %g", i, a[i], b[i])
		}
	}
}
