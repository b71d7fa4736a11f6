package mpi

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1, 2, 3})
		} else {
			buf := make([]float32, 3)
			c.Recv(0, 7, buf)
			if buf[0] != 1 || buf[2] != 3 {
				t.Errorf("recv %v", buf)
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	w := NewWorld(2)
	var got []float32
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float32{42}
			c.Send(1, 1, buf)
			buf[0] = 0 // mutate after send; receiver must see 42
			c.Barrier()
		} else {
			c.Barrier()
			b := make([]float32, 1)
			c.Recv(0, 1, b)
			mu.Lock()
			got = b
			mu.Unlock()
		}
	})
	if got[0] != 42 {
		t.Fatalf("send did not copy: got %v", got)
	}
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float32{5})
			c.Send(1, 9, []float32{9})
		} else {
			b := make([]float32, 1)
			c.Recv(0, 9, b) // receive out of arrival order by tag
			if b[0] != 9 {
				t.Errorf("tag 9 got %v", b)
			}
			c.Recv(0, 5, b)
			if b[0] != 5 {
				t.Errorf("tag 5 got %v", b)
			}
		}
	})
}

func TestMessageOrderingSameTag(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 20; i++ {
				c.Send(1, 3, []float32{float32(i)})
			}
		} else {
			b := make([]float32, 1)
			for i := 0; i < 20; i++ {
				c.Recv(0, 3, b)
				if b[0] != float32(i) {
					t.Errorf("message %d arrived as %g", i, b[0])
				}
			}
		}
	})
}

func TestRecvSizeMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float32{1, 2})
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic on size mismatch")
			}
		}()
		c.Recv(0, 1, make([]float32, 3))
	})
}

func TestBcastAllRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 16} {
		for root := 0; root < size; root += (size + 2) / 3 {
			w := NewWorld(size)
			var mu sync.Mutex
			results := make(map[int][]float32)
			w.Run(func(c *Comm) {
				buf := make([]float32, 5)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = float32(i + 10)
					}
				}
				c.Bcast(buf, root)
				mu.Lock()
				results[c.Rank()] = buf
				mu.Unlock()
			})
			for r, buf := range results {
				for i := range buf {
					if buf[i] != float32(i+10) {
						t.Fatalf("size=%d root=%d rank=%d: %v", size, root, r, buf)
					}
				}
			}
		}
	}
}

func TestBarrierCompletes(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8} {
		w := NewWorld(size)
		w.Run(func(c *Comm) {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
		})
	}
}

func allreduceCase(t *testing.T, size, n int, algo AllreduceAlgo) {
	t.Helper()
	w := NewWorld(size)
	var mu sync.Mutex
	results := make([][]float32, size)
	w.Run(func(c *Comm) {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = float32(c.Rank()*n + i)
		}
		c.AllreduceSum(buf, algo)
		mu.Lock()
		results[c.Rank()] = buf
		mu.Unlock()
	})
	// Expected: sum over ranks of (r*n + i).
	for r, buf := range results {
		for i := range buf {
			var want float32
			for rr := 0; rr < size; rr++ {
				want += float32(rr*n + i)
			}
			if math.Abs(float64(buf[i]-want)) > 1e-3 {
				t.Fatalf("size=%d n=%d algo=%v rank=%d elem=%d: got %g want %g",
					size, n, algo, r, i, buf[i], want)
			}
		}
	}
}

func TestAllreduceSumAllAlgorithms(t *testing.T) {
	for _, algo := range []AllreduceAlgo{AlgoRing, AlgoRecursiveDoubling, AlgoNaive} {
		for _, size := range []int{1, 2, 3, 4, 5, 8, 13} {
			for _, n := range []int{1, 7, 64, 1000} {
				allreduceCase(t, size, n, algo)
			}
		}
	}
}

func TestAllreduceSmallerThanWorld(t *testing.T) {
	// n < p exercises empty ring chunks.
	allreduceCase(t, 8, 3, AlgoRing)
	allreduceCase(t, 13, 5, AlgoRing)
}

// Property: ring and naive allreduce agree on random inputs.
func TestQuickAllreduceAgreement(t *testing.T) {
	f := func(vals []float32, sizeRaw uint8) bool {
		size := int(sizeRaw)%6 + 2
		n := len(vals)
		if n == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v > 1e3 || v < -1e3 {
				vals[i] = 1
			}
		}
		run := func(algo AllreduceAlgo) []float32 {
			w := NewWorld(size)
			out := make([][]float32, size)
			var mu sync.Mutex
			w.Run(func(c *Comm) {
				buf := make([]float32, n)
				for i := range buf {
					buf[i] = vals[i] * float32(c.Rank()+1)
				}
				c.AllreduceSum(buf, algo)
				mu.Lock()
				out[c.Rank()] = buf
				mu.Unlock()
			})
			return out[0]
		}
		a, b := run(AlgoRing), run(AlgoNaive)
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-2*(math.Abs(float64(b[i]))+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMin(t *testing.T) {
	for _, size := range []int{2, 3, 8} {
		w := NewWorld(size)
		var mu sync.Mutex
		results := make([][]float32, size)
		w.Run(func(c *Comm) {
			// Element i is 1 except rank i%size reports 0 — a readiness mask.
			buf := make([]float32, size*2)
			for i := range buf {
				buf[i] = 1
				if i%size == c.Rank() {
					buf[i] = 0
				}
			}
			c.AllreduceMin(buf)
			mu.Lock()
			results[c.Rank()] = buf
			mu.Unlock()
		})
		for r, buf := range results {
			for i, v := range buf {
				if v != 0 {
					t.Fatalf("size=%d rank=%d elem=%d: min should be 0, got %g", size, r, i, v)
				}
			}
		}
	}
}

func TestGather(t *testing.T) {
	size := 5
	w := NewWorld(size)
	var got []float32
	w.Run(func(c *Comm) {
		in := []float32{float32(c.Rank()), float32(c.Rank() * 10)}
		if c.Rank() == 2 {
			out := make([]float32, 2*size)
			c.Gather(in, out, 2)
			got = out
		} else {
			c.Gather(in, nil, 2)
		}
	})
	for r := 0; r < size; r++ {
		if got[2*r] != float32(r) || got[2*r+1] != float32(r*10) {
			t.Fatalf("gather: %v", got)
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, size := range []int{1, 2, 4, 7} {
		w := NewWorld(size)
		var mu sync.Mutex
		results := make([][]float32, size)
		w.Run(func(c *Comm) {
			in := []float32{float32(c.Rank() + 100)}
			out := make([]float32, size)
			c.Allgather(in, out)
			mu.Lock()
			results[c.Rank()] = out
			mu.Unlock()
		})
		for r, out := range results {
			for i, v := range out {
				if v != float32(i+100) {
					t.Fatalf("size=%d rank=%d: %v", size, r, out)
				}
			}
		}
	}
}

// countingTracer tallies the spans a Comm reports, by op name.
type countingTracer struct {
	mu    sync.Mutex
	ops   map[string]int
	bytes map[string]int64
}

func (p *countingTracer) RecordSpan(op string, bytes int64, dur time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ops == nil {
		p.ops = map[string]int{}
		p.bytes = map[string]int64{}
	}
	p.ops[op]++
	p.bytes[op] += bytes
}

func TestProfilerReceivesRecords(t *testing.T) {
	w := NewWorld(4)
	tr := &countingTracer{}
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Tracer = tr
		}
		buf := make([]float32, 256)
		c.AllreduceSum(buf, AlgoRing)
		c.Bcast(buf, 0)
	})
	if tr.ops["allreduce/ring"] != 1 {
		t.Fatalf("allreduce spans: %d", tr.ops["allreduce/ring"])
	}
	if tr.bytes["allreduce/ring"] != 1024 {
		t.Fatalf("allreduce bytes: %d", tr.bytes["allreduce/ring"])
	}
	if tr.ops["bcast"] != 1 {
		t.Fatalf("bcast spans: %d", tr.ops["bcast"])
	}
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewWorld(0)
}

func TestCommRankValidation(t *testing.T) {
	w := NewWorld(2)
	for _, r := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: expected panic", r)
				}
			}()
			w.Comm(r)
		}()
	}
}

func TestAlgoString(t *testing.T) {
	if AlgoRing.String() != "ring" || AlgoNaive.String() != "naive" {
		t.Fatal("algo names wrong")
	}
	if AllreduceAlgo(99).String() == "" {
		t.Fatal("unknown algo should still render")
	}
}
