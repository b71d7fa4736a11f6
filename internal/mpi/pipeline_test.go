package mpi

import (
	"sync"
	"testing"
)

// TestRingChunkPipelineSweep checks the pipelined ring against the naive
// reference across sub-chunk granularities, including pathological ones
// (1-element sub-chunks, sub-chunks larger than any ring chunk).
func TestRingChunkPipelineSweep(t *testing.T) {
	for _, cs := range []int{1, 3, 8, 1024} {
		old := SetRingChunkElems(cs)
		for _, size := range []int{2, 3, 5, 8} {
			for _, n := range []int{1, 13, 100, 257} {
				allreduceCase(t, size, n, AlgoRing)
			}
		}
		SetRingChunkElems(old)
	}
}

func TestSetRingChunkElemsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for chunk < 1")
		}
	}()
	SetRingChunkElems(0)
}

// TestAllreduceSteadyStateZeroAlloc pins the zero-alloc contract of the
// communication hot path: after warmup, an allreduce performs no heap
// allocations on any rank — message payloads come from the world's buffer
// pool and algorithm scratch from the per-Comm pool. Rank 0 measures with
// testing.AllocsPerRun (which runs the function runs+1 times, warmup
// included); peers execute exactly matching iterations.
func TestAllreduceSteadyStateZeroAlloc(t *testing.T) {
	const runs = 50
	for _, algo := range []AllreduceAlgo{AlgoRing, AlgoRecursiveDoubling, AlgoNaive} {
		w := NewWorld(4)
		var got float64
		w.Run(func(c *Comm) {
			buf := make([]float32, 3000)
			iter := func() { c.AllreduceSum(buf, algo) }
			// Prime pools and scratch on every rank before measuring.
			for i := 0; i < 3; i++ {
				iter()
			}
			if c.Rank() == 0 {
				got = testing.AllocsPerRun(runs, iter)
			} else {
				for i := 0; i < runs+1; i++ {
					iter()
				}
			}
		})
		if got != 0 {
			t.Errorf("algo=%v: %g allocs per allreduce, want 0", algo, got)
		}
	}
}

// TestSendRecvSteadyStateZeroAlloc checks the pooled point-to-point path
// directly.
func TestSendRecvSteadyStateZeroAlloc(t *testing.T) {
	const runs = 50
	w := NewWorld(2)
	var got float64
	w.Run(func(c *Comm) {
		buf := make([]float32, 500)
		peer := 1 - c.Rank()
		iter := func() {
			c.Sendrecv(peer, 7, buf, peer, 7, buf)
		}
		for i := 0; i < 3; i++ {
			iter()
		}
		if c.Rank() == 0 {
			got = testing.AllocsPerRun(runs, iter)
		} else {
			for i := 0; i < runs+1; i++ {
				iter()
			}
		}
	})
	if got != 0 {
		t.Errorf("%g allocs per sendrecv, want 0", got)
	}
}

// TestBarrierAndGatherProfiled covers the collectives that previously
// bypassed the profiler entirely.
func TestBarrierAndGatherProfiled(t *testing.T) {
	w := NewWorld(4)
	tr := &countingTracer{}
	out := make([]float32, 4)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Tracer = tr
		}
		c.Barrier()
		in := []float32{float32(c.Rank())}
		if c.Rank() == 0 {
			c.Gather(in, out, 0)
		} else {
			c.Gather(in, nil, 0)
		}
	})
	if tr.ops["barrier"] != 1 {
		t.Errorf("barrier records: %d, want 1", tr.ops["barrier"])
	}
	if tr.ops["gather"] != 1 {
		t.Errorf("gather records: %d, want 1", tr.ops["gather"])
	}
}

// TestBcastProfiledSingleRank: a single-rank world must still record the
// (trivial) broadcast — the old early return skipped it.
func TestBcastProfiledSingleRank(t *testing.T) {
	w := NewWorld(1)
	tr := &countingTracer{}
	w.Run(func(c *Comm) {
		c.Tracer = tr
		buf := make([]float32, 8)
		c.Bcast(buf, 0)
		c.Allgather(buf, buf[:8])
	})
	if tr.ops["bcast"] != 1 {
		t.Errorf("bcast records: %d, want 1", tr.ops["bcast"])
	}
	if tr.ops["allgather"] != 1 {
		t.Errorf("allgather records: %d, want 1", tr.ops["allgather"])
	}
}

// TestNegotiateMin checks the dedicated negotiation collective: same min
// semantics as AllreduceMin, traced as its own "negotiate" span.
func TestNegotiateMin(t *testing.T) {
	w := NewWorld(4)
	tr := &countingTracer{}
	var mu sync.Mutex
	results := make([][]float32, 4)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Tracer = tr
		}
		mask := []float32{1, 1, 1, 1}
		mask[c.Rank()] = 0
		c.NegotiateMin(mask)
		mu.Lock()
		results[c.Rank()] = mask
		mu.Unlock()
	})
	for r, mask := range results {
		for i, v := range mask {
			if v != 0 {
				t.Fatalf("rank %d elem %d: %g, want 0", r, i, v)
			}
		}
	}
	if tr.ops["negotiate"] != 1 || len(tr.ops) != 1 {
		t.Errorf("spans %v, want one negotiate", tr.ops)
	}
}
