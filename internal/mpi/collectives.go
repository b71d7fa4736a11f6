package mpi

import (
	"fmt"
	"time"

	"repro/internal/tensor"
)

// Tag ranges reserved per collective so concurrent collectives with
// different purposes cannot cross-match. User point-to-point traffic
// should use tags below tagBase.
// Each collective gets a 2^18-wide tag band, so per-step tag offsets
// (bounded by 2·world size) never collide across collectives for worlds
// up to 2^17 ranks.
const (
	tagBase      = 1 << 24
	tagStride    = 1 << 18
	tagBcast     = tagBase + 0*tagStride
	tagBarrier   = tagBase + 1*tagStride
	tagRing      = tagBase + 2*tagStride
	tagRecDouble = tagBase + 3*tagStride
	tagGather    = tagBase + 4*tagStride
	tagAllgather = tagBase + 5*tagStride
	tagReduce    = tagBase + 6*tagStride
)

// AllreduceAlgo selects the allreduce algorithm.
type AllreduceAlgo int

// Allreduce algorithms. Ring is bandwidth-optimal for large messages
// (NCCL's default); recursive doubling is latency-optimal for small ones;
// Naive (reduce + broadcast through a root) is the correctness reference.
const (
	AlgoRing AllreduceAlgo = iota
	AlgoRecursiveDoubling
	AlgoNaive
)

// String names the algorithm.
func (a AllreduceAlgo) String() string {
	switch a {
	case AlgoRing:
		return "ring"
	case AlgoRecursiveDoubling:
		return "recursive-doubling"
	case AlgoNaive:
		return "naive"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// Bcast broadcasts root's buf to all ranks via a binomial tree.
func (c *Comm) Bcast(buf []float32, root int) {
	start := time.Now()
	size := c.world.size
	// Renumber so the root is virtual rank 0, then run the standard
	// binomial tree: at round k (mask = 2^k), ranks below mask forward to
	// rank+mask; ranks in [mask, 2·mask) receive from rank−mask. A
	// single-rank world still records the (trivial) collective so profiles
	// count every Bcast call.
	vrank := (c.rank - root + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		switch {
		case vrank < mask:
			if vrank+mask < size {
				c.Send((vrank+mask+root)%size, tagBcast, buf)
			}
		case vrank < 2*mask:
			c.Recv((vrank-mask+root)%size, tagBcast, buf)
		}
	}
	c.profile("bcast", int64(len(buf))*4, time.Since(start))
}

// Barrier blocks until every rank has entered it (dissemination barrier).
func (c *Comm) Barrier() {
	start := time.Now()
	size := c.world.size
	token := [1]float32{}
	rounds := int64(0)
	for dist := 1; dist < size; dist <<= 1 {
		dst := (c.rank + dist) % size
		src := (c.rank - dist + size) % size
		c.Sendrecv(dst, tagBarrier, token[:], src, tagBarrier, token[:])
		rounds++
	}
	c.profile("barrier", rounds*4, time.Since(start))
}

// allreduceTraceOps are the algorithm-qualified span names indexed by
// AllreduceAlgo (static strings: the trace path must not allocate).
var allreduceTraceOps = [...]string{
	AlgoRing:              "allreduce/ring",
	AlgoRecursiveDoubling: "allreduce/recursive-doubling",
	AlgoNaive:             "allreduce/naive",
}

// AllreduceSum sums buf element-wise across all ranks; on return every
// rank's buf holds the global sum.
func (c *Comm) AllreduceSum(buf []float32, algo AllreduceAlgo) {
	start := time.Now()
	switch algo {
	case AlgoRing:
		c.ringAllreduce(buf, sumInto)
	case AlgoRecursiveDoubling:
		c.recursiveDoubling(buf, sumInto)
	case AlgoNaive:
		c.naiveAllreduce(buf, sumInto)
	default:
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %d", algo))
	}
	c.profile(allreduceTraceOps[algo], int64(len(buf))*4, time.Since(start))
}

// AllreduceMin computes the element-wise minimum across ranks.
func (c *Comm) AllreduceMin(buf []float32) {
	start := time.Now()
	c.recursiveDoubling(buf, minInto)
	c.profile(allreduceTraceOps[AlgoRecursiveDoubling], int64(len(buf))*4, time.Since(start))
}

// NegotiateMin is AllreduceMin traced as its own "negotiate" span.
// Horovod's coordinator mins readiness masks to find tensors ready on
// every rank; the timeline shows that control traffic apart from the
// gradient reductions, while the hvprof tables count it as the small
// allreduce it is on the wire (trace.Category.HvprofOp).
func (c *Comm) NegotiateMin(buf []float32) {
	start := time.Now()
	c.recursiveDoubling(buf, minInto)
	c.profile("negotiate", int64(len(buf))*4, time.Since(start))
}

// sumInto and minInto delegate to the SIMD-dispatched vector kernels in
// internal/tensor (AVX2 on amd64, scalar elsewhere); they are the
// reduction primitives of every collective here.
func sumInto(dst, src []float32) { tensor.VecAdd(dst, src) }

func minInto(dst, src []float32) { tensor.VecMin(dst, src) }

// ringChunkElems is the sub-chunk granularity (elements) of the pipelined
// ring allreduce. Each per-step ring chunk is walked in windows of this
// size so the transport of a reduced window overlaps the reduction of the
// next one; 64K floats (256 KB) keeps per-message fixed costs below a
// percent while still splitting multi-megabyte chunks into several
// in-flight pieces.
var ringChunkElems = 64 << 10

// SetRingChunkElems overrides the pipelined ring's sub-chunk granularity
// (in float32 elements) and returns the previous value. Benchmarks use it
// to sweep the pipeline depth; values < 1 panic.
func SetRingChunkElems(n int) int {
	if n < 1 {
		panic("mpi: ring chunk must be >= 1 element")
	}
	old := ringChunkElems
	ringChunkElems = n
	return old
}

// ringAllreduce implements reduce-scatter + allgather over a logical ring:
// bandwidth-optimal (each rank sends 2·(p−1)/p of the buffer).
//
// Both phases are chunk-pipelined: every per-step ring chunk is processed
// in sub-chunks of ringChunkElems, and each sub-chunk is forwarded to the
// next rank the moment it is reduced (or received, in the allgather), so
// downstream transport of sub-chunk k overlaps local reduction of
// sub-chunk k+1. Sub-chunks of one step share a tag; per-(src, tag) FIFO
// ordering keeps them in sequence. The only buffer is a per-Comm scratch
// of one sub-chunk.
func (c *Comm) ringAllreduce(buf []float32, op func(dst, src []float32)) {
	p := c.world.size
	if p == 1 {
		return
	}
	n := len(buf)
	if n == 0 {
		return
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	// Chunk i covers [i·n/p, (i+1)·n/p); bounds are computed, not stored.
	chunk := func(i int) []float32 {
		i = ((i % p) + p) % p
		return buf[i*n/p : (i+1)*n/p]
	}
	cs := ringChunkElems
	tmp := c.tmpScratch(min(cs, (n+p-1)/p))

	// Prime the pipeline: step 0's traffic is this rank's own chunk,
	// which needs no reduction first.
	own := chunk(c.rank)
	for lo := 0; lo < len(own); lo += cs {
		c.Send(next, tagRing, own[lo:min(lo+cs, len(own))])
	}
	// Reduce-scatter: at step s this rank accumulates into chunk
	// (rank−s−1); after p−1 steps, rank r owns the full sum of chunk
	// (r+1) mod p. Each reduced sub-chunk is sent onward immediately —
	// the last step's sub-chunks bridge straight into the allgather.
	for step := 0; step < p-1; step++ {
		rc := chunk(c.rank - step - 1)
		for lo := 0; lo < len(rc); lo += cs {
			hi := min(lo+cs, len(rc))
			t := tmp[:hi-lo]
			c.Recv(prev, tagRing+step, t)
			op(rc[lo:hi], t)
			if step < p-2 {
				c.Send(next, tagRing+step+1, rc[lo:hi])
			} else {
				c.Send(next, tagRing+p, rc[lo:hi])
			}
		}
	}
	// Allgather: circulate the completed chunks; received sub-chunks land
	// directly in place and are forwarded before the next one is awaited.
	for step := 0; step < p-1; step++ {
		rc := chunk(c.rank - step)
		for lo := 0; lo < len(rc); lo += cs {
			hi := min(lo+cs, len(rc))
			c.Recv(prev, tagRing+p+step, rc[lo:hi])
			if step < p-2 {
				c.Send(next, tagRing+p+step+1, rc[lo:hi])
			}
		}
	}
}

// recursiveDoubling implements the latency-optimal exchange for any rank
// count: non-powers-of-two fold the extra ranks into partners first.
func (c *Comm) recursiveDoubling(buf []float32, op func(dst, src []float32)) {
	p := c.world.size
	if p == 1 {
		return
	}
	// Largest power of two ≤ p.
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	tmp := c.tmpScratch(len(buf))

	// Phase 1: ranks [0, 2·rem) pair up; odd ranks send to even partners
	// and sit out the main exchange.
	newRank := -1
	switch {
	case c.rank < 2*rem && c.rank%2 == 1:
		c.Send(c.rank-1, tagRecDouble, buf)
		// Wait for the final result in phase 3.
		c.Recv(c.rank-1, tagRecDouble+1, buf)
		return
	case c.rank < 2*rem:
		c.Recv(c.rank+1, tagRecDouble, tmp)
		op(buf, tmp)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}

	// Phase 2: recursive doubling among pof2 virtual ranks.
	toReal := func(vr int) int {
		if vr < rem {
			return vr * 2
		}
		return vr + rem
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := toReal(newRank ^ mask)
		c.Sendrecv(partner, tagRecDouble+2+mask, buf, partner, tagRecDouble+2+mask, tmp)
		op(buf, tmp)
	}

	// Phase 3: deliver results back to the folded odd ranks.
	if c.rank < 2*rem && c.rank%2 == 0 {
		c.Send(c.rank+1, tagRecDouble+1, buf)
	}
}

// naiveAllreduce gathers to rank 0, reduces, and broadcasts — the
// correctness reference the optimized algorithms are tested against.
func (c *Comm) naiveAllreduce(buf []float32, op func(dst, src []float32)) {
	if c.rank == 0 {
		tmp := c.tmpScratch(len(buf))
		for src := 1; src < c.world.size; src++ {
			c.Recv(src, tagReduce, tmp)
			op(buf, tmp)
		}
	} else {
		c.Send(0, tagReduce, buf)
	}
	c.Bcast(buf, 0)
}

// Gather collects equal-length contributions on root; on root, out must
// have size·len(in) elements. Other ranks may pass out nil.
func (c *Comm) Gather(in []float32, out []float32, root int) {
	start := time.Now()
	if c.rank == root {
		if len(out) != len(in)*c.world.size {
			panic(fmt.Sprintf("mpi: Gather out has %d elements, want %d", len(out), len(in)*c.world.size))
		}
		copy(out[root*len(in):(root+1)*len(in)], in)
		for src := 0; src < c.world.size; src++ {
			if src == root {
				continue
			}
			c.Recv(src, tagGather, out[src*len(in):(src+1)*len(in)])
		}
	} else {
		c.Send(root, tagGather, in)
	}
	c.profile("gather", int64(len(in))*4, time.Since(start))
}

// Allgather concatenates every rank's equal-length contribution on every
// rank: out has size·len(in) elements.
func (c *Comm) Allgather(in []float32, out []float32) {
	start := time.Now()
	p := c.world.size
	if len(out) != len(in)*p {
		panic(fmt.Sprintf("mpi: Allgather out has %d elements, want %d", len(out), len(in)*p))
	}
	copy(out[c.rank*len(in):(c.rank+1)*len(in)], in)
	if p > 1 {
		// Ring allgather.
		next := (c.rank + 1) % p
		prev := (c.rank - 1 + p) % p
		for step := 0; step < p-1; step++ {
			sendIdx := (c.rank - step + p) % p
			recvIdx := (c.rank - step - 1 + p) % p
			c.Send(next, tagAllgather+step, out[sendIdx*len(in):(sendIdx+1)*len(in)])
			c.Recv(prev, tagAllgather+step, out[recvIdx*len(in):(recvIdx+1)*len(in)])
		}
	}
	c.profile("allgather", int64(len(out))*4, time.Since(start))
}
