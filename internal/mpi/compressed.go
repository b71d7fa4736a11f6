package mpi

import (
	"time"

	"repro/internal/tensor"
)

// Tag bands for the compressed collectives. TagSparse is exported: the
// top-k sparsified allreduce in internal/collective runs its gather
// phase over the public Send/Recv API and needs a band the built-in
// collectives never touch.
const (
	tagFP16 = tagBase + 10*tagStride
	// TagSparse is the base of the tag band reserved for the sparse
	// (top-k) allreduce implemented in internal/collective. Per-step
	// offsets stay within the band for worlds up to 2^17 ranks.
	TagSparse = tagBase + 11*tagStride
)

// AllreduceSumFP16 sums buf element-wise across all ranks with an
// fp16-compressed wire format: every hop of the chunk-pipelined ring
// packs its float32 payload into IEEE 754 binary16 pairs (half the
// bytes), the receiver unpacks and accumulates in full float32, and the
// final allgather circulates each chunk's packed bits unchanged — so
// every rank decodes the identical halves and replicas stay bit-wise in
// sync. Partial sums are re-quantized at each of the p−1 reduce-scatter
// hops, which is the numerics Horovod's fp16 compressor exhibits on a
// ring; convergence under it is pinned by the harness in
// internal/collective.
func (c *Comm) AllreduceSumFP16(buf []float32) {
	start := time.Now()
	c.fp16RingAllreduce(buf)
	// Record the compressed message size: what actually hits the wire,
	// so hvprof's size buckets tell the compression story.
	c.profile("allreduce/fp16", int64(tensor.HalfWords(len(buf)))*4, time.Since(start))
}

// fp16RingAllreduce is the chunk-pipelined ring of ringAllreduce with a
// packed-fp16 wire: sub-chunks are forwarded the moment they are reduced,
// and the only buffers are one wire sub-chunk (scrWork) and one unpacked
// receive sub-chunk (scrTmp) per Comm — the steady state allocates
// nothing.
func (c *Comm) fp16RingAllreduce(buf []float32) {
	p := c.world.size
	if p == 1 {
		// Single rank: the "wire" is a no-op, but quantize for parity with
		// the multi-rank result (a world of one still rounds through fp16).
		tensor.QuantizeHalf(buf)
		return
	}
	n := len(buf)
	if n == 0 {
		return
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	chunk := func(i int) []float32 {
		i = ((i % p) + p) % p
		return buf[i*n/p : (i+1)*n/p]
	}
	cs := ringChunkElems
	maxSub := min(cs, (n+p-1)/p)
	tmp := c.tmpScratch(maxSub)
	wire := c.workScratch(tensor.HalfWords(maxSub))

	// Prime the pipeline: step 0's traffic is this rank's own chunk,
	// packed but not yet reduced.
	own := chunk(c.rank)
	for lo := 0; lo < len(own); lo += cs {
		hi := min(lo+cs, len(own))
		w := wire[:tensor.HalfWords(hi-lo)]
		tensor.PackHalf(w, own[lo:hi])
		c.Send(next, tagFP16, w)
	}
	// Reduce-scatter: unpack the incoming sub-chunk, accumulate in fp32,
	// re-pack, forward. After p−1 steps rank r owns the full sum of chunk
	// (r+1) mod p; its final packed form bridges into the allgather, and
	// the owner adopts its own quantized bits so every rank converges on
	// the same values.
	for step := 0; step < p-1; step++ {
		rc := chunk(c.rank - step - 1)
		for lo := 0; lo < len(rc); lo += cs {
			hi := min(lo+cs, len(rc))
			w := wire[:tensor.HalfWords(hi-lo)]
			c.Recv(prev, tagFP16+step, w)
			t := tmp[:hi-lo]
			tensor.UnpackHalf(t, w)
			sumInto(rc[lo:hi], t)
			tensor.PackHalf(w, rc[lo:hi])
			if step < p-2 {
				c.Send(next, tagFP16+step+1, w)
			} else {
				tensor.UnpackHalf(rc[lo:hi], w)
				c.Send(next, tagFP16+p, w)
			}
		}
	}
	// Allgather: circulate the finished chunks' packed bits; unpack in
	// place and forward the wire words untouched.
	for step := 0; step < p-1; step++ {
		rc := chunk(c.rank - step)
		for lo := 0; lo < len(rc); lo += cs {
			hi := min(lo+cs, len(rc))
			w := wire[:tensor.HalfWords(hi-lo)]
			c.Recv(prev, tagFP16+p+step, w)
			tensor.UnpackHalf(rc[lo:hi], w)
			if step < p-2 {
				c.Send(next, tagFP16+p+step+1, w)
			}
		}
	}
}

// AllreduceSumNodeAware is the two-level node-aware allreduce mirroring
// the paper's MVAPICH2-GDR hierarchical design, driven by the world's
// topology (SetGPUsPerNode): reduce within each node onto its leader in
// full precision (the intra-node hop models NVLink, where compression
// buys nothing), ring-allreduce across node leaders — the inter-node hop
// that crosses the InfiniBand fabric — with an optionally fp16-compressed
// wire, then broadcast the result within each node. With one GPU per
// node it degenerates to a flat (optionally compressed) leader ring.
func (c *Comm) AllreduceSumNodeAware(buf []float32, fp16 bool) {
	start := time.Now()
	p := c.world.size
	gs := c.world.gpusPerNode
	if p == 1 {
		if fp16 {
			tensor.QuantizeHalf(buf)
		}
		c.profile("allreduce/hier", wireBytesHier(len(buf), fp16), time.Since(start))
		return
	}
	leader := c.rank - c.rank%gs
	groupEnd := min(leader+gs, p)
	tmp := c.tmpScratch(len(buf))

	// Phase 1: intra-node reduce onto the leader (flat gather-reduce in
	// fp32; groups are small — 4 GPUs per node on Lassen).
	if c.rank == leader {
		for src := leader + 1; src < groupEnd; src++ {
			c.Recv(src, tagHier, tmp)
			sumInto(buf, tmp)
		}
	} else {
		c.Send(leader, tagHier, buf)
	}

	// Phase 2: inter-node ring among leaders, compressed when asked.
	if c.rank == leader {
		leaders := (p + gs - 1) / gs
		switch {
		case leaders == 1 && fp16:
			// One node: no inter-node wire, but round through fp16 so the
			// result matches what a multi-node run would broadcast.
			tensor.QuantizeHalf(buf)
		case leaders > 1 && fp16:
			c.leaderRingFP16(buf, gs, leaders)
		case leaders > 1:
			c.leaderRing(buf, gs, leaders)
		}
	}

	// Phase 3: intra-node broadcast of the result.
	if c.rank == leader {
		for dst := leader + 1; dst < groupEnd; dst++ {
			c.Send(dst, tagHier+1, buf)
		}
	} else {
		c.Recv(leader, tagHier+1, buf)
	}
	c.profile("allreduce/hier", wireBytesHier(len(buf), fp16), time.Since(start))
}

// wireBytesHier is the recorded message size of the node-aware variant:
// the inter-node (leader-ring) payload, compressed when fp16 is on —
// the hop whose bytes the hierarchy exists to manage.
func wireBytesHier(n int, fp16 bool) int64 {
	if fp16 {
		return int64(tensor.HalfWords(n)) * 4
	}
	return int64(n) * 4
}

// leaderRingFP16 is leaderRing with a packed-fp16 wire: reduce-scatter
// unpacks, accumulates in fp32 and re-packs per hop; the allgather
// circulates each chunk's final packed bits so all leaders agree
// bit-wise. Scratch discipline matches leaderRing: scrTmp still holds
// phase 1's buffer upstream, so the unpack scratch lives in scrWork,
// partitioned into wire words and unpacked floats.
func (c *Comm) leaderRingFP16(buf []float32, groupSize, leaders int) {
	me := c.rank / groupSize
	nextLeader := ((me + 1) % leaders) * groupSize
	prevLeader := ((me - 1 + leaders) % leaders) * groupSize
	n := len(buf)
	chunk := func(i int) []float32 {
		i = ((i % leaders) + leaders) % leaders
		return buf[i*n/leaders : (i+1)*n/leaders]
	}
	maxChunk := (n + leaders - 1) / leaders
	ww := tensor.HalfWords(maxChunk)
	work := c.workScratch(ww*2 + maxChunk)
	sendWire, recvWire, tmp := work[:ww], work[ww:2*ww], work[2*ww:]

	for step := 0; step < leaders-1; step++ {
		sc := chunk(me - step)
		rc := chunk(me - step - 1)
		sw := sendWire[:tensor.HalfWords(len(sc))]
		tensor.PackHalf(sw, sc)
		c.Send(nextLeader, tagHier+2+step, sw)
		rw := recvWire[:tensor.HalfWords(len(rc))]
		c.Recv(prevLeader, tagHier+2+step, rw)
		t := tmp[:len(rc)]
		tensor.UnpackHalf(t, rw)
		sumInto(rc, t)
	}
	// The owned chunk's final value rounds through fp16 once (its packed
	// form is what circulates), and every leader unpacks those same bits.
	ownIdx := me + 1
	own := chunk(ownIdx)
	ow := sendWire[:tensor.HalfWords(len(own))]
	tensor.PackHalf(ow, own)
	tensor.UnpackHalf(own, ow)
	for step := 0; step < leaders-1; step++ {
		sc := chunk(me + 1 - step)
		rc := chunk(me - step)
		sw := sendWire[:tensor.HalfWords(len(sc))]
		tensor.PackHalf(sw, sc)
		c.Send(nextLeader, tagHier+2+leaders+step, sw)
		rw := recvWire[:tensor.HalfWords(len(rc))]
		c.Recv(prevLeader, tagHier+2+leaders+step, rw)
		tensor.UnpackHalf(rc, rw)
	}
}
