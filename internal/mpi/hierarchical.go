package mpi

import "fmt"

// Additional tag bands for the extended collectives.
const (
	tagReduceScatter = tagBase + 7*tagStride
	tagHier          = tagBase + 8*tagStride
	tagReduceOp      = tagBase + 9*tagStride
)

// Reduce sums buf element-wise onto root; non-root buffers are left
// unchanged. Implemented as a binomial tree reduction.
func (c *Comm) Reduce(buf []float32, root int) {
	size := c.world.size
	if size == 1 {
		return
	}
	// Virtual ranks with root at 0; children send up the binomial tree.
	vrank := (c.rank - root + size) % size
	acc := buf
	if vrank != 0 {
		// Work on a copy so the caller's buffer is not clobbered on
		// non-root ranks (MPI_Reduce semantics).
		acc = c.workScratch(len(buf))
		copy(acc, buf)
	}
	tmp := c.tmpScratch(len(buf))
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % size
			c.Send(parent, tagReduceOp+mask, acc)
			return
		}
		src := vrank | mask
		if src < size {
			c.Recv((src+root)%size, tagReduceOp+mask, tmp)
			sumInto(acc, tmp)
		}
	}
}

// ReduceScatterBlock reduces the full buffer and scatters equal blocks:
// on return, recv holds the global sum of this rank's block. len(buf)
// must be divisible by the world size and len(recv) must be the block
// size. This is the first half of a ring allreduce exposed directly.
func (c *Comm) ReduceScatterBlock(buf []float32, recv []float32) {
	p := c.world.size
	if len(buf)%p != 0 {
		panic(fmt.Sprintf("mpi: ReduceScatterBlock length %d not divisible by %d ranks", len(buf), p))
	}
	block := len(buf) / p
	if len(recv) != block {
		panic(fmt.Sprintf("mpi: ReduceScatterBlock recv length %d, want %d", len(recv), block))
	}
	if p == 1 {
		copy(recv, buf)
		return
	}
	// Work on a copy to preserve MPI semantics (buf unchanged).
	work := c.workScratch(len(buf))
	copy(work, buf)
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	tmp := c.tmpScratch(block)
	chunk := func(i int) []float32 {
		i = ((i % p) + p) % p
		return work[i*block : (i+1)*block]
	}
	// Schedule shifted by one so rank r finishes owning block r (the
	// MPI_Reduce_scatter_block contract), not block r+1 as in the raw
	// ring allreduce first phase.
	for step := 0; step < p-1; step++ {
		c.Send(next, tagReduceScatter+step, chunk(c.rank-1-step))
		c.Recv(prev, tagReduceScatter+step, tmp)
		sumInto(chunk(c.rank-2-step), tmp)
	}
	copy(recv, chunk(c.rank))
}

// leaderRing runs a ring allreduce among the group leaders only.
func (c *Comm) leaderRing(buf []float32, groupSize, leaders int) {
	me := c.rank / groupSize
	nextLeader := ((me + 1) % leaders) * groupSize
	prevLeader := ((me - 1 + leaders) % leaders) * groupSize
	n := len(buf)
	// Chunk i covers [i·n/leaders, (i+1)·n/leaders). The scratch lives in
	// scrWork: scrTmp still holds AllreduceSumNodeAware's phase-1 buffer.
	chunk := func(i int) []float32 {
		i = ((i % leaders) + leaders) % leaders
		return buf[i*n/leaders : (i+1)*n/leaders]
	}
	tmp := c.workScratch((n + leaders - 1) / leaders)
	for step := 0; step < leaders-1; step++ {
		sc := chunk(me - step)
		rc := chunk(me - step - 1)
		c.Send(nextLeader, tagHier+2+step, sc)
		c.Recv(prevLeader, tagHier+2+step, tmp[:len(rc)])
		sumInto(rc, tmp[:len(rc)])
	}
	for step := 0; step < leaders-1; step++ {
		sc := chunk(me + 1 - step)
		rc := chunk(me - step)
		c.Send(nextLeader, tagHier+2+leaders+step, sc)
		c.Recv(prevLeader, tagHier+2+leaders+step, tmp[:len(rc)])
		copy(rc, tmp[:len(rc)])
	}
}
