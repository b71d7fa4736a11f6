package collective

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// ChunkedRingAllreduce simulates the NCCL flat ring at chunk granularity:
// the buffer is split into numChunks pipeline chunks and every rank
// executes the 2(p−1) ring steps as individual chunk transfers on its
// outgoing link, synchronizing with its neighbor at every step exactly as
// the real protocol does. It is the fine-grained counterpart of the
// macro-model flatRing used by the scaling study — O(p·numChunks) events
// per call instead of O(p) — and exists to validate the macro model:
// TestChunkedMatchesMacroRing checks that both agree on total time within
// the pipeline fill/drain correction.
//
// The call blocks until the ring completes on this rank. Every rank must
// call it with identical arguments.
func (g *Group) ChunkedRingAllreduce(p *simnet.Proc, rank int, bytes int64, numChunks int) {
	if numChunks < 1 {
		panic("collective: need at least one chunk")
	}
	pr := g.NumRanks()
	inst := g.join(p, rank)
	if pr > 1 {
		g.chunkedRing(p, inst, rank, bytes, numChunks)
	}
	inst.barrier(p)
	g.finish(p, rank, inst, trace.CatAllreduceRing, bytes)
}

// ringStepChans lazily builds per-neighbor rendezvous channels for one
// chunked collective instance.
type ringState struct {
	chans []*simnet.Chan // chans[r]: rank r sends to rank (r+1)%p
}

func (g *Group) chunkedRing(p *simnet.Proc, inst *instance, rank int, bytes int64, numChunks int) {
	pr := g.NumRanks()
	cl := g.Cl
	if inst.ring == nil {
		inst.ring = &ringState{chans: make([]*simnet.Chan, pr)}
		for r := 0; r < pr; r++ {
			inst.ring.chans[r] = p.Sim().NewChan(fmt.Sprintf("ring.%d", r))
		}
	}
	ring := inst.ring
	gpu := cl.GPU(rank)
	next := cl.GPU((rank + 1) % pr)
	prev := (rank - 1 + pr) % pr

	// Per-step transfer volume: the ring moves bytes/p per logical chunk
	// position, split into numChunks pipeline chunks.
	perStep := bytes / int64(pr)
	perChunk := perStep / int64(numChunks)
	if perChunk < 1 {
		perChunk = 1
	}

	sendOne := func() {
		if next.Node == gpu.Node {
			dur := g.NCCLChunkLatency + float64(perChunk)/cl.Cfg.NVLinkBandwidth
			gpu.Port().Use(p, dur)
		} else {
			cl.InterRingEdge(p, gpu.Node, perChunk, g.NCCLChunkLatency, cluster.PathGDR, uint64(rank))
		}
	}

	// 2(p−1) ring steps, each pipelined over numChunks chunks. At every
	// (step, chunk) the rank transfers its chunk to the next rank and
	// waits for the matching chunk from the previous rank — the
	// dependency structure that creates pipeline fill/drain.
	steps := 2 * (pr - 1)
	for s := 0; s < steps; s++ {
		for c := 0; c < numChunks; c++ {
			sendOne()
			// Rendezvous with both neighbors. Parity ordering avoids the
			// all-send deadlock on rendezvous channels (even ranks send
			// first; odd ranks receive first) — the classic trick for
			// synchronous ring exchanges. The last rank of an odd-sized
			// ring pairs even-even, so it receives first too.
			if rank%2 == 0 && !(pr%2 == 1 && rank == pr-1) {
				ring.chans[rank].Send(p, struct{}{})
				ring.chans[prev].Recv(p)
			} else {
				ring.chans[prev].Recv(p)
				ring.chans[rank].Send(p, struct{}{})
			}
		}
	}
}
