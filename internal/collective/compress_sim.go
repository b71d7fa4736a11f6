package collective

import (
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Simulation-side pricing of the compressed allreduce variants, mirroring
// the real implementations in compress.go / internal/mpi on the cluster
// cost model: fp16 halves every wire payload and pays pack/unpack passes
// at the GPU's compression-kernel bandwidth; top-k shrinks the payload by
// ~ratio and replaces the reduce-scatter+allgather with a sparse ring
// allgather of fixed-size index+value payloads.

// compressSleep charges one pass of a compression kernel over bytes of
// input on this rank's GPU (a compute cost, not a port transfer).
func (g *Group) compressSleep(p *simnet.Proc, bytes int64) {
	if cb := g.Cl.Cfg.CompressBandwidth; cb > 0 {
		p.Sleep(float64(bytes) / cb)
	}
}

// AllreduceCompressed performs one allreduce of a logical bytes-sized
// gradient bucket under the selected compression and returns the wire
// payload size the variant moved (per ring message — the figure hvprof's
// size buckets and the wire-reduction reports key on). CompressNone
// delegates to the backend's exact Allreduce.
func (g *Group) AllreduceCompressed(p *simnet.Proc, rank int, bytes int64, regKey uint64, comp Compression, topkRatio int) int64 {
	switch comp {
	case CompressFP16:
		return g.AllreduceFP16(p, rank, bytes, regKey)
	case CompressTopK:
		return g.AllreduceTopK(p, rank, bytes, topkRatio, regKey)
	default:
		g.Allreduce(p, rank, bytes, regKey)
		return bytes
	}
}

// AllreduceFP16 is the fp16-compressed allreduce: the collective itself
// moves half the bytes over whichever algorithm the backend runs, plus a
// pack and an unpack pass per rank (re-quantization at intermediate hops
// rides the same passes in the real implementation's pipeline shadow).
func (g *Group) AllreduceFP16(p *simnet.Proc, rank int, bytes int64, regKey uint64) int64 {
	wire := (bytes + 1) / 2
	inst := g.join(p, rank)
	if g.NumRanks() > 1 {
		g.compressSleep(p, bytes) // pack to binary16
		if g.Backend == BackendNCCL {
			g.flatRing(p, inst, rank, wire, regKey)
		} else {
			g.hierarchical(p, inst, rank, wire, regKey)
		}
		g.compressSleep(p, bytes) // unpack to float32
	}
	inst.barrier(p)
	g.finish(p, rank, inst, trace.CatAllreduceFP16, wire)
	return wire
}

// AllreduceTopK is the top-k sparsified allreduce: every rank selects
// k = ⌈n/ratio⌉ elements (one selection pass over the bucket), then the
// fixed-size payloads — 1+2k words of count, indices, and values —
// travel a flat ring allgather in which each rank forwards p−1 payloads,
// and every rank decodes all p contributions. Returns the per-payload
// wire size.
func (g *Group) AllreduceTopK(p *simnet.Proc, rank int, bytes int64, ratio int, regKey uint64) int64 {
	elems := bytes / 4
	if elems < 1 {
		elems = 1
	}
	wire := int64(TopKWords(TopKCount(int(elems), ratio))) * 4
	inst := g.join(p, rank)
	pr := g.NumRanks()
	if pr > 1 {
		g.compressSleep(p, bytes) // error-feedback fold + top-k selection
		cl := g.Cl
		gpu := cl.GPU(rank)
		next := cl.GPU((rank + 1) % pr)
		vol := int64(pr-1) * wire
		pipeline := float64(pr-1) * g.NCCLChunkLatency
		if next.Node == gpu.Node {
			dur := pipeline + float64(vol)/cl.Cfg.NVLinkBandwidth
			gpu.Port().Use(p, dur)
		} else {
			cl.InterRingEdge(p, gpu.Node, vol, pipeline, g.Backend.InterPath(), regKey)
		}
		inst.barrier(p)
		g.compressSleep(p, int64(pr)*wire) // decode-sum all contributions
	}
	inst.barrier(p)
	g.finish(p, rank, inst, trace.CatAllreduceTopK, wire)
	return wire
}
