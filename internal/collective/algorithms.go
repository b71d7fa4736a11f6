package collective

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Allreduce performs one allreduce of a bytes-sized buffer across all
// ranks; every rank's engine must call it in the same order. regKey
// identifies the communication buffer (Horovod's fusion buffer or an
// unfused tensor) for the registration cache. The call returns when the
// collective completes on this rank; rank 0 traces it as a ring (NCCL)
// or hierarchical (MPI) allreduce span.
func (g *Group) Allreduce(p *simnet.Proc, rank int, bytes int64, regKey uint64) {
	inst := g.join(p, rank)
	cat, run := trace.CatAllreduceHier, g.hierarchical
	if g.Backend == BackendNCCL {
		cat, run = trace.CatAllreduceRing, g.flatRing
	}
	if g.NumRanks() > 1 {
		run(p, inst, rank, bytes, regKey)
	}
	inst.barrier(p)
	g.finish(p, rank, inst, cat, bytes)
}

// hierarchical is the MVAPICH2-GDR-style two-level design: reduce within
// each node (NVLink or host-staged), ring-allreduce across node leaders
// (InfiniBand), then broadcast within each node.
func (g *Group) hierarchical(p *simnet.Proc, inst *instance, rank int, bytes int64, regKey uint64) {
	cl := g.Cl
	gpu := cl.GPU(rank)
	gs := cl.Cfg.GPUsPerNode
	nodes := cl.Cfg.Nodes
	isLeader := gpu.Local == 0

	// Phase 1 — intra-node reduce: a reduce-scatter in which every rank
	// moves (g−1)/g of the buffer, then non-leaders forward their reduced
	// shard (1/g) to the leader.
	if gs > 1 {
		vol := bytes * int64(gs-1) / int64(gs)
		if !isLeader {
			vol += bytes / int64(gs)
		}
		dur := float64(gs-1)*g.intraLatency(bytes) + float64(vol)/g.intraBandwidth(bytes)
		gpu.Port().Use(p, dur)
	}
	inst.barrier(p)

	// Phase 2 — inter-node ring allreduce among node leaders: each leader
	// moves 2·bytes·(N−1)/N through its NIC across 2(N−1) pipelined steps.
	if nodes > 1 && isLeader {
		vol := 2 * bytes * int64(nodes-1) / int64(nodes)
		steps := 2 * (nodes - 1)
		cl.InterRing(p, gpu.Node, vol, steps, g.Backend.InterPath(), regKey)
	}
	inst.barrier(p)

	// Phase 3 — intra-node broadcast of the result from the leader.
	if gs > 1 && !isLeader {
		dur := g.intraLatency(bytes) + float64(bytes)/g.intraBandwidth(bytes)
		gpu.Port().Use(p, dur)
	}
}

// intraPath resolves the intra-node path for a message of the given size.
// MVAPICH2-GDR's CUDA-IPC designs only engage for large messages (the
// pipelined staging path serves small and medium ones in every mode),
// which is why the paper's Table I shows ≈0 improvement below 16 MB: both
// configurations take the same path there. NCCL always runs over IPC.
func (g *Group) intraPath(bytes int64) cluster.Path {
	switch g.Backend {
	case BackendNCCL:
		return cluster.PathIPC
	case BackendMPIOpt:
		if bytes >= g.Cl.Cfg.IPCMessageThreshold {
			return cluster.PathIPC
		}
		return cluster.PathHostStaged
	default:
		return cluster.PathHostStaged
	}
}

func (g *Group) intraBandwidth(bytes int64) float64 {
	if g.intraPath(bytes) == cluster.PathIPC {
		return g.Cl.Cfg.NVLinkBandwidth
	}
	return g.Cl.Cfg.HostStagedBandwidth
}

func (g *Group) intraLatency(bytes int64) float64 {
	if g.intraPath(bytes) == cluster.PathIPC {
		return g.Cl.Cfg.NVLinkLatency
	}
	return g.Cl.Cfg.HostStagedLatency
}

// flatRing is the NCCL-style single ring over all ranks: each rank moves
// 2·bytes·(p−1)/p to its ring neighbor — over NVLink when the neighbor is
// on the same node, over InfiniBand when the ring crosses nodes — with a
// per-step pipeline latency that grows linearly in p.
func (g *Group) flatRing(p *simnet.Proc, inst *instance, rank int, bytes int64, regKey uint64) {
	cl := g.Cl
	gpu := cl.GPU(rank)
	pr := g.NumRanks()
	next := cl.GPU((rank + 1) % pr)
	vol := 2 * bytes * int64(pr-1) / int64(pr)
	pipeline := 2 * float64(pr-1) * g.NCCLChunkLatency

	if next.Node == gpu.Node {
		dur := pipeline + float64(vol)/cl.Cfg.NVLinkBandwidth
		gpu.Port().Use(p, dur)
	} else {
		// Ring edge crossing to the next node: GDR over this node's NIC.
		cl.InterRingEdge(p, gpu.Node, vol, pipeline, cluster.PathGDR, regKey)
	}
	inst.barrier(p)
}

// Bcast broadcasts a bytes-sized buffer from global rank 0 to all ranks —
// Horovod's initial parameter synchronization (step 2 of the paper's
// integration recipe). The simulated cost is a binomial tree over node
// leaders (log₂ N network hops) followed by an intra-node broadcast.
func (g *Group) Bcast(p *simnet.Proc, rank int, bytes int64, regKey uint64) {
	inst := g.join(p, rank)
	cl := g.Cl
	gpu := cl.GPU(rank)
	nodes := cl.Cfg.Nodes
	gs := cl.Cfg.GPUsPerNode
	if g.NumRanks() > 1 {
		// Inter-node stage: each leader after the root forwards once per
		// binomial-tree round it participates in; we charge each
		// non-root leader one receive and the root log₂(N) sends.
		if nodes > 1 && gpu.Local == 0 {
			rounds := 0
			for 1<<rounds < nodes {
				rounds++
			}
			if gpu.Node == 0 {
				vol := bytes * int64(rounds)
				cl.InterRing(p, 0, vol, rounds, g.Backend.InterPath(), regKey)
			} else {
				cl.InterRing(p, gpu.Node, bytes, 1, g.Backend.InterPath(), regKey)
			}
		}
		inst.barrier(p)
		// Intra-node stage: leader fans the buffer out over NVLink/staged.
		if gs > 1 && gpu.Local != 0 {
			dur := g.intraLatency(bytes) + float64(bytes)/g.intraBandwidth(bytes)
			gpu.Port().Use(p, dur)
		}
	}
	inst.barrier(p)
	g.finish(p, rank, inst, trace.CatBcast, bytes)
}

// Negotiate is Horovod's coordinator round: every rank contributes its
// local readiness mask; the returned mask is the AND across ranks
// (tensors ready everywhere). The round costs a latency-bound small
// allreduce — base·log2(p) plus the mask payload. Its "negotiate" span
// counts as a small allreduce in the hvprof tables, which is what
// populates the 1–128 KB bucket of the paper's Fig. 14.
func (g *Group) Negotiate(p *simnet.Proc, rank int, mask []bool) []bool {
	inst := g.join(p, rank)
	if inst.maskAND == nil {
		inst.maskAND = append([]bool(nil), mask...)
	} else {
		for i, m := range mask {
			inst.maskAND[i] = inst.maskAND[i] && m
		}
	}
	inst.barrier(p)
	out := append([]bool(nil), inst.maskAND...)

	pr := g.NumRanks()
	bytes := int64(len(mask)) * 4 // one float32 flag per tensor on the wire
	if pr > 1 {
		dur := g.NegotiationBaseLatency*math.Log2(float64(pr)) + float64(bytes)/5e8
		p.Sleep(dur)
	}
	inst.barrier(p)
	g.finish(p, rank, inst, trace.CatNegotiate, bytes)
	return out
}
