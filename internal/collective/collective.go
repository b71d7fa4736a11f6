// Package collective implements the simulated allreduce algorithms of the
// two communication backends the paper compares — MVAPICH2-GDR's two-level
// hierarchical design and NCCL's flat ring — executed as discrete-event
// processes on the cluster model.
//
// A Backend bundles the algorithm with the transfer paths the visibility
// configuration permits:
//
//	MPI      — hierarchical, host-staged everywhere (no IPC/GDR designs),
//	           no registration cache (paper's default).
//	MPI-Reg  — MPI plus the InfiniBand registration cache.
//	MPI-Opt  — hierarchical with CUDA IPC intra-node and GDR inter-node
//	           (MV2_VISIBLE_DEVICES in effect) plus the registration cache.
//	NCCL     — flat ring with IPC and GDR (NCCL discovers devices itself,
//	           so the framework's CUDA_VISIBLE_DEVICES pinning never hurt
//	           it — which is why the paper's default-MPI degradation does
//	           not appear on the NCCL curves).
package collective

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Backend selects a communication configuration from the paper.
type Backend int

// Backends evaluated in the paper.
const (
	BackendMPI Backend = iota
	BackendMPIReg
	BackendMPIOpt
	BackendNCCL
)

// String names the backend as the paper does.
func (b Backend) String() string {
	switch b {
	case BackendMPI:
		return "MPI"
	case BackendMPIReg:
		return "MPI-Reg"
	case BackendMPIOpt:
		return "MPI-Opt"
	case BackendNCCL:
		return "NCCL"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// IntraPath returns the intra-node transfer path the backend may use.
func (b Backend) IntraPath() cluster.Path {
	switch b {
	case BackendMPI, BackendMPIReg:
		return cluster.PathHostStaged
	default:
		return cluster.PathIPC
	}
}

// InterPath returns the inter-node transfer path the backend may use.
func (b Backend) InterPath() cluster.Path {
	switch b {
	case BackendMPI, BackendMPIReg:
		return cluster.PathIBStaged
	default:
		return cluster.PathGDR
	}
}

// UsesRegCache reports whether the backend enables the registration cache.
func (b Backend) UsesRegCache() bool {
	return b == BackendMPIReg || b == BackendMPIOpt || b == BackendNCCL
}

// Group coordinates collectives among all GPUs of a cluster. Every rank
// must call each collective in the same order (the Horovod engine
// guarantees this); ranks synchronize through per-instance barriers.
//
// All methods run inside simnet processes; the simulation kernel is
// single-threaded, so Group needs no locking.
type Group struct {
	Cl      *cluster.Cluster
	Backend Backend
	// Trace, when non-nil, receives rank 0's view of every collective as
	// a span on the engine track, in virtual nanoseconds.
	Trace *trace.Recorder

	// NCCLChunkLatency is the per-ring-step pipeline latency of the flat
	// ring (two passes of p−1 steps each); it is what makes flat rings
	// degrade at very large rank counts.
	NCCLChunkLatency float64
	// NegotiationBaseLatency scales the Horovod coordinator round:
	// base·log2(p) plus the mask payload transfer.
	NegotiationBaseLatency float64

	seq       []int
	instances map[instKey]*instance
}

type instKey struct {
	seq int
}

// instance is the shared state of one collective call across ranks.
type instance struct {
	key      instKey
	arrived  int
	expected int
	finished int
	waiters  []*simnet.Proc
	start    simnet.Time
	maskAND  []bool
	// ring holds the per-neighbor channels of a chunked-ring instance.
	ring *ringState
}

// NewGroup creates a coordinator over all GPUs in cl; rec may be nil.
func NewGroup(cl *cluster.Cluster, backend Backend, rec *trace.Recorder) *Group {
	g := &Group{
		Cl:                     cl,
		Backend:                backend,
		Trace:                  rec,
		NCCLChunkLatency:       40e-6,
		NegotiationBaseLatency: 45e-6,
		seq:                    make([]int, cl.NumGPUs()),
		instances:              map[instKey]*instance{},
	}
	if backend.UsesRegCache() {
		cl.EnableRegCache(64)
	}
	return g
}

// NumRanks returns the number of participating ranks (all GPUs).
func (g *Group) NumRanks() int { return g.Cl.NumGPUs() }

// join obtains the shared instance for a rank's next collective call.
// The first rank to arrive creates it; its start time records the
// earliest entry for profiling.
func (g *Group) join(p *simnet.Proc, rank int) *instance {
	key := instKey{seq: g.seq[rank]}
	g.seq[rank]++
	inst := g.instances[key]
	if inst == nil {
		inst = &instance{key: key, expected: g.NumRanks(), start: p.Now()}
		g.instances[key] = inst
	}
	if p.Now() < inst.start {
		inst.start = p.Now()
	}
	return inst
}

// finish records rank 0's span of a completed collective — from the
// earliest entry to now — and drops the instance once every rank has
// left it.
func (g *Group) finish(p *simnet.Proc, rank int, inst *instance, cat trace.Category, bytes int64) {
	if rank == 0 {
		start := nanos(inst.start)
		g.Trace.EmitAt(cat, trace.TrackEngine, start, nanos(p.Now())-start, bytes)
	}
	inst.finished++
	if inst.finished == inst.expected {
		delete(g.instances, inst.key)
	}
}

// nanos converts virtual seconds to the span clock's nanoseconds.
func nanos(t simnet.Time) int64 { return int64(math.Round(t * 1e9)) }

// barrier blocks until all ranks of the instance reach the same point.
func (inst *instance) barrier(p *simnet.Proc) {
	inst.arrived++
	if inst.arrived == inst.expected {
		inst.arrived = 0
		for _, w := range inst.waiters {
			p.Sim().Wake(w)
		}
		inst.waiters = inst.waiters[:0]
		return
	}
	inst.waiters = append(inst.waiters, p)
	p.Block()
}
