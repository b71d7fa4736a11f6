// Package scaling runs the paper's distributed-training experiments on the
// simulated cluster: for a given backend (MPI, MPI-Reg, MPI-Opt, NCCL) and
// node count it simulates data-parallel EDSR training — per-rank compute
// processes emitting gradients through a Horovod-style engine whose fused
// allreduces execute on the discrete-event machine model — and reports
// throughput, scaling efficiency, and — through an optional
// trace.Recorder — the same span timeline a real run records, from which
// the hvprof communication profile is derived.
package scaling

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/horovod"
	"repro/internal/models"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Options configures one simulated training run.
type Options struct {
	// Nodes on the simulated machine (4 GPUs each).
	Nodes int
	// Backend is the communication configuration under test.
	Backend collective.Backend
	// Steps to simulate (after WarmupSteps).
	Steps int
	// WarmupSteps are excluded from throughput (default 1).
	WarmupSteps int
	// Model selects the EDSR configuration (default: paper config).
	Model models.EDSRConfig
	// BatchPerGPU (default 4, the paper's choice). The paper's study is
	// weak scaling: the per-GPU batch is fixed and the global batch grows
	// with the GPU count.
	BatchPerGPU int
	// GlobalBatchSize, when nonzero, switches to strong scaling: the
	// global batch is fixed and each GPU processes
	// max(1, GlobalBatchSize/p) images per step, so per-step compute
	// shrinks with scale and communication dominates sooner — the
	// extension experiment the paper leaves open.
	GlobalBatchSize int
	// FusionThresholdBytes is HOROVOD_FUSION_THRESHOLD (default 64 MB).
	FusionThresholdBytes int64
	// CycleTimeSec is HOROVOD_CYCLE_TIME (the paper tunes it per scale to
	// maximize throughput; default 10 ms).
	CycleTimeSec float64
	// Compression prices the gradient-compression variants of the real
	// communication path (internal/collective) on the cluster model:
	// fp16 halves wire payloads and pays pack/unpack kernel passes; topk
	// ships ~1/TopKRatio of each bucket as index+value payloads over a
	// sparse ring allgather.
	Compression collective.Compression
	// TopKRatio is the top-k sparsification ratio (default 32).
	TopKRatio int
	// JitterFrac is the relative stddev of per-rank compute time
	// (OS/driver noise); synchronous training pays the slowest rank.
	JitterFrac float64
	// Seed drives the jitter streams.
	Seed uint64
	// Cluster overrides the machine parameters (default: calibrated
	// Lassen-like DefaultConfig).
	Cluster *cluster.Config
	// Trace, when non-nil, records rank 0's timeline in virtual time:
	// forward, backward and sync-wait (drain) spans on the trainer track,
	// every collective on the engine track. Its hvprof report is the
	// run's communication profile.
	Trace *trace.Recorder
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 1
	}
	if o.Steps == 0 {
		o.Steps = 10
	}
	if o.WarmupSteps == 0 {
		o.WarmupSteps = 1
	}
	if o.Model.NumBlocks == 0 {
		o.Model = models.EDSRPaper()
	}
	if o.BatchPerGPU == 0 {
		o.BatchPerGPU = perfmodel.EDSRBatchSize
	}
	if o.FusionThresholdBytes == 0 {
		o.FusionThresholdBytes = 64 << 20
	}
	if o.CycleTimeSec == 0 {
		o.CycleTimeSec = 0.010
	}
	if o.JitterFrac == 0 {
		o.JitterFrac = 0.015
	}
	if o.TopKRatio == 0 {
		o.TopKRatio = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result summarizes one run.
type Result struct {
	GPUs         int
	Backend      collective.Backend
	ImagesPerSec float64
	StepSec      float64
	SimulatedSec float64
	RegCacheHits int64
	RegCacheMiss int64
	Messages     int
	FusedBytes   int64
	// WireBytes is the cumulative compressed wire payload of rank 0's
	// allreduces; equal to FusedBytes when no compression is configured.
	// FusedBytes/WireBytes is the run's wire-reduction factor.
	WireBytes int64
}

// RegCacheHitRate returns the registration-cache hit rate of the run.
func (r Result) RegCacheHitRate() float64 {
	total := r.RegCacheHits + r.RegCacheMiss
	if total == 0 {
		return 0
	}
	return float64(r.RegCacheHits) / float64(total)
}

// rankState is the data shared between one rank's compute and engine
// processes. The simulation kernel is single-threaded, so plain fields
// suffice.
type rankState struct {
	ready        []bool
	wantShutdown bool
	stepWG       *simnet.WaitGroup
}

// Run simulates one training configuration and returns its result.
func Run(opt Options) Result {
	opt = opt.withDefaults()
	sim := simnet.New()
	ccfg := cluster.DefaultConfig(opt.Nodes)
	if opt.Cluster != nil {
		ccfg = *opt.Cluster
		ccfg.Nodes = opt.Nodes
	}
	cl := cluster.New(sim, ccfg)
	group := collective.NewGroup(cl, opt.Backend, opt.Trace)
	p := cl.NumGPUs()

	layout := perfmodel.GradLayout(opt.Model)
	nt := len(layout)
	sizes := make([]int64, nt)
	// Engine-side registration order is submission order: reverse layout,
	// as the backward pass produces tail gradients first.
	revNames := make([]string, nt)
	for i := range layout {
		rev := layout[nt-1-i]
		sizes[i] = rev.Bytes()
		revNames[i] = rev.Name
	}

	batchPerGPU := opt.BatchPerGPU
	if opt.GlobalBatchSize > 0 {
		batchPerGPU = opt.GlobalBatchSize / (opt.Nodes * cluster.DefaultConfig(1).GPUsPerNode)
		if batchPerGPU < 1 {
			batchPerGPU = 1
		}
	}
	stepSec := perfmodel.EDSRStepSec(batchPerGPU)
	fwd := stepSec * perfmodel.ForwardFraction
	bwd := stepSec - fwd
	bursts := perfmodel.BurstSchedule(layout)

	var measureStart, measureEnd simnet.Time
	var messages int
	var fusedBytes, wireBytes int64

	totalSteps := opt.Steps + opt.WarmupSteps
	states := make([]*rankState, p)
	for r := 0; r < p; r++ {
		states[r] = &rankState{ready: make([]bool, nt)}
	}

	for r := 0; r < p; r++ {
		r := r
		st := states[r]
		jrng := tensor.NewRNG(opt.Seed*1_000_003 + uint64(r)*97 + 11)

		// Compute process: initial parameter broadcast (step 2 of the
		// paper's Horovod recipe), then per-step forward, gradient
		// bursts, synchronization wait, optimizer update.
		sim.Spawn(fmt.Sprintf("compute.%d", r), func(pc *simnet.Proc) {
			group.Bcast(pc, r, perfmodel.TotalGradBytes(layout), 999_999)
			for step := 0; step < totalSteps; step++ {
				if r == 0 && step == opt.WarmupSteps {
					measureStart = pc.Now()
				}
				jitter := 1 + opt.JitterFrac*float64(jrng.NormFloat32())
				if jitter < 0.5 {
					jitter = 0.5
				}
				st.stepWG = pc.Sim().NewWaitGroup(nt)
				computeStart := pc.Now()
				pc.Sleep(fwd * jitter)
				if r == 0 {
					span(opt.Trace, trace.CatForward, computeStart, pc.Now())
				}
				bwdStart := pc.Now()
				prev := 0.0
				for _, b := range bursts {
					pc.Sleep((b.AtFrac - prev) * bwd * jitter)
					prev = b.AtFrac
					for _, id := range b.Tensors {
						st.ready[id] = true
					}
				}
				if r == 0 {
					span(opt.Trace, trace.CatBackward, bwdStart, pc.Now())
				}
				waitStart := pc.Now()
				st.stepWG.Wait(pc)
				if r == 0 && pc.Now() > waitStart {
					span(opt.Trace, trace.CatDrain, waitStart, pc.Now())
				}
				if r == 0 && step == totalSteps-1 {
					measureEnd = pc.Now()
				}
			}
			st.wantShutdown = true
		})

		// Engine process: Horovod background loop — cycle sleep,
		// negotiation, fusion, allreduce.
		sim.Spawn(fmt.Sprintf("engine.%d", r), func(pe *simnet.Proc) {
			mask := make([]bool, nt+1)
			for {
				// Fixed-phase cycle clock: sleep to the next multiple of
				// the cycle time rather than a relative sleep, so cycle
				// boundaries don't drift with the backend's collective
				// speed (which would alias into the step tail and make
				// backend comparisons unfair).
				now := pe.Now()
				next := (math.Floor(now/opt.CycleTimeSec) + 1) * opt.CycleTimeSec
				pe.Sleep(next - now)
				copy(mask, st.ready)
				mask[nt] = st.wantShutdown
				global := group.Negotiate(pe, r, mask)
				var ready []int
				for i := 0; i < nt; i++ {
					if global[i] {
						ready = append(ready, i)
					}
				}
				groups := horovod.PlanFusion(sizes, ready, opt.FusionThresholdBytes)
				for _, grp := range groups {
					bytes := horovod.GroupBytes(sizes, grp)
					wire := group.AllreduceCompressed(pe, r, bytes,
						regKeyFor(sizes, grp, opt.FusionThresholdBytes), opt.Compression, opt.TopKRatio)
					for _, id := range grp {
						st.ready[id] = false
						st.stepWG.Done()
					}
					if r == 0 {
						messages++
						fusedBytes += bytes
						wireBytes += wire
					}
				}
				if global[nt] && len(ready) == 0 {
					return
				}
			}
		})
	}

	sim.RunAll()

	elapsed := float64(measureEnd - measureStart)
	images := float64(opt.Steps * batchPerGPU * p)
	res := Result{
		GPUs:         p,
		Backend:      opt.Backend,
		SimulatedSec: elapsed,
		Messages:     messages,
		FusedBytes:   fusedBytes,
		WireBytes:    wireBytes,
	}
	if elapsed > 0 {
		res.ImagesPerSec = images / elapsed
		res.StepSec = elapsed / float64(opt.Steps)
	}
	res.RegCacheHits, res.RegCacheMiss = cl.RegCacheStats()
	return res
}

// span records one compute phase [start, end) of rank 0 on the trainer
// track, in virtual nanoseconds.
func span(rec *trace.Recorder, cat trace.Category, start, end simnet.Time) {
	s := int64(math.Round(start * 1e9))
	rec.EmitAt(cat, trace.TrackMain, s, int64(math.Round(end*1e9))-s, 0)
}

// regKeyFor identifies the communication buffer a fusion group travels in.
// Multi-tensor groups ride Horovod's single reusable fusion buffer, but a
// registration covers (address, length): a group shorter than the buffer
// registers a different extent, so the key includes the padded length
// class. Unfused tensors use their own (stable) buffers.
func regKeyFor(sizes []int64, grp []int, threshold int64) uint64 {
	if len(grp) == 1 {
		return 1_000_000 + uint64(grp[0])
	}
	bytes := horovod.GroupBytes(sizes, grp)
	// Length class: registrations cover page-aligned extents, so nearby
	// group sizes reuse the same registration (8 MB classes).
	return uint64(bytes >> 23)
}

// Efficiency computes scaling efficiency against a single-GPU baseline
// throughput (the paper's Fig. 13 metric).
func Efficiency(r Result, singleGPUImagesPerSec float64) float64 {
	if r.GPUs == 0 || singleGPUImagesPerSec <= 0 {
		return 0
	}
	return r.ImagesPerSec / (float64(r.GPUs) * singleGPUImagesPerSec)
}

// SingleGPUBaseline returns the modeled one-GPU throughput used as the
// efficiency denominator.
func SingleGPUBaseline(batch int) float64 {
	if batch <= 0 {
		batch = perfmodel.EDSRBatchSize
	}
	t, _ := perfmodel.EDSRThroughput(batch)
	return t
}

// Sweep runs one backend across the paper's node counts (1→128 nodes,
// i.e. 4→512 GPUs) and returns results in order. rec, when non-nil,
// records every run, each starting at virtual time zero.
func Sweep(backend collective.Backend, nodeCounts []int, steps int, rec *trace.Recorder) []Result {
	results := make([]Result, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		results = append(results, Run(Options{
			Nodes:   n,
			Backend: backend,
			Steps:   steps,
			Trace:   rec,
		}))
	}
	return results
}

// PaperNodeCounts are the scales of the paper's Figs. 10-13 (4 to 512
// GPUs in powers of two).
func PaperNodeCounts() []int { return []int{1, 2, 4, 8, 16, 32, 64, 128} }

// SpeedupAt returns opt/def throughput at matching indices (the paper's
// "1.26× at 512 GPUs").
func SpeedupAt(opt, def []Result, i int) float64 {
	if i >= len(opt) || i >= len(def) || def[i].ImagesPerSec == 0 {
		return math.NaN()
	}
	return opt[i].ImagesPerSec / def[i].ImagesPerSec
}
