// Package trainer trains the super-resolution models for real on the CPU.
// There is one training loop, Session.RunSteps, and one training-state
// file format; single-process training, Horovod-style data-parallel
// training over the in-process MPI substrate, elastic fault-tolerant
// training and the model zoo are drivers over them, with throughput
// metering and PSNR evaluation against the bicubic baseline.
package trainer

import (
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Config drives a training run.
type Config struct {
	// Model configuration (EDSR).
	Model models.EDSRConfig
	// Data generation parameters.
	Data data.SyntheticConfig
	// Steps of training.
	Steps int
	// BatchSize per process.
	BatchSize int
	// PatchSize (LR pixels).
	PatchSize int
	// LR is the base learning rate (scaled by world size when
	// distributed, per the Horovod guideline).
	LR float64
	// LRDecayEvery halves the learning rate every this many steps
	// (0 disables; EDSR's published schedule uses 2e5).
	LRDecayEvery int
	// Seed for weights and data sampling.
	Seed uint64
	// Compression selects the gradient-compression allreduce variant for
	// distributed runs: "" or "none" (exact float32 ring), "fp16"
	// (half-precision wire), "topk" (top-k sparsification with error
	// feedback), "hier" / "hier-fp16" (two-level node-aware reduction,
	// exact or fp16 inter-node wire).
	Compression string
	// TopKRatio keeps ⌈n/ratio⌉ elements per gradient bucket under
	// "topk" (0 = the default 32, i.e. ~3% density).
	TopKRatio int
	// GPUsPerNode sets the world's node topology for the "hier" variants
	// (0 = 1 GPU per node).
	GPUsPerNode int
	// LogEvery prints progress every N steps to Log (0 disables).
	LogEvery int
	// Log receives progress lines (nil for no logging).
	Log io.Writer
	// Trace, when non-nil, records per-phase spans (step, forward,
	// backward, grad hooks, engine reductions, drain, checkpoints) on
	// every rank; gather the merged timeline with Trace.Timeline().
	// Runtime-only, like Log: stripped before checkpoint serialization.
	Trace *trace.Session
	// Metrics receives live counters/gauges/histograms (rank 0 updates
	// them); serve with trace.ServeMetrics. Nil at construction means
	// none: the session substitutes the empty bundle, so a caller that
	// sets it afterwards sets a bundle, never nil. Runtime-only, like Log.
	Metrics *trace.TrainMetrics
}

// sanitized strips the runtime-only fields (writers, tracing, metrics)
// that cannot or should not be serialized into checkpoints.
func (c Config) sanitized() Config {
	c.Log = nil
	c.Trace = nil
	c.Metrics = nil
	return c
}

// DefaultConfig returns a laptop-scale configuration that trains a tiny
// EDSR for real.
func DefaultConfig() Config {
	return Config{
		Model:     models.EDSRTiny(),
		Data:      data.SyntheticConfig{Images: 64, Height: 48, Width: 48, Channels: 3, Seed: 7},
		Steps:     60,
		BatchSize: 4,
		PatchSize: 12,
		LR:        1e-3,
		Seed:      1,
	}
}

// defaultTopKRatio is the sparsification rate used when TopKRatio is
// unset: keep 1/32 of each bucket, DGC's moderate operating point.
const defaultTopKRatio = 32

// Stats summarizes a completed run.
type Stats struct {
	Steps        int
	FinalLoss    float64
	AvgLoss      float64
	ImagesPerSec float64
	WallSeconds  float64
	// AllocsPerStep is the mean number of heap allocations per training
	// step after the first (warm-up) step, measured process-wide with
	// runtime.ReadMemStats. With the scratch-pool kernels the model's
	// forward/backward is allocation-free at steady state, so this mostly
	// counts the data loader and logging; it is only meaningful for
	// single-process runs (distributed ranks share the process counters).
	AllocsPerStep float64
	// PSNRModel and PSNRBicubic compare the trained model against the
	// classical baseline on held-out images (computed by Evaluate).
	PSNRModel   float64
	PSNRBicubic float64
	// DrainMsPerStep is the mean exposed communication wait per step —
	// the milliseconds DistributedOptimizer.Drain blocked after backward
	// finished. Zero for single-process runs; the lower it is relative
	// to total allreduce time, the more communication the overlapped
	// backward actually hid.
	DrainMsPerStep float64
}

// TrainSingle trains an EDSR on one process and returns the model and
// stats.
func TrainSingle(cfg Config) (*models.EDSR, Stats, error) {
	var out rankProgress
	if err := trainRank(ElasticConfig{Train: cfg}, nil, nil, &out); err != nil {
		return nil, Stats{}, err
	}
	return out.model, out.s.Stats(), nil
}

// TrainDistributed trains data-parallel replicas across an in-process MPI
// world, returning rank 0's model and stats: one TrainElastic attempt with
// no checkpoint path, so a rank failure is returned, not restarted.
func TrainDistributed(cfg Config, worldSize int) (*models.EDSR, Stats, error) {
	if worldSize < 1 {
		return nil, Stats{}, fmt.Errorf("trainer: world size %d", worldSize)
	}
	if worldSize == 1 {
		return TrainSingle(cfg)
	}
	out, _, err := runAttempt(ElasticConfig{Train: cfg}, worldSize, mpi.NoFaults())
	if err != nil {
		return nil, Stats{}, err
	}
	return out.model, out.s.Stats(), nil
}

// heldOutPSNR sums the PSNR of the model's super-resolution and of bicubic
// upscaling over the held-out images first, first+stride, … below n
// (generated past the training set by index offset).
func heldOutPSNR(model SRModel, pre func(*tensor.Tensor) *tensor.Tensor, cfg Config, n, first, stride int) (sumModel, sumBicubic float64) {
	eval := data.NewDataset(data.SyntheticConfig{
		Images:   cfg.Data.Images + n,
		Height:   cfg.Data.Height,
		Width:    cfg.Data.Width,
		Channels: cfg.Data.Channels,
		Seed:     cfg.Data.Seed,
	})
	for i := first; i < n; i += stride {
		lr, hr := eval.Pair(cfg.Data.Images+i, cfg.Model.Scale)
		sr := model.Forward(pre(lr))
		sr.Clamp(0, 1)
		bi := models.BicubicUpscale(lr, cfg.Model.Scale)
		bi.Clamp(0, 1)
		sumModel += metrics.PSNR(sr, hr, 1)
		sumBicubic += metrics.PSNR(bi, hr, 1)
	}
	return sumModel, sumBicubic
}

// Evaluate computes mean PSNR of the model's super-resolution and of
// bicubic upscaling over n held-out images.
func Evaluate(model SRModel, cfg Config, n int) (psnrModel, psnrBicubic float64) {
	pm, pb := heldOutPSNR(model, identity, cfg, n, 0, 1)
	return pm / float64(n), pb / float64(n)
}

// EvaluateDistributed computes mean PSNR over n held-out images with the
// work sharded across the communicator's ranks — rank r scores images
// ≡ r (mod size) — and the per-rank partial sums combined with an
// allreduce, the standard Horovod evaluation pattern (metric tensors are
// allreduced exactly like gradients). Every rank returns the identical
// global means.
func EvaluateDistributed(comm *mpi.Comm, model SRModel, cfg Config, n int) (psnrModel, psnrBicubic float64) {
	pm, pb := heldOutPSNR(model, identity, cfg, n, comm.Rank(), comm.Size())
	sums := []float32{float32(pm), float32(pb)}
	comm.AllreduceSum(sums, mpi.AlgoRing)
	if n == 0 {
		return 0, 0
	}
	return float64(sums[0]) / float64(n), float64(sums[1]) / float64(n)
}
