package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/nn"
	"repro/internal/serve/cache"
	"repro/internal/tensor"
)

// microbench times f for about budget and returns the per-call seconds of
// each sample. A sample is the mean over a batch of calls sized to last
// about a millisecond; prep, when non-nil, runs untimed before each call.
func microbench(budget time.Duration, prep, f func()) []float64 {
	timed := func() time.Duration {
		if prep != nil {
			prep()
		}
		began := time.Now()
		f()
		return time.Since(began)
	}
	timed() // first call grows scratch buffers
	batch := max(1, int(time.Millisecond/max(timed(), time.Microsecond)))
	var out []float64
	for deadline := time.Now().Add(budget); time.Now().Before(deadline) || len(out) < 5; {
		var sum time.Duration
		for i := 0; i < batch; i++ {
			sum += timed()
		}
		out = append(out, sum.Seconds()/float64(batch))
	}
	return out
}

// microBudget is how long each micro-benchmark samples; a quick run
// takes the minimum of five samples and moves on.
func microBudget(quick bool) time.Duration {
	if quick {
		return 0
	}
	return 150 * time.Millisecond
}

// Shapes of the kernel micro-benchmarks: EDSRTiny's body convolution
// (16 -> 16 channels, 3x3) on one training batch of 4 x 24 x 24 patches
// lowers to a 16 x 144 x 2304 GEMM; vectors are 1 MB of float32.
const (
	gemmM, gemmK, gemmN = 16, 144, 2304
	vecElems            = 1 << 18
)

func seededSlice(n int, seed uint64) []float32 {
	t := tensor.New(n)
	t.FillNormal(tensor.NewRNG(seed), 0, 1)
	return t.Data()
}

// benchTrainKernels measures the tensor and nn layers the training step
// rests on, each through its public entry point at the training shape.
func benchTrainKernels(r *report, budget time.Duration) {
	ws := tensor.NewWorkspace()
	a, b := seededSlice(gemmM*gemmK, 1), seededSlice(gemmK*gemmN, 2)
	dst := make([]float32, gemmM*gemmN)
	gemm := median(microbench(budget, nil, func() { ws.Gemm(dst, a, b, gemmM, gemmK, gemmN) }))
	r.set("tensor.gemm_train_gflops", 2*gemmM*gemmK*gemmN/gemm/1e9)

	rng := tensor.NewRNG(3)
	conv := nn.NewConv2d("bench.conv", 16, 16, 3, 1, 1, true, rng)
	x := tensor.New(trainBatch, 16, trainPatch, trainPatch)
	x.FillNormal(rng, 0, 1)
	var y *tensor.Tensor
	r.set("nn.conv_fwd_ms", median(microbench(budget, nil, func() { y = conv.Forward(x) }))*1e3)
	g := tensor.New(y.Shape()...)
	g.FillNormal(rng, 0, 1)
	r.set("nn.conv_bwd_ms", median(microbench(budget, func() { conv.Forward(x) }, func() { conv.Backward(g) }))*1e3)
}

// benchPackedGemm measures the prepacked inference GEMM (the compiled
// forward's kernel) at the same shape as the training GEMM.
func benchPackedGemm(r *report, budget time.Duration) {
	ws := tensor.NewWorkspace()
	a, b := seededSlice(gemmM*gemmK, 1), seededSlice(gemmK*gemmN, 2)
	bias := seededSlice(gemmM, 3)
	dst := make([]float32, gemmM*gemmN)
	pa := tensor.PackA(a, gemmM, gemmK)
	t := median(microbench(budget, nil, func() { ws.GemmPackedBias(dst, pa, b, gemmN, bias, true) }))
	r.set("tensor.gemm_packed_gflops", 2*gemmM*gemmK*gemmN/t/1e9)
}

// benchVectorKernels measures the two kernels the allreduce paths spend
// their compute in. Bytes are computed from the shapes: VecAdd reads two
// vectors and writes one (12 B per element), PackHalf reads float32 and
// writes binary16 (6 B per element).
func benchVectorKernels(r *report, budget time.Duration) {
	dst, src := seededSlice(vecElems, 4), seededSlice(vecElems, 5)
	add := median(microbench(budget, nil, func() { tensor.VecAdd(dst, src) }))
	r.set("tensor.vecadd_gb_per_s", 12*vecElems/add/1e9)
	half := make([]float32, tensor.HalfWords(vecElems))
	pack := median(microbench(budget, nil, func() { tensor.PackHalf(half, src) }))
	r.set("tensor.packhalf_gb_per_s", 6*vecElems/pack/1e9)
}

// recordProc reports the process-wide memory cost of the pass since
// before: garbage-collector pause time and the live heap at its end.
func recordProc(r *report, before runtime.MemStats) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.set("proc.gc_pause_ms", float64(now.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.set("proc.heap_mb", float64(now.HeapInuse)/(1<<20))
}

// benchCache measures the result cache through its public API with
// entries the size of one upscaled serving image: insert_us is a miss
// that computes (a copy), stores and — once the budget is full — evicts;
// get_us is a hit that copies the stored result out.
func benchCache(r *report, budget time.Duration) {
	c := cache.New(cache.Config{MaxBytes: serveCacheMiB << 20}, nil, nil)
	out := tensor.New(1, 3, 2*serveEdge, 2*serveEdge)
	src := seededSlice(out.Len(), 6)
	ctx := context.Background()
	var i uint64
	insert := microbench(budget, nil, func() {
		i++
		_ = c.Do(ctx, cache.Key{Hi: i, Lo: 1}, out, func(o *tensor.Tensor) error {
			copy(o.Data(), src)
			return nil // the only error Do could pass on
		})
	})
	r.set("cache.insert_us", median(insert)*1e6)
	var j uint64
	recent := min(i, 32) // look-ups cycle over the keys inserted last
	missed := 0
	get := microbench(budget, nil, func() {
		j++
		if !c.Get(cache.Key{Hi: i - j%recent, Lo: 1}, out) {
			missed++
		}
	})
	r.set("cache.get_us", median(get)*1e6)
	r.ops(1)
	r.check(missed == 0, "cache micro-benchmark: %d lookups of just-inserted keys missed", missed)
}
