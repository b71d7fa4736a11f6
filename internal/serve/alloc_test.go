package serve

import (
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/tensor"
)

// TestRunBatchNoAllocs pins the serving perf contract the batcher.go
// comments promise: once buffer shapes have stabilized, the steady-state
// batched forward — batch assembly, model forward, result scatter, and
// the per-request replies — performs zero heap allocations. Measured
// with a single tensor worker, like the kernel alloc tests: the
// multi-worker path allocates only goroutine bookkeeping inside
// ParallelWorkers.
func TestRunBatchNoAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(17)
	master := models.NewEDSR(models.EDSRTiny(), rng)

	// A worker wired by hand, without the goroutine loop, so the measured
	// function is exactly the per-batch work.
	b := &Batcher{cfg: BatcherConfig{MaxBatch: 4}.withDefaults(), met: NewMetrics(nil)}
	w := &worker{b: b, model: EDSRFactory(master)()}

	const n = 4
	scale := w.model.Scale()
	reqs := make([]*request, n)
	for i := range reqs {
		x := tensor.New(1, 3, 12, 12)
		x.FillUniform(rng, 0, 1)
		reqs[i] = &request{
			x:    x,
			out:  tensor.New(1, 3, 12*scale, 12*scale),
			errc: make(chan error, 1),
		}
	}
	step := func() {
		w.runBatch(reqs)
		for _, r := range reqs {
			if err := <-r.errc; err != nil {
				t.Fatalf("runBatch reply: %v", err)
			}
		}
	}
	step() // warmup: grows the batch input and all layer buffers

	if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
		t.Fatalf("steady-state batched forward allocated %.0f objects per batch, want 0", allocs)
	}
}

// TestSubmitSteadyStateAllocs bounds the full Submit round trip: the
// request itself is pooled, so a warm path costs only the fixed channel
// and scheduling bookkeeping, not per-request tensor churn. The bound is
// loose (goroutine wakeups inside AllocsPerRun are noisy) but catches a
// regression to per-request buffer allocation, which would add
// hundreds of objects for images this size.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(18)
	master := models.NewEDSR(models.EDSRTiny(), rng)
	b := NewBatcher(EDSRFactory(master), BatcherConfig{
		MaxBatch: 1, MaxDelay: time.Microsecond, Queue: 4, Workers: 1,
	}, nil)
	defer b.Shutdown()

	x := tensor.New(1, 3, 16, 16)
	x.FillUniform(rng, 0, 1)
	out := tensor.New(1, 3, 32, 32)
	for i := 0; i < 3; i++ { // warmup
		if err := b.Submit(x, out); err != nil {
			t.Fatalf("warmup Submit: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := b.Submit(x, out); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	if allocs > 10 {
		t.Fatalf("steady-state Submit allocated %.0f objects per request, want <= 10", allocs)
	}
}
