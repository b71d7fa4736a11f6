package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// batchLog records every batch size any replica ran, across workers.
type batchLog struct {
	mu    sync.Mutex
	sizes []int
}

func (l *batchLog) add(n int) {
	l.mu.Lock()
	l.sizes = append(l.sizes, n)
	l.mu.Unlock()
}

func (l *batchLog) seen() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.sizes...)
}

// fakeModel is a deterministic test model: nearest-neighbor upscale of
// 2x+1, with an optional artificial forward delay. Like the real
// models it reuses its output buffer, so each worker needs its own
// replica — fakeFactory mirrors the production Factory contract.
type fakeModel struct {
	scale int
	delay time.Duration
	log   *batchLog
	out   *tensor.Tensor
}

// fakeFactory builds an independent replica per worker sharing one log.
func fakeFactory(scale int, delay time.Duration, log *batchLog) Factory {
	return func() Model { return &fakeModel{scale: scale, delay: delay, log: log} }
}

func (f *fakeModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.log.add(x.Dim(0))
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	s := f.scale
	f.out = tensor.Ensure(f.out, n, c, h*s, w*s)
	xd, od := x.Data(), f.out.Data()
	for i := 0; i < n*c; i++ {
		src := xd[i*h*w : (i+1)*h*w]
		dst := od[i*h*s*w*s : (i+1)*h*s*w*s]
		for y := 0; y < h*s; y++ {
			for xx := 0; xx < w*s; xx++ {
				dst[y*w*s+xx] = 2*src[(y/s)*w+xx/s] + 1
			}
		}
	}
	return f.out
}

func (f *fakeModel) Scale() int  { return f.scale }
func (f *fakeModel) Halo() int   { return 0 }
func (f *fakeModel) Colors() int { return 3 }

// checkFakeOutput verifies a fakeModel result for input x.
func checkFakeOutput(t *testing.T, x, out *tensor.Tensor, scale int) {
	t.Helper()
	h, w := x.Dim(2), x.Dim(3)
	if out.Dim(2) != h*scale || out.Dim(3) != w*scale {
		t.Fatalf("output shape %v for input %v", out.Shape(), x.Shape())
	}
	xd, od := x.Data(), out.Data()
	for i := range xd {
		// Spot-check the top-left corner of each pixel's s×s block.
		y, xx := (i/w)%h, i%w
		c := i / (h * w)
		got := od[c*h*scale*w*scale+(y*scale)*w*scale+xx*scale]
		if got != 2*xd[i]+1 {
			t.Fatalf("element %d: got %g, want %g", i, got, 2*xd[i]+1)
		}
	}
}

// TestBatcherHammerDrainShutdown is the exactly-once contract under
// load: many goroutines hammer the batcher while it shuts down mid-
// flight. Every Submit must return exactly one outcome — a correct
// result, ErrOverloaded, or ErrDraining — and nothing may hang or be
// silently dropped. Run under -race by scripts/check.sh.
func TestBatcherHammerDrainShutdown(t *testing.T) {
	b := NewBatcher(fakeFactory(2, 200*time.Microsecond, &batchLog{}), BatcherConfig{
		MaxBatch: 4, MaxDelay: 300 * time.Microsecond, Queue: 8, Workers: 2,
	}, nil)

	const N = 200
	var ok, overloaded, draining, other atomic.Int64
	var wg sync.WaitGroup
	rngMu := sync.Mutex{}
	rng := tensor.NewRNG(99)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rngMu.Lock()
			h := 2 + rng.Intn(3)
			x := tensor.New(1, 3, h, h)
			x.FillUniform(rng, 0, 1)
			rngMu.Unlock()
			out := tensor.New(1, 3, 2*h, 2*h)
			switch err := b.Submit(x, out); {
			case err == nil:
				checkFakeOutput(t, x, out, 2)
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			case errors.Is(err, ErrDraining):
				draining.Add(1)
			default:
				other.Add(1)
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
		if i == N/2 {
			// Shut down mid-hammer, concurrently with active Submits.
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.Shutdown()
			}()
		}
	}
	wg.Wait()
	b.Shutdown() // idempotent
	total := ok.Load() + overloaded.Load() + draining.Load() + other.Load()
	if total != N {
		t.Fatalf("accounted for %d of %d requests (ok %d, 429 %d, drain %d, other %d)",
			total, N, ok.Load(), overloaded.Load(), draining.Load(), other.Load())
	}
	if other.Load() != 0 {
		t.Fatalf("%d requests got unexpected errors", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded before shutdown")
	}
	t.Logf("ok %d, overloaded %d, draining %d", ok.Load(), overloaded.Load(), draining.Load())
}

// TestBatcherCoalesces checks that concurrent same-shaped requests
// actually share batches instead of running one by one.
func TestBatcherCoalesces(t *testing.T) {
	log := &batchLog{}
	b := NewBatcher(fakeFactory(2, 2*time.Millisecond, log), BatcherConfig{
		MaxBatch: 8, MaxDelay: 50 * time.Millisecond, Queue: 32, Workers: 1,
	}, nil)
	defer b.Shutdown()

	const N = 16
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := tensor.New(1, 3, 4, 4)
			x.Fill(0.25)
			out := tensor.New(1, 3, 8, 8)
			if err := b.Submit(x, out); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	sizes := log.seen()
	total, maxB := 0, 0
	for _, s := range sizes {
		total += s
		maxB = max(maxB, s)
	}
	if total != N {
		t.Fatalf("forwards covered %d images, want %d (batches %v)", total, N, sizes)
	}
	if maxB < 2 {
		t.Fatalf("no coalescing happened: batch sizes %v", sizes)
	}
	t.Logf("batch sizes: %v", sizes)
}

// TestBatcherBackpressure checks the bounded queue rejects instead of
// queueing without limit, and that rejected submissions leave the
// batcher consistent.
func TestBatcherBackpressure(t *testing.T) {
	b := NewBatcher(fakeFactory(2, 20*time.Millisecond, &batchLog{}), BatcherConfig{
		MaxBatch: 1, Queue: 1, Workers: 1,
	}, nil)
	defer b.Shutdown()

	const N = 12
	var wg sync.WaitGroup
	var ok, rejected atomic.Int64
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := tensor.New(1, 3, 4, 4)
			out := tensor.New(1, 3, 8, 8)
			switch err := b.Submit(x, out); {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load()+rejected.Load() != N {
		t.Fatalf("ok %d + rejected %d != %d", ok.Load(), rejected.Load(), N)
	}
	if rejected.Load() == 0 {
		t.Fatalf("a 1-deep queue under %d concurrent requests rejected nothing", N)
	}
	t.Logf("ok %d, rejected %d", ok.Load(), rejected.Load())
}

// TestBatcherMixedShapes checks that shape-grouped batching still
// serves interleaved traffic of different image sizes correctly.
func TestBatcherMixedShapes(t *testing.T) {
	b := NewBatcher(fakeFactory(2, time.Millisecond, &batchLog{}), BatcherConfig{
		MaxBatch: 4, MaxDelay: 5 * time.Millisecond, Queue: 64, Workers: 2,
	}, nil)
	defer b.Shutdown()

	shapes := [][2]int{{3, 3}, {5, 4}, {2, 7}}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, w := shapes[i%3][0], shapes[i%3][1]
			x := tensor.New(1, 3, h, w)
			x.Fill(float32(i) / 30)
			out := tensor.New(1, 3, 2*h, 2*w)
			if err := b.Submit(x, out); err != nil {
				t.Errorf("shape %dx%d: %v", h, w, err)
				return
			}
			checkFakeOutput(t, x, out, 2)
		}(i)
	}
	wg.Wait()
}

// TestBatchedForwardBitIdentical pins the numerics contract batching
// relies on: an EDSR forward of one sample is bit-identical whether it
// runs alone or coalesced into a batch with other images (the conv
// kernels process samples independently).
func TestBatchedForwardBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(5)
	master := models.NewEDSR(models.EDSRTiny(), rng)
	a := randImage(rng, 3, 10, 10)
	companion := randImage(rng, 3, 10, 10)

	// Reference: the sample forwarded alone.
	solo := master.Forward(a).Clone()

	// The same sample inside a batch of 3, via the batcher.
	b := NewBatcher(EDSRFactory(master), BatcherConfig{
		MaxBatch: 3, MaxDelay: time.Second, Queue: 8, Workers: 1,
	}, nil)
	defer b.Shutdown()
	outA := tensor.New(1, 3, 20, 20)
	var wg sync.WaitGroup
	wg.Add(3)
	errs := make([]error, 3)
	go func() { defer wg.Done(); errs[0] = b.Submit(a, outA) }()
	for i := 1; i < 3; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Submit(companion, tensor.New(1, 3, 20, 20))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if d := maxAbsDiff(solo, outA); d != 0 {
		t.Fatalf("batched forward differs from solo forward by %g, want bit-identical", d)
	}
}

// TestBatchFullClosesBeforeDelay pins the batch-close fix: a batch that
// reaches MaxBatch from already-queued requests must close and run
// immediately, not sit out the MaxDelay hold. With a 2s MaxDelay any
// regression back to timer-bound closing blows the deadline by orders
// of magnitude.
func TestBatchFullClosesBeforeDelay(t *testing.T) {
	log := &batchLog{}
	met := NewMetrics(trace.NewMetrics())
	b := NewBatcher(fakeFactory(2, 0, log), BatcherConfig{
		MaxBatch: 4, MaxDelay: 2 * time.Second, Queue: 32, Workers: 1,
	}, met)
	defer b.Shutdown()

	const N = 8 // two full batches
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := tensor.New(1, 3, 4, 4)
			out := tensor.New(1, 3, 8, 8)
			if err := b.Submit(x, out); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// All N must complete far below MaxDelay. 500ms is ~4x a slow-CI
	// scheduling hiccup and 1/4 of the 2s delay a regression would incur.
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("%d requests took %v with MaxDelay=2s: full batches are waiting on the timer", N, elapsed)
	}
	if got := met.BatchCloseFull.Value(); got == 0 {
		t.Fatalf("no batch closed on full (sizes %v, timeout closes %d)",
			log.seen(), met.BatchCloseTimeout.Value())
	}
	t.Logf("%d requests in %v, batches %v, closes full=%d timeout=%d",
		N, elapsed, log.seen(), met.BatchCloseFull.Value(), met.BatchCloseTimeout.Value())
}

// TestSoloRequestBoundedByMaxDelay pins the other side of the timing
// contract: a lone request under MaxBatch>1 waits at most ~MaxDelay for
// followers that never come, then runs. The timer must fire once per
// batch, not reset per poll.
func TestSoloRequestBoundedByMaxDelay(t *testing.T) {
	met := NewMetrics(trace.NewMetrics())
	const delay = 30 * time.Millisecond
	b := NewBatcher(fakeFactory(2, 0, &batchLog{}), BatcherConfig{
		MaxBatch: 8, MaxDelay: delay, Queue: 32, Workers: 1,
	}, met)
	defer b.Shutdown()

	x := tensor.New(1, 3, 4, 4)
	out := tensor.New(1, 3, 8, 8)
	start := time.Now()
	if err := b.Submit(x, out); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < delay {
		t.Fatalf("solo request returned in %v, before the %v hold expired", elapsed, delay)
	}
	if elapsed > delay+200*time.Millisecond {
		t.Fatalf("solo request took %v, want ~MaxDelay=%v plus scheduling slack", elapsed, delay)
	}
	if got := met.BatchCloseTimeout.Value(); got != 1 {
		t.Fatalf("timeout closes = %d, want 1", got)
	}
	t.Logf("solo request in %v (MaxDelay %v)", elapsed, delay)
}

// TestBatchCloseReasonCounters drives each close path and checks the
// sr_batch_close_* partition accounts for every batch.
func TestBatchCloseReasonCounters(t *testing.T) {
	met := NewMetrics(trace.NewMetrics())
	b := NewBatcher(fakeFactory(2, 0, &batchLog{}), BatcherConfig{
		MaxBatch: 2, MaxDelay: 5 * time.Millisecond, Queue: 32, Workers: 1,
	}, met)

	submit := func(h, w int) error {
		x := tensor.New(1, 3, h, w)
		out := tensor.New(1, 3, 2*h, 2*w)
		return b.Submit(x, out)
	}

	// Solo request → timeout close.
	if err := submit(4, 4); err != nil {
		t.Fatalf("solo: %v", err)
	}
	// Shape change mid-collect → shape close for the first batch.
	var wg sync.WaitGroup
	for _, hw := range [][2]int{{4, 4}, {6, 6}} {
		wg.Add(1)
		go func(h, w int) {
			defer wg.Done()
			if err := submit(h, w); err != nil {
				t.Errorf("%dx%d: %v", h, w, err)
			}
		}(hw[0], hw[1])
	}
	wg.Wait()
	b.Shutdown()

	full := met.BatchCloseFull.Value()
	timeout := met.BatchCloseTimeout.Value()
	shape := met.BatchCloseShape.Value()
	drain := met.BatchCloseDrain.Value()
	batches := met.Batches.Value()
	if full+timeout+shape+drain != batches {
		t.Fatalf("close reasons %d+%d+%d+%d don't partition %d batches",
			full, timeout, shape, drain, batches)
	}
	if timeout == 0 {
		t.Fatalf("solo request produced no timeout close")
	}
	t.Logf("batches %d: full=%d timeout=%d shape=%d drain=%d", batches, full, timeout, shape, drain)
}

// TestQueueSecondsObserved pins sr_queue_seconds to the request clock:
// six concurrent submissions behind a 20 ms forward, one per batch, so
// all but the first wait in the queue for tens of milliseconds — with
// no span recorder and no request trace anywhere.
func TestQueueSecondsObserved(t *testing.T) {
	met := NewMetrics(trace.NewMetrics())
	b := NewBatcher(fakeFactory(2, 20*time.Millisecond, &batchLog{}), BatcherConfig{
		MaxBatch: 1, Queue: 8, Workers: 1,
	}, met)
	defer b.Shutdown()

	const N = 6
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Submit(tensor.New(1, 3, 4, 4), tensor.New(1, 3, 8, 8)); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := met.QueueSeconds.Count(); n != N {
		t.Fatalf("sr_queue_seconds observations %d, want %d", n, N)
	}
	// The last of six waits behind at least four 20 ms forwards.
	if sum := met.QueueSeconds.Sum(); sum < 0.08 {
		t.Fatalf("sr_queue_seconds sum %.4fs over %d queued requests, want > 0.08s", sum, N)
	}
}
