package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/tensor"
	rtrace "repro/internal/trace/request"
)

// Submission errors. The HTTP layer maps ErrOverloaded to 429 and
// ErrDraining to 503; both are returned synchronously from Submit, so a
// rejected request is never half-enqueued.
var (
	ErrOverloaded = errors.New("serve: queue full")
	ErrDraining   = errors.New("serve: draining, not accepting requests")
	errShape      = errors.New("serve: result buffer shape mismatch")
)

// BatcherConfig sizes the dynamic micro-batching queue.
type BatcherConfig struct {
	// MaxBatch is the largest coalesced batch (default 8).
	MaxBatch int
	// MaxDelay is how long a worker holds an open batch waiting for
	// same-shaped followers — the Horovod cycle time of the serving path
	// (default 2ms). Zero disables waiting: batches only form from
	// requests already queued.
	MaxDelay time.Duration
	// Queue bounds the pending-request queue; a full queue rejects with
	// ErrOverloaded (default 64).
	Queue int
	// Workers is the number of model replicas running batches
	// concurrently (default 1).
	Workers int
}

// withDefaults fills unset fields.
func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	if c.MaxDelay == 0 && c.MaxBatch > 1 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Queue < 1 {
		c.Queue = 64
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// request is one queued unit of work: a single LR image (or tile) and
// the caller-provided output buffer its SR result is copied into.
// Requests are pooled; errc is buffered so a worker's reply never
// blocks.
type request struct {
	x, out *tensor.Tensor
	// act is the submitting request's trace collector (nil when
	// untraced); tEnq/tPulled are request-clock stamps bounding the
	// queue wait (sr_queue_seconds, and the queue-wait span) and the
	// batch-wait span runBatch emits into act.
	act           *rtrace.Active
	tEnq, tPulled int64
	errc          chan error
}

// Batcher coalesces concurrent single-image requests into batched
// forwards. The first request pulled by a worker opens a batch; the
// worker then waits up to MaxDelay for more same-shaped requests (shapes
// must match to share one NCHW batch tensor) before running the model
// once over all of them. Each worker owns a private model replica, so
// batches run concurrently without sharing layer buffers.
type Batcher struct {
	cfg   BatcherConfig
	queue chan *request
	pool  sync.Pool

	mu       sync.RWMutex // guards draining vs. queue sends
	draining bool
	wg       sync.WaitGroup

	scale, halo, colors int

	met *Metrics
}

// NewBatcher starts cfg.Workers workers, each with its own replica from
// f. met may be nil (metrics off).
func NewBatcher(f Factory, cfg BatcherConfig, met *Metrics) *Batcher {
	cfg = cfg.withDefaults()
	if met == nil {
		met = NewMetrics(nil)
	}
	b := &Batcher{
		cfg:   cfg,
		queue: make(chan *request, cfg.Queue),
		pool:  sync.Pool{New: func() any { return &request{errc: make(chan error, 1)} }},
		met:   met,
	}
	for i := 0; i < cfg.Workers; i++ {
		m := f()
		if i == 0 {
			b.scale, b.halo, b.colors = m.Scale(), m.Halo(), m.Colors()
		}
		w := &worker{
			b:     b,
			model: m,
			batch: make([]*request, 0, cfg.MaxBatch),
			timer: time.NewTimer(time.Hour),
		}
		if !w.timer.Stop() {
			<-w.timer.C
		}
		b.wg.Add(1)
		go w.run()
	}
	return b
}

// Scale returns the served model's upscale factor.
func (b *Batcher) Scale() int { return b.scale }

// Halo returns the served model's tiling halo in LR pixels.
func (b *Batcher) Halo() int { return b.halo }

// Colors returns the served model's input channel count.
func (b *Batcher) Colors() int { return b.colors }

// Submit enqueues one image (1, C, h, w) and blocks until a worker has
// written its SR result into out (1, C, h*scale, w*scale), which the
// caller allocates. Every call gets exactly one outcome: nil once out is
// filled, ErrOverloaded if the queue was full, ErrDraining after
// Shutdown began, or a shape error. x and out must not be touched until
// Submit returns.
func (b *Batcher) Submit(x, out *tensor.Tensor) error {
	return b.SubmitCtx(context.Background(), x, out)
}

// SubmitCtx is Submit carrying the request context: when ctx holds a
// request-trace collector, the worker records this submission's
// queue-wait, batch-wait, and forward spans into it. ctx does not
// cancel the submission — batched work is never abandoned part-way.
func (b *Batcher) SubmitCtx(ctx context.Context, x, out *tensor.Tensor) error {
	if x.Rank() != 4 || x.Dim(0) != 1 || x.Dim(1) != b.colors {
		return fmt.Errorf("serve: want a single (1,%d,h,w) image, got %v", b.colors, x.Shape())
	}
	req := b.pool.Get().(*request)
	req.x, req.out = x, out
	req.act = rtrace.FromContext(ctx)
	req.tEnq = rtrace.Now()

	b.mu.RLock()
	if b.draining {
		b.mu.RUnlock()
		b.release(req)
		return ErrDraining
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.release(req)
		return ErrOverloaded
	}
	b.met.Submits.Inc()
	b.met.QueueDepth.Set(float64(len(b.queue)))

	err := <-req.errc
	b.release(req)
	return err
}

// release returns a request to the pool with its payload cleared.
func (b *Batcher) release(req *request) {
	req.x, req.out, req.act = nil, nil, nil
	b.pool.Put(req)
}

// QueueLen reports the current queue depth (for tests and backpressure
// introspection).
func (b *Batcher) QueueLen() int { return len(b.queue) }

// Shutdown drains the batcher: new Submits fail with ErrDraining,
// already-queued requests are completed, and the call returns once every
// worker has exited. Idempotent.
func (b *Batcher) Shutdown() {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.draining = true
	close(b.queue)
	b.mu.Unlock()
	b.wg.Wait()
}

// worker pulls requests, coalesces them into batches, and runs its model
// replica. The steady-state batch path (runBatch) is allocation-free
// once buffer shapes have stabilized — enforced by
// TestRunBatchNoAllocs.
type worker struct {
	b     *Batcher
	model Model
	in    *tensor.Tensor // reused NCHW batch input
	batch []*request     // reused batch slice, cap MaxBatch
	timer *time.Timer
}

// run is the worker loop. A request of a different shape than the open
// batch closes the batch and seeds the next one (pending), so
// mixed-shape traffic degrades to smaller batches instead of failing.
func (w *worker) run() {
	defer w.b.wg.Done()
	var pending *request
	for {
		first := pending
		pending = nil
		if first == nil {
			r, ok := <-w.b.queue
			if !ok {
				return
			}
			r.pulled()
			first = r
		}
		pending = w.collect(first)
		w.runBatch(w.batch)
	}
}

// collect fills w.batch starting from first and returns the follower
// that must seed the next batch (nil normally). It runs in two phases:
// a non-blocking drain that absorbs everything already queued, then —
// only if the batch still has room — a single MaxDelay timer wait for
// followers. A batch that reaches MaxBatch during the drain never arms
// the timer at all, so full batches close in queue-pull time rather
// than timer-resolution time (pinned by TestBatchFullClosesBeforeDelay);
// the timer fires at most once per batch, bounding a lone request's
// extra latency by MaxDelay exactly.
func (w *worker) collect(first *request) *request {
	w.batch = append(w.batch[:0], first)
	max := w.b.cfg.MaxBatch
	if max <= 1 {
		w.b.met.BatchCloseFull.Inc()
		return nil
	}
	for len(w.batch) < max {
		select {
		case r, ok := <-w.b.queue:
			if !ok {
				w.b.met.BatchCloseDrain.Inc()
				return nil
			}
			r.pulled()
			if !r.x.SameShape(first.x) {
				w.b.met.BatchCloseShape.Inc()
				return r
			}
			w.batch = append(w.batch, r)
		default:
			// Queue empty right now: hold the batch open for followers.
			w.timer.Reset(w.b.cfg.MaxDelay)
			for len(w.batch) < max {
				select {
				case r, ok := <-w.b.queue:
					if !ok {
						w.stopTimer()
						w.b.met.BatchCloseDrain.Inc()
						return nil
					}
					r.pulled()
					if !r.x.SameShape(first.x) {
						w.stopTimer()
						w.b.met.BatchCloseShape.Inc()
						return r
					}
					w.batch = append(w.batch, r)
				case <-w.timer.C:
					w.b.met.BatchCloseTimeout.Inc()
					return nil
				}
			}
			w.stopTimer()
			w.b.met.BatchCloseFull.Inc()
			return nil
		}
	}
	w.b.met.BatchCloseFull.Inc()
	return nil
}

// pulled stamps the moment a worker took the request off the queue,
// ending its queue wait (and starting batch-wait).
func (r *request) pulled() { r.tPulled = rtrace.Now() }

// stopTimer cancels the hold timer, draining its channel if it fired
// between the last receive and the stop.
func (w *worker) stopTimer() {
	if !w.timer.Stop() {
		<-w.timer.C
	}
}

// runBatch assembles the NCHW batch, runs one forward, and scatters the
// per-sample results into each request's output buffer. Samples are
// processed independently by the batch-parallel kernels, so a sample's
// result is bit-identical no matter which batch it rode in (pinned by
// TestBatchedForwardBitIdentical).
func (w *worker) runBatch(reqs []*request) {
	n := len(reqs)
	first := reqs[0].x
	c, h, wd := first.Dim(1), first.Dim(2), first.Dim(3)
	plane := c * h * wd
	w.in = tensor.Ensure(w.in, n, c, h, wd)
	id := w.in.Data()
	for i, r := range reqs {
		copy(id[i*plane:(i+1)*plane], r.x.Data())
		w.b.met.QueueSeconds.Observe(float64(r.tPulled-r.tEnq) / 1e9)
	}
	fwdStart := rtrace.Now()
	y := w.model.Forward(w.in)
	fwdEnd := rtrace.Now()
	outPlane := y.Len() / n
	yd := y.Data()
	for i, r := range reqs {
		if a := r.act; a != nil {
			// The request's life through the batcher, in its own trace:
			// queued → held in an open batch → the coalesced forward.
			root := a.Root()
			a.Emit(rtrace.StageServeQueue, rtrace.NewSpanID(), root, r.tEnq, r.tPulled, r.x.Bytes(), 0, -1, 0)
			a.Emit(rtrace.StageServeBatchWait, rtrace.NewSpanID(), root, r.tPulled, fwdStart, 0, 0, -1, 0)
			a.Emit(rtrace.StageServeForward, rtrace.NewSpanID(), root, fwdStart, fwdEnd, r.x.Bytes(), 0, -1, int32(n))
		}
		if r.out == nil || r.out.Len() != outPlane {
			r.errc <- errShape
			continue
		}
		copy(r.out.Data(), yd[i*outPlane:(i+1)*outPlane])
		r.errc <- nil
	}
	w.b.met.Batches.Inc()
	w.b.met.BatchSize.Observe(float64(n))
	w.b.met.QueueDepth.Set(float64(len(w.b.queue)))
}
