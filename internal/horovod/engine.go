package horovod

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// Config mirrors the Horovod tunables the paper sweeps.
type Config struct {
	// FusionThresholdBytes is HOROVOD_FUSION_THRESHOLD (default 64 MB).
	FusionThresholdBytes int64
	// CycleTime is HOROVOD_CYCLE_TIME (default 3.5 ms): how long the
	// engine accumulates ready tensors before negotiating a fusion round.
	CycleTime time.Duration
	// Average divides reduced gradients by the world size (the standard
	// data-parallel gradient average).
	Average bool
	// Algo selects the allreduce algorithm of the backend.
	Algo mpi.AllreduceAlgo
	// AllreduceFn, when non-nil, replaces the backend sum-allreduce —
	// gradient-compression variants, benchmarks, and instrumented test
	// doubles plug in here. Algo is ignored when set. A returned error
	// aborts the engine: waiters are released and the failure surfaces
	// via Err (and the Drain panic path), exactly like a peer death.
	AllreduceFn func(c *mpi.Comm, buf []float32) error
	// Trace, when non-nil, records engine spans (fusion-group
	// reductions on the engine track, drain windows and per-parameter
	// grad-hook instants on the trainer track). For the engine's own
	// collectives to land on the engine track, pass NewEngine a forked
	// Comm whose Tracer is bound to trace.TrackEngine.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives live counters (bytes reduced,
	// allreduce message sizes).
	Metrics *trace.TrainMetrics
}

// DefaultConfig returns Horovod's defaults (64 MB fusion buffer, 3.5 ms
// cycle, averaging, ring allreduce).
func DefaultConfig() Config {
	return Config{
		FusionThresholdBytes: 64 << 20,
		CycleTime:            3500 * time.Microsecond,
		Average:              true,
		Algo:                 mpi.AlgoRing,
	}
}

// Engine is one rank's background communication engine. All ranks must
// register the same tensors in the same order (Horovod keys tensors by
// name; registration order stands in for its response ordering).
type Engine struct {
	comm *mpi.Comm
	cfg  Config

	names []string
	bufs  [][]float32
	sizes []int64
	ids   map[string]int

	mu       sync.Mutex
	ready    []bool
	waiters  []chan struct{}
	shutdown bool
	failErr  error

	fusion   []float32
	readyIDs []int // loop-local ready set, reused across cycles
	loopDone chan struct{}
	started  bool
}

// NewEngine creates an engine bound to one rank's communicator.
func NewEngine(comm *mpi.Comm, cfg Config) *Engine {
	if cfg.FusionThresholdBytes == 0 {
		cfg.FusionThresholdBytes = 64 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = trace.NewTrainMetrics(nil)
	}
	return &Engine{
		comm:     comm,
		cfg:      cfg,
		ids:      map[string]int{},
		loopDone: make(chan struct{}),
	}
}

// Register adds a named gradient buffer and returns its id. All ranks
// must register identically before Start.
func (e *Engine) Register(name string, buf []float32) int {
	if e.started {
		panic("horovod: Register after Start")
	}
	if _, dup := e.ids[name]; dup {
		panic(fmt.Sprintf("horovod: duplicate tensor %q", name))
	}
	id := len(e.names)
	e.ids[name] = id
	e.names = append(e.names, name)
	e.bufs = append(e.bufs, buf)
	e.sizes = append(e.sizes, int64(len(buf))*4)
	e.ready = append(e.ready, false)
	e.waiters = append(e.waiters, nil)
	return id
}

// Start launches the background negotiation loop. Every rank must call
// Start, and afterwards every rank must eventually call Shutdown.
func (e *Engine) Start() {
	if e.started {
		panic("horovod: Start called twice")
	}
	e.started = true
	go e.loop()
}

// Submit marks a tensor's gradient ready for reduction and returns a
// channel closed when the reduced (averaged) values are back in the
// registered buffer. On a failed engine the channel is already closed —
// the caller unblocks immediately and discovers the failure via Err.
func (e *Engine) Submit(id int) <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failErr != nil {
		done := make(chan struct{})
		close(done)
		return done
	}
	if e.ready[id] {
		panic(fmt.Sprintf("horovod: tensor %q submitted twice before completion", e.names[id]))
	}
	done := make(chan struct{})
	e.ready[id] = true
	e.waiters[id] = done
	return done
}

// SubmitByName is Submit keyed by tensor name.
func (e *Engine) SubmitByName(name string) <-chan struct{} {
	id, ok := e.ids[name]
	if !ok {
		panic(fmt.Sprintf("horovod: unknown tensor %q", name))
	}
	return e.Submit(id)
}

// Shutdown negotiates a clean stop: the loop exits once every rank has
// requested shutdown and no tensors remain pending. Blocks until the
// background loop ends. On a failed engine (a peer died mid-run) the
// loop has already aborted and Shutdown returns immediately.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	e.shutdown = true
	e.mu.Unlock()
	<-e.loopDone
}

// Err returns the failure that aborted the engine, or nil while it is
// healthy. The error is a *mpi.RankError when a peer rank died.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failErr
}

// fail records the first failure, releases every waiter (so a Drain
// blocked on an in-flight reduction unblocks and can observe Err), and
// makes future Submits complete immediately.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	if e.failErr == nil {
		e.failErr = err
		for i, w := range e.waiters {
			if w != nil {
				close(w)
				e.waiters[i] = nil
			}
			e.ready[i] = false
		}
	}
	e.mu.Unlock()
}

// loop is the Horovod background thread: each cycle it collects locally
// ready tensors, negotiates the globally ready set with a min-allreduce
// over readiness masks (Horovod's coordinator performs the equivalent
// gather), fuses them within the threshold, and executes the reductions.
func (e *Engine) loop() {
	defer close(e.loopDone)
	// The loop runs collectives on its own goroutine, outside World.Run's
	// per-rank recovery — a dead peer surfacing as a *mpi.RankError panic
	// inside NegotiateMin or an allreduce would crash the process. Recover
	// it here and convert it into an engine failure instead: waiters are
	// released and the training loop observes Err at its next Drain.
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				e.fail(fmt.Errorf("horovod: engine aborted: %w", err))
			} else {
				e.fail(fmt.Errorf("horovod: engine panicked: %v", r))
			}
		}
	}()
	n := len(e.names)
	mask := make([]float32, n+1) // last slot carries the shutdown vote
	e.readyIDs = make([]int, 0, n)
	for {
		if e.cfg.CycleTime > 0 {
			time.Sleep(e.cfg.CycleTime)
		}
		// A crashed peer never negotiates again: without this check the
		// cycle would keep min-ing all-zero masks forever (the classic
		// Horovod stall) instead of surfacing the failure.
		if err := e.comm.PeerFailure(); err != nil {
			e.fail(fmt.Errorf("horovod: engine aborted: %w", err))
			return
		}
		e.mu.Lock()
		for i := 0; i < n; i++ {
			if e.ready[i] {
				mask[i] = 1
			} else {
				mask[i] = 0
			}
		}
		if e.shutdown {
			mask[n] = 1
		} else {
			mask[n] = 0
		}
		e.mu.Unlock()

		e.comm.NegotiateMin(mask)

		ready := e.readyIDs[:0]
		for i := 0; i < n; i++ {
			if mask[i] == 1 {
				ready = append(ready, i)
			}
		}
		e.readyIDs = ready
		for _, group := range PlanFusion(e.sizes, ready, e.cfg.FusionThresholdBytes) {
			if err := e.reduceGroup(group); err != nil {
				e.fail(fmt.Errorf("horovod: allreduce failed: %w", err))
				return
			}
		}

		// Exit is decided purely from negotiated state, so every rank
		// leaves on the same round. A rank only votes shutdown after all
		// its submissions completed, so a unanimous vote implies no rank
		// has pending tensors.
		if mask[n] == 1 && len(ready) == 0 {
			return
		}
	}
}

// reduceGroup copies the group into the fusion buffer, allreduces it as a
// single message, averages, scatters results back, and wakes waiters. An
// AllreduceFn error is returned without waking the group's waiters — the
// caller aborts the engine and fail releases them with Err set.
func (e *Engine) reduceGroup(group []int) error {
	total := 0
	for _, id := range group {
		total += len(e.bufs[id])
	}
	spanStart := e.cfg.Trace.Now()
	e.cfg.Metrics.BytesReduced.Add(int64(total) * 4)
	e.cfg.Metrics.AllreduceBytes.Observe(float64(total) * 4)
	var buf []float32
	if len(group) == 1 {
		// Unfused path: reduce the tensor's own buffer directly (no copy),
		// exactly what Horovod does for tensors above the threshold.
		buf = e.bufs[group[0]]
	} else {
		if cap(e.fusion) < total {
			e.fusion = make([]float32, total)
		}
		buf = e.fusion[:total]
		off := 0
		for _, id := range group {
			copy(buf[off:], e.bufs[id])
			off += len(e.bufs[id])
		}
	}

	if e.cfg.AllreduceFn != nil {
		if err := e.cfg.AllreduceFn(e.comm, buf); err != nil {
			return err
		}
	} else {
		e.comm.AllreduceSum(buf, e.cfg.Algo)
	}

	if e.cfg.Average {
		inv := 1 / float32(e.comm.Size())
		for i := range buf {
			buf[i] *= inv
		}
	}
	if len(group) > 1 {
		off := 0
		for _, id := range group {
			copy(e.bufs[id], buf[off:off+len(e.bufs[id])])
			off += len(e.bufs[id])
		}
	}

	e.mu.Lock()
	for _, id := range group {
		e.ready[id] = false
		if w := e.waiters[id]; w != nil {
			close(w)
			e.waiters[id] = nil
		}
	}
	e.mu.Unlock()
	e.cfg.Trace.Emit(trace.CatFusedReduce, trace.TrackEngine, spanStart, int64(total)*4)
	return nil
}
