package horovod

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/trace"
)

// BroadcastParameters sends root's parameter values to all ranks — step 2
// of the paper's Horovod integration guide (Section III-A): every replica
// must start from identical weights.
func BroadcastParameters(comm *mpi.Comm, params []*nn.Param, root int) {
	for _, p := range params {
		comm.Bcast(p.Value.Data(), root)
	}
}

// ScaleLR applies the linear learning-rate scaling rule from the paper's
// integration guide (step 4): multiply the single-process learning rate by
// the world size to counteract the effectively larger global batch.
func ScaleLR(opt nn.Optimizer, worldSize int) {
	opt.SetLR(opt.LR() * float64(worldSize))
}

// DistributedOptimizer wraps an optimizer so gradients are reduced
// through the engine (step 3 of the integration guide). Two modes:
//
//   - Overlapped: install GradHook() on the model (nn.GradNotifier).
//     Each parameter is submitted to the engine the moment its backward
//     contribution completes, so reduction of late-layer gradients
//     overlaps the remaining backward computation; Step() only drains the
//     outstanding completions.
//   - Serial (no hook): Step() submits everything in reverse registration
//     order — the order a backward pass produces gradients — then waits.
//
// Both modes reduce identical values; with fusion disabled the results
// are bitwise identical (see TestOverlappedMatchesSerial).
type DistributedOptimizer struct {
	inner  nn.Optimizer
	engine *Engine
	ids    []int
	slotOf map[*nn.Param]int
	// pending[i] is the completion channel of ids[i]'s in-flight
	// reduction, nil when not submitted; reused across steps.
	pending []<-chan struct{}
	hook    nn.GradHook
	// drained records that Drain already reduced this step's gradients,
	// so the Step that follows must not submit them again.
	drained bool

	// drainTotal/drains accumulate the exposed communication window so
	// trainer.Stats can report per-step drain milliseconds.
	drainTotal time.Duration
	drains     int
}

// NewDistributedOptimizer registers every parameter's gradient with the
// engine and returns the wrapper. Must be called before engine.Start, and
// identically on every rank.
func NewDistributedOptimizer(inner nn.Optimizer, engine *Engine) *DistributedOptimizer {
	d := &DistributedOptimizer{inner: inner, engine: engine}
	params := inner.Params()
	d.slotOf = make(map[*nn.Param]int, len(params))
	d.pending = make([]<-chan struct{}, len(params))
	for i, p := range params {
		d.ids = append(d.ids, engine.Register(p.Name, p.Grad.Data()))
		d.slotOf[p] = i
	}
	d.hook = func(p *nn.Param) {
		slot, ok := d.slotOf[p]
		if !ok {
			panic(fmt.Sprintf("horovod: grad hook fired for unregistered parameter %q", p.Name))
		}
		if d.pending[slot] != nil {
			panic(fmt.Sprintf("horovod: parameter %q announced twice in one step", p.Name))
		}
		d.pending[slot] = d.engine.Submit(d.ids[slot])
		// Mark the submission instant on the timeline: the gap between a
		// grad-hook marker and the matching engine reduction is the
		// negotiation latency the overlap design must hide.
		engine.cfg.Trace.EmitInstant(trace.CatGradHook, trace.TrackMain, engine.sizes[d.ids[slot]])
	}
	return d
}

// GradHook returns the hook that submits a parameter for reduction as its
// gradient becomes final. Install it on the model with SetGradHook before
// training; it must fire on the goroutine that calls Step.
func (d *DistributedOptimizer) GradHook() nn.GradHook { return d.hook }

// Drain submits any gradients the hook has not already announced
// (reverse registration order, as a backward pass would produce them)
// and blocks until every outstanding reduction completes. Step calls it
// before the wrapped update unless the caller already has: callers that
// want to schedule or measure the exposed communication window may call
// it directly, once per step.
//
// If the engine failed (a peer rank died), its waiters are closed
// without results; Drain then panics with the engine's error — a
// *mpi.RankError — which World.Run recovers into this rank's per-rank
// error, so a dead peer aborts the step instead of hanging it or
// silently applying garbage gradients.
func (d *DistributedOptimizer) Drain() {
	start := time.Now()
	spanStart := d.engine.cfg.Trace.Now()
	for i := len(d.ids) - 1; i >= 0; i-- {
		if d.pending[i] == nil {
			d.pending[i] = d.engine.Submit(d.ids[i])
		}
	}
	for i, w := range d.pending {
		<-w
		d.pending[i] = nil
	}
	d.drained = true
	dur := time.Since(start)
	d.drainTotal += dur
	d.drains++
	d.engine.cfg.Trace.Emit(trace.CatDrain, trace.TrackMain, spanStart, 0)
	d.engine.cfg.Metrics.DrainSeconds.Observe(dur.Seconds())
	if err := d.engine.Err(); err != nil {
		panic(err)
	}
}

// DrainStats returns the accumulated exposed-communication wait across
// all Drain calls and how many drains ran. The mean per-step drain is
// the step's non-overlapped allreduce cost — the quantity
// trainer.Stats surfaces as DrainMsPerStep.
func (d *DistributedOptimizer) DrainStats() (total time.Duration, n int) {
	return d.drainTotal, d.drains
}

// Step drains all gradient reductions, unless an explicit Drain already
// did for this step, then applies the wrapped optimizer's update. On a
// failed engine Drain panics before the update is applied (see Drain).
func (d *DistributedOptimizer) Step() {
	if !d.drained {
		d.Drain()
	}
	d.drained = false
	d.inner.Step()
}

// ZeroGrad clears gradients on the wrapped optimizer.
func (d *DistributedOptimizer) ZeroGrad() { d.inner.ZeroGrad() }

// LR returns the wrapped optimizer's learning rate.
func (d *DistributedOptimizer) LR() float64 { return d.inner.LR() }

// SetLR sets the wrapped optimizer's learning rate.
func (d *DistributedOptimizer) SetLR(lr float64) { d.inner.SetLR(lr) }

// Params returns the wrapped optimizer's parameters.
func (d *DistributedOptimizer) Params() []*nn.Param { return d.inner.Params() }
