package trainer

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/horovod"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Session is one rank's training run and the only training loop in the
// package: TrainSingle, TrainDistributed, every TrainElastic attempt and
// TrainZoo are drivers that build one and call RunSteps. It owns the full
// mutable state — model parameters, Adam moments, the data-sampling
// stream and the step counter — and round-trips all of it through Save,
// so a resumed run is bit-identical to one that never stopped.
//
// A single-process Session comes from NewSession or ResumeSession. With a
// communicator the same type is one data-parallel replica, built by the
// paper's Section III-A recipe: shard the data, wrap the optimizer, scale
// the learning rate, broadcast the initial parameters.
type Session struct {
	Cfg    Config
	Model  SRModel
	Opt    *nn.Adam
	Loader *data.Loader
	// Step counts global steps completed, including those before a resume.
	Step int

	pre         func(*tensor.Tensor) *tensor.Tensor
	rank, world int
	comm        *mpi.Comm // nil for a single process
	engine      *horovod.Engine
	dist        *horovod.DistributedOptimizer

	gradBuf *tensor.Tensor
	meter   metrics.ThroughputMeter
	// Totals over the steps this Session ran, updated in place every step
	// so a driver still reads them after a mid-step panic.
	ran         int
	lossSum     float64
	lastLoss    float64
	wall        time.Duration
	warmMallocs uint64
}

// NewSession builds a fresh single-process EDSR training session.
func NewSession(cfg Config) (*Session, error) {
	return newSession(cfg, newEDSR(cfg), identity, nil, 0, nil)
}

// ResumeSession restores a session saved with Save; the resumed run
// continues the exact parameter, optimizer, and data streams. A state
// file written by a multi-rank TrainElastic run resumes too, as a world
// shrunk to one rank.
func ResumeSession(path string) (*Session, error) {
	st, err := readFullState(path)
	if err != nil {
		return nil, err
	}
	return newSession(st.Config, newEDSR(st.Config), identity, nil, 0, st)
}

// newSession builds one rank's run around model: the loader sharded for
// comm's rank (unsharded when comm is nil), Adam, the state restored from
// st when non-nil, and — with a communicator — the Horovod engine and
// distributed optimizer. fusion is the engine's fusion threshold in bytes
// (0 = Horovod's 64 MB default, -1 = unfused). The engine is started but
// nothing has been sent yet: the caller defers close and then broadcasts
// the parameters, so a peer dying during the broadcast still shuts the
// engine down.
func newSession(cfg Config, model SRModel, pre func(*tensor.Tensor) *tensor.Tensor, comm *mpi.Comm, fusion int64, st *trainState) (*Session, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = noMetrics
	}
	s := &Session{Cfg: cfg, Model: model, pre: pre, world: 1, comm: comm, meter: metrics.ThroughputMeter{WarmupSteps: 1}}
	if comm != nil {
		s.rank, s.world = comm.Rank(), comm.Size()
	}
	params := model.Params()
	if err := nn.CheckUniqueNames(params); err != nil {
		return nil, err
	}
	seed := cfg.Seed + 100
	if st != nil {
		// A resumed run mixes the checkpoint step in, so a world of a
		// different size draws fresh but deterministic batches; a world of
		// the same size overrides this below with the saved streams.
		seed += uint64(st.Step) * 7919
	}
	var err error
	s.Loader, err = data.NewLoader(data.NewDataset(cfg.Data), data.LoaderConfig{
		BatchSize: cfg.BatchSize,
		PatchSize: cfg.PatchSize,
		Scale:     cfg.Model.Scale,
		Rank:      s.rank,
		WorldSize: s.world,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	s.Opt = nn.NewAdam(params, cfg.LR)
	if st != nil {
		if err := st.restore(params, s.Opt); err != nil {
			return nil, err
		}
		s.Step = st.Step
		if st.WorldSize == s.world {
			// Same world: resume each rank's exact sampling stream so the
			// continuation is bit-identical to a run that never stopped.
			s.Loader.SetRNGState(st.LoaderRNG[s.rank])
		}
	}
	if comm == nil {
		return s, nil
	}

	// Fresh per rank: the top-k variant carries error-feedback state that
	// must never be shared across ranks.
	ratio := cfg.TopKRatio
	if ratio == 0 {
		ratio = defaultTopKRatio
	}
	fn, err := collective.NewAllreduceFnByName(cfg.Compression, ratio)
	if err != nil {
		return nil, err
	}
	if cfg.Compression == "topk" {
		// Top-k residuals are keyed by buffer identity, so every tensor
		// must reduce in its own stable registered buffer, not a recycled
		// fusion buffer.
		fusion = 1
	}
	s.engine = horovod.NewEngine(engineComm(cfg, comm), horovod.Config{
		FusionThresholdBytes: fusion,
		CycleTime:            0, // in-process ranks negotiate eagerly
		Average:              true,
		Algo:                 mpi.AlgoRing,
		AllreduceFn:          fn,
		Trace:                cfg.Trace.Recorder(s.rank),
		Metrics:              s.metrics(),
	})
	s.dist = horovod.NewDistributedOptimizer(s.Opt, s.engine)
	if n, ok := model.(nn.GradNotifier); ok {
		// Overlap backward with communication: each parameter is submitted
		// for reduction the moment its backward contribution completes.
		n.SetGradHook(s.dist.GradHook())
	}
	s.engine.Start()
	horovod.ScaleLR(s.Opt, s.world)
	return s, nil
}

// close stops the communication engine; every rank that built a Session
// over a communicator must call it.
func (s *Session) close() {
	if s.engine != nil {
		s.engine.Shutdown()
	}
}

// engineComm prepares the communicator the Horovod engine runs its
// collectives on. With tracing enabled the engine gets a fork whose
// Tracer lands spans on the engine track, and the rank's own Comm traces
// onto the trainer track; without tracing the engine shares c directly.
func engineComm(cfg Config, c *mpi.Comm) *mpi.Comm {
	if cfg.Trace == nil {
		return c
	}
	rec := cfg.Trace.Recorder(c.Rank())
	c.Tracer = rec.Sink(trace.TrackMain)
	ec := c.Fork()
	ec.Tracer = rec.Sink(trace.TrackEngine)
	return ec
}

// noMetrics is the bundle of no-op instruments a session updates when it
// reports no live metrics.
var noMetrics = trace.NewTrainMetrics(nil)

// metrics returns the live-metrics bundle this rank updates: Cfg.Metrics
// on rank 0 only, so per-step counters reflect global steps, not steps ×
// world size, and noMetrics elsewhere.
func (s *Session) metrics() *trace.TrainMetrics {
	if s.rank != 0 {
		return noMetrics
	}
	return s.Cfg.Metrics
}

// RunSteps performs n training steps and returns the last loss. It reads
// Cfg's runtime fields (Log, LogEvery, Trace, Metrics) on every call, so
// they may be set on a resumed session before stepping it.
func (s *Session) RunSteps(n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("trainer: negative step count")
	}
	cfg := &s.Cfg
	rec := cfg.Trace.Recorder(s.rank)
	tm := s.metrics()
	tm.WorldSize.Set(float64(s.world))
	schedule := nn.StepLRSchedule{Base: cfg.LR * float64(s.world), DecayEvery: cfg.LRDecayEvery, Gamma: 0.5}
	loss := nn.L1Loss{}
	images := cfg.BatchSize * s.world
	began := time.Now()
	for i := 0; i < n; i++ {
		if s.comm != nil {
			s.comm.FaultPoint(s.Step)
		}
		if cfg.LRDecayEvery > 0 {
			schedule.Apply(s.Opt, s.Step)
		}
		stepStart := time.Now() // the loader is part of the step a caller waits for
		dataSpan := rec.Now()
		batch := s.Loader.Next()
		rec.Emit(trace.CatData, trace.TrackMain, dataSpan, 0)
		stepSpan := rec.Now()
		s.Opt.ZeroGrad()
		fwdSpan := rec.Now()
		pred := s.Model.Forward(s.pre(batch.LR))
		rec.Emit(trace.CatForward, trace.TrackMain, fwdSpan, 0)
		l, grad := loss.ForwardBuf(s.gradBuf, pred, batch.HR)
		s.gradBuf = grad
		bwdSpan := rec.Now()
		s.Model.Backward(grad)
		rec.Emit(trace.CatBackward, trace.TrackMain, bwdSpan, 0)
		if s.dist != nil {
			s.dist.Step() // drain the reductions, then the Adam update
		} else {
			s.Opt.Step()
		}
		rec.Emit(trace.CatStep, trace.TrackMain, stepSpan, 0)
		stepDur := time.Since(stepStart)
		s.meter.Record(images, stepDur.Seconds())
		tm.ObserveStep(images, stepDur, s.meter.ImagesPerSecond())
		s.lossSum += l
		s.lastLoss = l
		s.ran++
		s.Step++
		if s.ran == 1 {
			// The first step grows every scratch buffer; the allocation
			// meter starts after it so it reflects steady state.
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			s.warmMallocs = m.Mallocs
		}
		if cfg.LogEvery > 0 && cfg.Log != nil && s.rank == 0 && s.Step%cfg.LogEvery == 0 {
			fmt.Fprintf(cfg.Log, "step %4d  loss %.5f  lr %.2e  %.1f img/s\n",
				s.Step, l, s.Opt.LR(), s.meter.ImagesPerSecond())
		}
	}
	s.wall += time.Since(began)
	return s.lastLoss, nil
}

// ImagesPerSec returns the session's running throughput (global images
// per second, the first step skipped as warm-up).
func (s *Session) ImagesPerSec() float64 { return s.meter.ImagesPerSecond() }

// Stats summarizes the steps this Session has run so far. Call it right
// after the last RunSteps: AllocsPerStep counts every allocation in the
// process since the first step.
func (s *Session) Stats() Stats {
	st := Stats{
		Steps:        s.ran,
		FinalLoss:    s.lastLoss,
		ImagesPerSec: s.meter.ImagesPerSecond(),
		WallSeconds:  s.wall.Seconds(),
	}
	if s.ran > 0 {
		st.AvgLoss = s.lossSum / float64(s.ran)
	}
	if s.dist != nil {
		if total, n := s.dist.DrainStats(); n > 0 {
			st.DrainMsPerStep = total.Seconds() * 1e3 / float64(n)
		}
	}
	if s.ran > 1 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		st.AllocsPerStep = float64(m.Mallocs-s.warmMallocs) / float64(s.ran-1)
	}
	return st
}

// Save writes the complete training state to path. Values and moments are
// identical on every rank (the data-parallel invariant), so rank 0's copy
// plus every rank's loader RNG stream is the complete state of the job:
// all ranks of a distributed Session call Save at the same step, and only
// rank 0 touches the filesystem. The write is crash-safe (see
// atomicWrite): a crash mid-save, or an encode, sync or close error,
// leaves the previous checkpoint intact.
func (s *Session) Save(path string) error {
	rec := s.Cfg.Trace.Recorder(s.rank)
	span := rec.Now()
	rngs := []uint64{s.Loader.RNGState()}
	if s.comm != nil {
		rngs = gatherRNGStates(s.comm, rngs[0])
	}
	if s.rank == 0 {
		st := trainState{Config: s.Cfg.sanitized(), WorldSize: s.world, Step: s.Step, LoaderRNG: rngs}
		st.Names, st.Values = namesAndValues(s.Model.Params())
		st.AdamM, st.AdamV, st.AdamStep = s.Opt.State()
		if err := atomicWriteGob(path, &st); err != nil {
			return err
		}
	}
	rec.Emit(trace.CatCheckpoint, trace.TrackMain, span, 0)
	s.metrics().Checkpoints.Inc()
	return nil
}

// gatherRNGStates collects every rank's loader RNG state on rank 0 (nil
// elsewhere). States travel through the float32 substrate as raw bit
// halves — Gather only copies, so the uint64 round-trips exactly.
func gatherRNGStates(c *mpi.Comm, state uint64) []uint64 {
	in := [2]float32{
		math.Float32frombits(uint32(state)),
		math.Float32frombits(uint32(state >> 32)),
	}
	var out []float32
	if c.Rank() == 0 {
		out = make([]float32, 2*c.Size())
	}
	c.Gather(in[:], out, 0)
	if c.Rank() != 0 {
		return nil
	}
	states := make([]uint64, c.Size())
	for r := range states {
		lo := uint64(math.Float32bits(out[2*r]))
		hi := uint64(math.Float32bits(out[2*r+1]))
		states[r] = hi<<32 | lo
	}
	return states
}
