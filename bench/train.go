package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/horovod"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// Training workload shape. One timed operation is a round: one call of
// trainer.TrainSingle / TrainDistributed that trains on trainRoundImages
// global images, so the per-call build (model, loader, world, engine
// start, parameter broadcast) and the data loader are inside the clock.
// That is 20 steps of batch 4 on one rank and 10 steps on two, the same
// 80 global images either way. LR patch 24, not the trainer default 12:
// at patch 12 the goroutine-per-kernel wake-ups make round times bimodal
// on two cores.
const (
	trainBatch       = 4
	trainPatch       = 24
	trainImages      = 64
	trainHREdge      = 96
	trainRoundImages = 80
	trainMinRounds   = 3
)

// trainWarmupRounds keep setup_s above 2 s (shorter set-ups were the
// noisiest numbers of the first attempt), and trainRefRoundSeconds is a
// round's length at the seed commit on one CPU of the reference box: the
// number of timed rounds is the requested seconds divided by it, so counts
// depend on flags, never on speed. Indexed by world size; two ranks on one
// CPU take 2.1 s for the 80 images one rank trains on in 1.3 s.
var (
	trainWarmupRounds    = [3]int{1: 2, 2: 1}
	trainRefRoundSeconds = [3]float64{1: 1.3, 2: 2.1}
)

// trainRoundSteps is the per-rank step count of one round.
func trainRoundSteps(world int) int { return trainRoundImages / (trainBatch * world) }

func trainConfig(seed uint64, steps int) trainer.Config {
	return trainer.Config{
		Model:     models.EDSRTiny(),
		Data:      data.SyntheticConfig{Images: trainImages, Height: trainHREdge, Width: trainHREdge, Channels: 3, Seed: seed},
		Steps:     steps,
		BatchSize: trainBatch,
		PatchSize: trainPatch,
		LR:        1e-3,
		Seed:      seed + 1,
	}
}

func trainRounds(seconds float64, world int) int {
	return max(trainMinRounds, int(math.Round(seconds/trainRefRoundSeconds[world])))
}

type trainInstance struct {
	cfg    trainer.Config
	world  int
	rounds int
	quick  bool
	// loss is the warm-up rounds' final loss: every later round, and the
	// benchmark-owned loop, must reproduce it bit for bit.
	loss float64
}

// trainerRound runs one round through the trainer's public entry point.
func (t *trainInstance) trainerRound() (*models.EDSR, trainer.Stats, error) {
	if t.world == 1 {
		return trainer.TrainSingle(t.cfg)
	}
	return trainer.TrainDistributed(t.cfg, t.world)
}

func setupTrain(cfg runConfig, world int) (instance, error) {
	t := &trainInstance{cfg: trainConfig(cfg.Seed, trainRoundSteps(world)), world: world, rounds: trainRounds(cfg.Seconds, world), quick: cfg.Quick}
	warm := trainWarmupRounds[world]
	if cfg.Quick {
		t.cfg.Steps, t.rounds, warm = 3, 1, 1
	}
	for i := 0; i < warm; i++ {
		_, st, err := t.trainerRound()
		if err != nil {
			return nil, err
		}
		if i > 0 && st.FinalLoss != t.loss {
			return nil, fmt.Errorf("warm-up round %d loss %v differs from round 0 loss %v", i, st.FinalLoss, t.loss)
		}
		t.loss = st.FinalLoss
	}
	if math.IsNaN(t.loss) || math.IsInf(t.loss, 0) {
		return nil, fmt.Errorf("warm-up loss is %v", t.loss)
	}
	return t, nil
}

func (t *trainInstance) Close() {}

func (t *trainInstance) Timed(r *report) (float64, float64) {
	secs := make([]float64, 0, t.rounds)
	var last *models.EDSR
	for i := 0; i < t.rounds; i++ {
		began := time.Now()
		m, st, err := t.trainerRound()
		secs = append(secs, time.Since(began).Seconds())
		r.ops(1)
		switch {
		case err != nil:
			r.fail("round %d: %v", i, err)
		case math.IsNaN(st.FinalLoss) || math.IsInf(st.FinalLoss, 0):
			r.fail("round %d: loss %v", i, st.FinalLoss)
		case st.FinalLoss != t.loss:
			r.fail("round %d: loss %v differs from warm-up loss %v", i, st.FinalLoss, t.loss)
		}
		last = m
	}
	s := summarize(secs)
	images := float64(t.cfg.Steps * t.cfg.BatchSize * t.world)
	r.set("images_per_s", images/s.Q1) // fastTime
	r.timing("round", "s", s)
	r.detailf("%-28s %.3f", "round seconds", secs)
	r.detailf("%-28s %d images per round (%d steps x batch %d x %d ranks)", "round size", int(images), t.cfg.Steps, t.cfg.BatchSize, t.world)

	// The benchmark-owned loop must land on the trainer's loss and
	// parameters exactly: that is what lets the traced pass speak for the
	// real loop.
	r.ops(1)
	ranks, err := runOwnLoop(t.cfg, t.world, nil, 0)
	if err != nil {
		r.fail("benchmark-owned loop: %v", err)
	} else {
		t.checkOwnLoop(r, ranks, last)
	}
	return 1 / s.Q1, s.Q1 * 1e3
}

// checkOwnLoop compares the benchmark-owned loop against the trainer:
// same loss bit for bit, replicas bit-identical across ranks, and rank 0's
// parameters equal to the model the trainer returned.
func (t *trainInstance) checkOwnLoop(r *report, ranks []ownRankResult, trained *models.EDSR) {
	if ranks[0].loss != t.loss {
		r.fail("benchmark-owned loop loss %v != trainer loss %v", ranks[0].loss, t.loss)
		return
	}
	for rank := 1; rank < len(ranks); rank++ {
		if d := firstParamDiff(ranks[0].model, ranks[rank].model); d != "" {
			r.fail("rank %d parameters differ from rank 0 at %s", rank, d)
			return
		}
	}
	if trained != nil {
		if d := firstParamDiff(ranks[0].model, trained); d != "" {
			r.fail("benchmark-owned loop parameters differ from the trainer's at %s", d)
		}
	}
}

// firstParamDiff names the first parameter element whose bits differ
// between two models ("" when they are identical).
func firstParamDiff(a, b *models.EDSR) string {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return fmt.Sprintf("parameter count %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		da, db := pa[i].Value.Data(), pb[i].Value.Data()
		if len(da) != len(db) {
			return pa[i].Name + " (length)"
		}
		for j := range da {
			if math.Float32bits(da[j]) != math.Float32bits(db[j]) {
				return fmt.Sprintf("%s[%d]", pa[i].Name, j)
			}
		}
	}
	return ""
}

// ownRankResult is what one rank of the benchmark-owned loop reports.
type ownRankResult struct {
	model        *models.EDSR
	loss         float64
	stepSeconds  []float64
	buildSeconds float64
	bcastSeconds float64
	// Allreduce accounting from the wrapped AllreduceFn: calls, payload
	// bytes handed to the backend, bytes this rank put on the wire inside
	// those calls, and their total time.
	calls     int
	payload   int64
	wire      int64
	allreduce time.Duration
}

// runOwnLoop runs the benchmark-owned step loop on world ranks. Rank 0
// records spans into tr (nil: none), numbering operations from opBase.
func runOwnLoop(cfg trainer.Config, world int, tr *tracer, opBase int) ([]ownRankResult, error) {
	if world == 1 {
		return []ownRankResult{ownRank(cfg, nil, tr, opBase)}, nil
	}
	w := mpi.NewWorld(world)
	results := make([]ownRankResult, world)
	err := w.Run(func(c *mpi.Comm) {
		var t *tracer
		if c.Rank() == 0 {
			t = tr
		}
		results[c.Rank()] = ownRank(cfg, c, t, opBase)
	})
	return results, err
}

// ownRank is trainer.trainRank rebuilt from the same public calls in the
// same order — Loader.Next, ZeroGrad, EDSR.Forward, L1Loss.ForwardBuf,
// EDSR.Backward, Drain, Step — with a span around each and with the
// engine's AllreduceFn and the model's GradHook wrapped to count and
// time. comm is nil for single-process training.
func ownRank(cfg trainer.Config, comm *mpi.Comm, tr *tracer, opBase int) ownRankResult {
	var res ownRankResult
	rank, world := 0, 1
	if comm != nil {
		rank, world = comm.Rank(), comm.Size()
	}
	buildStart := time.Now()
	model := models.NewEDSR(cfg.Model, tensor.NewRNG(cfg.Seed))
	params := model.Params()
	loader, err := data.NewLoader(data.NewDataset(cfg.Data), data.LoaderConfig{
		BatchSize: cfg.BatchSize,
		PatchSize: cfg.PatchSize,
		Scale:     cfg.Model.Scale,
		Rank:      rank,
		WorldSize: world,
		Seed:      cfg.Seed + 100,
	})
	if err != nil {
		panic(err) // the config is the benchmark's own constant
	}
	opt := nn.NewAdam(params, cfg.LR)

	// root and op identify the step in flight for spans opened on other
	// goroutines (the engine thread's reductions) and inside Backward
	// (the grad hook); bwd is the backward span the hook fires under.
	var root, op atomic.Int64
	var bwd int
	var distOpt *horovod.DistributedOptimizer
	if comm != nil {
		engine := horovod.NewEngine(comm, horovod.Config{
			FusionThresholdBytes: 64 << 20,
			CycleTime:            0,
			Average:              true,
			Algo:                 mpi.AlgoRing,
			AllreduceFn: func(c *mpi.Comm, buf []float32) error {
				id := tr.begin("mpi/allreduce", int(root.Load()), int(op.Load()))
				began, sent := time.Now(), c.SentBytes()
				c.AllreduceSum(buf, mpi.AlgoRing)
				res.allreduce += time.Since(began)
				res.wire += c.SentBytes() - sent
				res.calls++
				res.payload += int64(len(buf)) * 4
				tr.end(id)
				return nil
			},
		})
		distOpt = horovod.NewDistributedOptimizer(opt, engine)
		submit := distOpt.GradHook()
		model.SetGradHook(func(p *nn.Param) {
			id := tr.begin("horovod/submit", bwd, int(op.Load()))
			submit(p)
			tr.end(id)
		})
		engine.Start()
		defer engine.Shutdown()
		bcastStart := time.Now()
		horovod.BroadcastParameters(comm, params, 0)
		res.bcastSeconds = time.Since(bcastStart).Seconds()
		horovod.ScaleLR(opt, world)
	}
	res.buildSeconds = time.Since(buildStart).Seconds()

	loss := nn.L1Loss{}
	var gradBuf *tensor.Tensor
	for step := 0; step < cfg.Steps; step++ {
		stepStart := time.Now()
		op.Store(int64(opBase + step))
		rootID := tr.begin("train/step", 0, opBase+step)
		root.Store(int64(rootID))
		call := func(name string, f func()) {
			id := tr.begin(name, rootID, opBase+step)
			f()
			tr.end(id)
		}
		var batch data.Batch
		call("data/next", func() { batch = loader.Next() })
		call("nn/zero_grad", opt.ZeroGrad)
		var pred *tensor.Tensor
		call("models/forward", func() { pred = model.Forward(batch.LR) })
		var grad *tensor.Tensor
		call("nn/loss", func() { res.loss, grad = loss.ForwardBuf(gradBuf, pred, batch.HR) })
		gradBuf = grad
		bwd = tr.begin("models/backward", rootID, opBase+step)
		model.Backward(grad)
		tr.end(bwd)
		if distOpt != nil {
			call("horovod/drain", distOpt.Drain)
		}
		call("nn/optim_step", opt.Step)
		tr.end(rootID)
		res.stepSeconds = append(res.stepSeconds, time.Since(stepStart).Seconds())
	}
	res.model = model
	return res
}

func (t *trainInstance) Traced(r *report, tr *tracer) {
	rounds := max(1, t.rounds/3)
	var mem0, mem1 runtime.MemStats

	// Untraced rounds of the benchmark-owned loop: the reference the
	// traced rounds are compared with, and where allocations are counted
	// (the tracer's own appends would pollute the count).
	var plain []float64
	runtime.ReadMemStats(&mem0)
	for i := 0; i < rounds; i++ {
		r.ops(1)
		ranks, err := runOwnLoop(t.cfg, t.world, nil, 0)
		if err != nil {
			r.fail("untraced loop round %d: %v", i, err)
			return
		}
		t.checkOwnLoop(r, ranks, nil)
		plain = append(plain, ranks[0].stepSeconds[1:]...)
	}
	runtime.ReadMemStats(&mem1)
	steps := float64(rounds * t.cfg.Steps)
	r.set("proc.allocs_per_step", float64(mem1.Mallocs-mem0.Mallocs)/steps)

	var traced, build, bcast []float64
	var calls int
	var payload, wire int64
	var allreduce time.Duration
	for i := 0; i < rounds; i++ {
		r.ops(1)
		ranks, err := runOwnLoop(t.cfg, t.world, tr, i*t.cfg.Steps)
		if err != nil {
			r.fail("traced loop round %d: %v", i, err)
			return
		}
		t.checkOwnLoop(r, ranks, nil)
		r0 := ranks[0]
		traced = append(traced, r0.stepSeconds[1:]...)
		build = append(build, r0.buildSeconds)
		bcast = append(bcast, r0.bcastSeconds)
		calls += r0.calls
		payload += r0.payload
		wire += r0.wire
		allreduce += r0.allreduce
	}

	ms := func(name string) float64 { return median(tr.perOp("train/step", name)) * 1e3 }
	r.set("data.next_ms", ms("data/next"))
	r.set("models.forward_ms", ms("models/forward"))
	r.set("models.backward_ms", ms("models/backward"))
	r.set("nn.loss_ms", ms("nn/loss"))
	r.set("nn.optim_step_ms", ms("nn/optim_step"))
	r.set("trainer.step_ms", median(tr.durations("train/step"))*1e3)
	r.set("trainer.build_ms", median(build)*1e3)
	cov := tr.coverage("train/step")
	r.set("trainer.coverage", cov)
	r.check(cov >= 0.90, "trainer.coverage %.3f < 0.90: the step's child spans do not account for it", cov)
	if t.world > 1 {
		drain := tr.perOp("train/step", "horovod/drain")
		r.set("horovod.drain_ms", median(drain)*1e3)
		r.set("horovod.submit_us", median(tr.durations("horovod/submit"))*1e6)
		r.set("horovod.allreduce_calls_per_step", float64(calls)/steps)
		r.set("horovod.fused_bytes_per_step", float64(payload)/steps)
		var drainSum float64
		for _, d := range drain {
			drainSum += d
		}
		// The share of allreduce time that backward hid; 0 when the drain
		// (which also waits out negotiation) outlasts the reductions.
		if allreduce > 0 {
			r.set("horovod.hidden_share", max(0, 1-drainSum/allreduce.Seconds()))
		}
		r.detailf("%-28s drain %.3f ms, allreduce %.3f ms per step", "exposed communication", drainSum*1e3/steps, allreduce.Seconds()*1e3/steps)
		r.set("mpi.allreduce_ms_per_step", allreduce.Seconds()*1e3/steps)
		r.set("mpi.sent_bytes_per_step", float64(wire)/steps)
		r.set("mpi.bcast_params_ms", median(bcast)*1e3)
	}
	r.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100)
	r.timing("step (untraced)", "s", summarize(plain))
	r.timing("step (traced)", "s", summarize(traced))
	self := tr.selfSeconds()
	comm := self["horovod/drain"] + self["horovod/submit"] + self["mpi/allreduce"]
	r.detailf("%-28s %.3f ms per step", "horovod + mpi self time", comm*1e3/steps)

	benchTrainKernels(r, microBudget(t.quick))
	recordProc(r, mem0)
}
