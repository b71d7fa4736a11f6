package horovod

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainParams runs a short distributed training loop (3 steps, 4 ranks)
// and returns each rank's flattened final parameters. With overlap, the
// model announces gradients through the optimizer's GradHook during
// Backward; without, Step submits everything afterwards (the serial
// submit-after-backward path).
func trainParams(t *testing.T, algo mpi.AllreduceAlgo, overlap bool) [][]float32 {
	t.Helper()
	const world, perRank, steps = 4, 2, 3
	rngData := tensor.NewRNG(55)
	fullX := tensor.New(world*perRank, 1, 6, 6)
	fullX.FillUniform(rngData, 0, 1)
	fullY := tensor.New(world*perRank, 1, 6, 6)
	fullY.FillUniform(rngData, 0, 1)

	buildNet := func() *nn.Sequential {
		rng := tensor.NewRNG(321)
		return nn.NewSequential("n",
			nn.NewConv2d("n.c1", 1, 4, 3, 1, 1, true, rng),
			nn.NewReLU(),
			nn.NewConv2d("n.c2", 4, 4, 3, 1, 1, true, rng),
			nn.NewReLU(),
			nn.NewConv2d("n.c3", 4, 1, 3, 1, 1, true, rng),
		)
	}

	// Fusion OFF: grouping changes ring chunk boundaries and hence fp
	// summation order, so bitwise comparison across submission orders is
	// only meaningful when every tensor reduces alone.
	cfg := testConfig()
	cfg.FusionThresholdBytes = -1
	cfg.Algo = algo

	w := mpi.NewWorld(world)
	var mu sync.Mutex
	finals := make([][]float32, world)
	w.Run(func(c *mpi.Comm) {
		net := buildNet()
		opt := nn.NewSGD(net.Params(), 0.05, 0, 0)
		e := NewEngine(c, cfg)
		dopt := NewDistributedOptimizer(opt, e)
		if overlap {
			net.SetGradHook(dopt.GradHook())
		}
		e.Start()
		BroadcastParameters(c, net.Params(), 0)

		sliceX := tensor.New(perRank, 1, 6, 6)
		sliceY := tensor.New(perRank, 1, 6, 6)
		off := c.Rank() * perRank * 36
		copy(sliceX.Data(), fullX.Data()[off:off+perRank*36])
		copy(sliceY.Data(), fullY.Data()[off:off+perRank*36])

		for s := 0; s < steps; s++ {
			dopt.ZeroGrad()
			o := net.Forward(sliceX)
			_, g := nn.MSELoss{}.Forward(o, sliceY)
			net.Backward(g)
			dopt.Step()
		}
		e.Shutdown()

		var flat []float32
		for _, p := range net.Params() {
			flat = append(flat, p.Value.Data()...)
		}
		mu.Lock()
		finals[c.Rank()] = flat
		mu.Unlock()
	})
	return finals
}

// TestOverlappedMatchesSerial is the tentpole's correctness gate: with
// per-layer submission during backward, final parameters must be bitwise
// identical to the serial submit-after-backward path, for every allreduce
// algorithm. (Run under -race this also exercises the engine-thread /
// backward-thread handoff.)
func TestOverlappedMatchesSerial(t *testing.T) {
	for _, algo := range []mpi.AllreduceAlgo{mpi.AlgoRing, mpi.AlgoRecursiveDoubling, mpi.AlgoNaive} {
		serial := trainParams(t, algo, false)
		overlapped := trainParams(t, algo, true)
		for r := range serial {
			if len(serial[r]) == 0 || len(serial[r]) != len(overlapped[r]) {
				t.Fatalf("algo=%v rank %d: param length mismatch (%d vs %d)",
					algo, r, len(serial[r]), len(overlapped[r]))
			}
			for i := range serial[r] {
				if serial[r][i] != overlapped[r][i] {
					t.Fatalf("algo=%v rank %d param %d: overlapped %g != serial %g",
						algo, r, i, overlapped[r][i], serial[r][i])
				}
			}
		}
		// All ranks agree exactly.
		for r := 1; r < len(overlapped); r++ {
			for i := range overlapped[0] {
				if overlapped[r][i] != overlapped[0][i] {
					t.Fatalf("algo=%v: ranks 0 and %d diverged at param %d", algo, r, i)
				}
			}
		}
	}
}

// TestGradHookUnregisteredParamPanics: the optimizer's hook must reject
// parameters it never registered rather than reduce garbage.
func TestGradHookUnregisteredParamPanics(t *testing.T) {
	w := mpi.NewWorld(1)
	c := w.Comm(0)
	p := nn.NewParam("p", 4)
	opt := nn.NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	e := NewEngine(c, testConfig())
	dopt := NewDistributedOptimizer(opt, e)
	stranger := nn.NewParam("stranger", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered parameter")
		}
	}()
	dopt.GradHook()(stranger)
}

// TestGradHookDoubleAnnouncePanics: announcing the same parameter twice
// in one step is a model-wiring bug and must fail loudly.
func TestGradHookDoubleAnnouncePanics(t *testing.T) {
	w := mpi.NewWorld(1)
	c := w.Comm(0)
	p := nn.NewParam("p", 4)
	opt := nn.NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	e := NewEngine(c, testConfig())
	dopt := NewDistributedOptimizer(opt, e)
	hook := dopt.GradHook()
	hook(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for double announcement")
		}
	}()
	hook(p)
}

// TestDrainThenStepSubmitsOnce: a caller that measures the exposed
// communication window calls Drain itself and then Step. The gradients
// Drain already reduced must not go through the engine a second time:
// with fusion off the engine makes one allreduce call per parameter per
// step, whether Drain is explicit or left to Step.
func TestDrainThenStepSubmitsOnce(t *testing.T) {
	const world, steps = 2, 3
	cfg := testConfig()
	cfg.FusionThresholdBytes = -1
	var calls [world]atomic.Int64
	cfg.AllreduceFn = func(c *mpi.Comm, buf []float32) error {
		calls[c.Rank()].Add(1)
		c.AllreduceSum(buf, mpi.AlgoRing)
		return nil
	}

	var nParams int
	mpi.NewWorld(world).Run(func(c *mpi.Comm) {
		rng := tensor.NewRNG(321)
		net := nn.NewSequential("n",
			nn.NewConv2d("n.c1", 1, 2, 3, 1, 1, true, rng),
			nn.NewReLU(),
			nn.NewConv2d("n.c2", 2, 1, 3, 1, 1, true, rng),
		)
		if c.Rank() == 0 {
			nParams = len(net.Params())
		}
		e := NewEngine(c, cfg)
		dopt := NewDistributedOptimizer(nn.NewSGD(net.Params(), 0.05, 0, 0), e)
		net.SetGradHook(dopt.GradHook())
		e.Start()
		x := tensor.New(1, 1, 6, 6)
		x.FillUniform(tensor.NewRNG(uint64(c.Rank())+1), 0, 1)
		for s := 0; s < steps; s++ {
			dopt.ZeroGrad()
			_, g := nn.MSELoss{}.Forward(net.Forward(x), x)
			net.Backward(g)
			dopt.Drain()
			dopt.Step()
		}
		e.Shutdown()
	})
	for r := range calls {
		if got, want := calls[r].Load(), int64(steps*nParams); got != want {
			t.Errorf("rank %d: %d allreduce calls over %d steps of %d parameters, want %d", r, got, steps, nParams, want)
		}
	}
}
