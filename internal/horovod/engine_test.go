package horovod

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// testConfig is DefaultConfig with no cycle sleep, for fast tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CycleTime = 0
	return cfg
}

func TestEngineSingleTensor(t *testing.T) {
	w := mpi.NewWorld(4)
	var mu sync.Mutex
	results := make([][]float32, 4)
	w.Run(func(c *mpi.Comm) {
		e := NewEngine(c, testConfig())
		buf := []float32{float32(c.Rank() + 1), 2 * float32(c.Rank()+1)}
		id := e.Register("g", buf)
		e.Start()
		<-e.Submit(id)
		e.Shutdown()
		mu.Lock()
		results[c.Rank()] = buf
		mu.Unlock()
	})
	// Average of (1,2,3,4) = 2.5; of (2,4,6,8) = 5.
	for r, buf := range results {
		if math.Abs(float64(buf[0]-2.5)) > 1e-5 || math.Abs(float64(buf[1]-5)) > 1e-5 {
			t.Fatalf("rank %d: %v", r, buf)
		}
	}
}

func TestEngineSumWithoutAverage(t *testing.T) {
	w := mpi.NewWorld(3)
	cfg := testConfig()
	cfg.Average = false
	var mu sync.Mutex
	results := make([][]float32, 3)
	w.Run(func(c *mpi.Comm) {
		e := NewEngine(c, cfg)
		buf := []float32{1}
		id := e.Register("g", buf)
		e.Start()
		<-e.Submit(id)
		e.Shutdown()
		mu.Lock()
		results[c.Rank()] = buf
		mu.Unlock()
	})
	for r, buf := range results {
		if buf[0] != 3 {
			t.Fatalf("rank %d: %v, want sum 3", r, buf)
		}
	}
}

func TestEngineManyTensorsFused(t *testing.T) {
	const nt = 10
	w := mpi.NewWorld(2)
	cfg := testConfig()
	cfg.FusionThresholdBytes = 1 << 10
	var mu sync.Mutex
	results := make([][][]float32, 2)
	w.Run(func(c *mpi.Comm) {
		e := NewEngine(c, cfg)
		bufs := make([][]float32, nt)
		ids := make([]int, nt)
		for i := range bufs {
			bufs[i] = make([]float32, 16+i)
			for j := range bufs[i] {
				bufs[i][j] = float32((c.Rank() + 1) * (i + 1))
			}
			ids[i] = e.Register(name(i), bufs[i])
		}
		e.Start()
		waits := make([]<-chan struct{}, nt)
		for i := nt - 1; i >= 0; i-- {
			waits[i] = e.Submit(ids[i])
		}
		for _, wch := range waits {
			<-wch
		}
		e.Shutdown()
		mu.Lock()
		results[c.Rank()] = bufs
		mu.Unlock()
	})
	for r := 0; r < 2; r++ {
		for i := 0; i < nt; i++ {
			want := float32(i+1) * 1.5 // average of (i+1) and 2(i+1)
			for j, v := range results[r][i] {
				if math.Abs(float64(v-want)) > 1e-5 {
					t.Fatalf("rank %d tensor %d elem %d: %g want %g", r, i, j, v, want)
				}
			}
		}
	}
}

func name(i int) string { return string(rune('a' + i)) }

func TestEngineMultipleRounds(t *testing.T) {
	// Tensors submitted repeatedly across steps, like a training loop.
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		e := NewEngine(c, testConfig())
		buf := []float32{0}
		id := e.Register("g", buf)
		e.Start()
		for step := 0; step < 5; step++ {
			buf[0] = float32((step + 1) * (c.Rank() + 1))
			<-e.Submit(id)
			want := float32(step+1) * 1.5
			if math.Abs(float64(buf[0]-want)) > 1e-5 {
				t.Errorf("rank %d step %d: %g want %g", c.Rank(), step, buf[0], want)
			}
		}
		e.Shutdown()
	})
}

func TestEngineStaggeredSubmissions(t *testing.T) {
	// One rank submits late; negotiation must hold the reduction until
	// every rank is ready.
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		e := NewEngine(c, testConfig())
		buf := []float32{float32(c.Rank() + 1)}
		id := e.Register("g", buf)
		e.Start()
		if c.Rank() == 1 {
			time.Sleep(20 * time.Millisecond)
		}
		<-e.Submit(id)
		if math.Abs(float64(buf[0]-1.5)) > 1e-5 {
			t.Errorf("rank %d: %v", c.Rank(), buf)
		}
		e.Shutdown()
	})
}

func TestEngineDuplicateRegisterPanics(t *testing.T) {
	w := mpi.NewWorld(1)
	c := w.Comm(0)
	e := NewEngine(c, testConfig())
	e.Register("x", []float32{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Register("x", []float32{2})
}

func TestEngineDoubleSubmitPanics(t *testing.T) {
	w := mpi.NewWorld(1)
	c := w.Comm(0)
	e := NewEngine(c, testConfig())
	id := e.Register("x", []float32{1})
	e.Submit(id)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		// Unblock the engine (never started, so nothing to do).
	}()
	e.Submit(id)
}

func TestSubmitByName(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		e := NewEngine(c, testConfig())
		e.Register("w1", []float32{5})
		e.Start()
		<-e.SubmitByName("w1")
		e.Shutdown()
	})
}

func TestBroadcastParameters(t *testing.T) {
	w := mpi.NewWorld(4)
	var mu sync.Mutex
	vals := make([]float32, 4)
	w.Run(func(c *mpi.Comm) {
		p := nn.NewParam("p", 3)
		p.Value.Fill(float32(c.Rank() * 100)) // divergent initial weights
		BroadcastParameters(c, []*nn.Param{p}, 0)
		mu.Lock()
		vals[c.Rank()] = p.Value.At(1)
		mu.Unlock()
	})
	for r, v := range vals {
		if v != 0 {
			t.Fatalf("rank %d kept value %g after broadcast from root 0", r, v)
		}
	}
}

func TestScaleLR(t *testing.T) {
	p := nn.NewParam("p", 1)
	opt := nn.NewSGD([]*nn.Param{p}, 1e-4, 0, 0)
	ScaleLR(opt, 8)
	if math.Abs(opt.LR()-8e-4) > 1e-12 {
		t.Fatalf("LR = %g", opt.LR())
	}
}

// TestDistributedMatchesSingleProcess is the core data-parallelism
// invariant: N ranks each computing gradients on 1/N of a batch, averaged
// through the engine, must produce the same update as one process on the
// full batch.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	const world = 4
	const perRank = 2
	rngData := tensor.NewRNG(77)
	// Full batch shared by both setups.
	fullX := tensor.New(world*perRank, 1, 6, 6)
	fullX.FillUniform(rngData, 0, 1)
	fullY := tensor.New(world*perRank, 1, 6, 6)
	fullY.FillUniform(rngData, 0, 1)

	buildNet := func() *nn.Sequential {
		rng := tensor.NewRNG(123) // same init everywhere
		return nn.NewSequential("n",
			nn.NewConv2d("n.c1", 1, 4, 3, 1, 1, true, rng),
			nn.NewReLU(),
			nn.NewConv2d("n.c2", 4, 1, 3, 1, 1, true, rng),
		)
	}

	// Single-process reference: loss gradients averaged over the full batch.
	ref := buildNet()
	refOpt := nn.NewSGD(ref.Params(), 0.1, 0, 0)
	refOpt.ZeroGrad()
	out := ref.Forward(fullX)
	_, grad := nn.MSELoss{}.Forward(out, fullY)
	ref.Backward(grad)
	refOpt.Step()

	// Distributed: each rank gets its slice; MSE over the slice has the
	// same per-element weight, so averaging rank gradients equals the
	// full-batch gradient.
	w := mpi.NewWorld(world)
	var mu sync.Mutex
	finalParams := make([][]float32, world)
	w.Run(func(c *mpi.Comm) {
		net := buildNet()
		opt := nn.NewSGD(net.Params(), 0.1, 0, 0)
		e := NewEngine(c, testConfig())
		dopt := NewDistributedOptimizer(opt, e)
		e.Start()
		BroadcastParameters(c, net.Params(), 0)

		sliceX := tensor.New(perRank, 1, 6, 6)
		sliceY := tensor.New(perRank, 1, 6, 6)
		off := c.Rank() * perRank * 36
		copy(sliceX.Data(), fullX.Data()[off:off+perRank*36])
		copy(sliceY.Data(), fullY.Data()[off:off+perRank*36])

		dopt.ZeroGrad()
		o := net.Forward(sliceX)
		_, g := nn.MSELoss{}.Forward(o, sliceY)
		net.Backward(g)
		dopt.Step()
		e.Shutdown()

		var flat []float32
		for _, p := range net.Params() {
			flat = append(flat, p.Value.Data()...)
		}
		mu.Lock()
		finalParams[c.Rank()] = flat
		mu.Unlock()
	})

	var refFlat []float32
	for _, p := range ref.Params() {
		refFlat = append(refFlat, p.Value.Data()...)
	}
	for r := 0; r < world; r++ {
		if len(finalParams[r]) != len(refFlat) {
			t.Fatalf("rank %d param count mismatch", r)
		}
		for i := range refFlat {
			if math.Abs(float64(finalParams[r][i]-refFlat[i])) > 1e-5 {
				t.Fatalf("rank %d param %d: %g vs reference %g",
					r, i, finalParams[r][i], refFlat[i])
			}
		}
	}
	// And all ranks must agree exactly with each other.
	for r := 1; r < world; r++ {
		for i := range finalParams[0] {
			if finalParams[r][i] != finalParams[0][i] {
				t.Fatalf("ranks 0 and %d diverged at param %d", r, i)
			}
		}
	}
}

func TestEngineWithCycleTime(t *testing.T) {
	// Exercise the real cycle-sleep path once.
	w := mpi.NewWorld(2)
	cfg := testConfig()
	cfg.CycleTime = time.Millisecond
	w.Run(func(c *mpi.Comm) {
		e := NewEngine(c, cfg)
		buf := []float32{1}
		id := e.Register("g", buf)
		e.Start()
		<-e.Submit(id)
		e.Shutdown()
	})
}
