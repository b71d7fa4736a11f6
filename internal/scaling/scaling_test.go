package scaling

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/models"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// profile runs opt traced and returns the hvprof report of its timeline.
func profile(t *testing.T, opt Options) trace.Report {
	t.Helper()
	s := trace.NewSession(0)
	opt.Trace = s.Recorder(0)
	Run(opt)
	if d := opt.Trace.Dropped(); d != 0 {
		t.Fatalf("%d spans dropped", d)
	}
	return s.Timeline().HvprofReport()
}

func TestRunBasic(t *testing.T) {
	r := Run(Options{Nodes: 1, Backend: collective.BackendMPIOpt, Steps: 3})
	if r.GPUs != 4 {
		t.Fatalf("GPUs %d", r.GPUs)
	}
	if r.ImagesPerSec <= 0 || r.StepSec <= 0 {
		t.Fatalf("no throughput: %+v", r)
	}
	if r.Messages == 0 || r.FusedBytes == 0 {
		t.Fatalf("no messages recorded: %+v", r)
	}
}

// TestTraceRecordsComputePhases: rank 0's compute phases land on the
// trainer track (one forward and one backward per step, warmup
// included; drain only where the step waited), its collectives on the
// engine track.
func TestTraceRecordsComputePhases(t *testing.T) {
	rec := trace.NewRecorder(0, 0)
	Run(Options{Nodes: 2, Backend: collective.BackendMPI, Steps: 3, Trace: rec})
	cats := map[trace.Category]int{}
	for _, s := range rec.Spans() {
		cats[s.Cat]++
		_, comm := s.Cat.HvprofOp()
		if comm != (s.Track == trace.TrackEngine) {
			t.Fatalf("span %v on track %v", s.Cat, s.Track)
		}
	}
	if cats[trace.CatForward] != 4 || cats[trace.CatBackward] != 4 ||
		cats[trace.CatDrain] == 0 || cats[trace.CatDrain] > 4 {
		t.Fatalf("compute spans %v, want 4 forward, 4 backward, 1-4 drain", cats)
	}
	if cats[trace.CatBcast] != 1 || cats[trace.CatNegotiate] == 0 || cats[trace.CatAllreduceHier] == 0 {
		t.Fatalf("comm spans %v", cats)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(Options{Nodes: 2, Backend: collective.BackendMPI, Steps: 3, Seed: 5})
	b := Run(Options{Nodes: 2, Backend: collective.BackendMPI, Steps: 3, Seed: 5})
	if a.ImagesPerSec != b.ImagesPerSec || a.Messages != b.Messages {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestEfficiencyBounded(t *testing.T) {
	base := SingleGPUBaseline(0)
	if math.Abs(base-10.3) > 0.1 {
		t.Fatalf("baseline %g", base)
	}
	r := Run(Options{Nodes: 2, Backend: collective.BackendMPIOpt, Steps: 3})
	eff := Efficiency(r, base)
	if eff <= 0 || eff > 1.02 {
		t.Fatalf("efficiency %g out of range", eff)
	}
}

// TestOptBeatsDefaultAtScale verifies the paper's headline orderings at a
// mid scale (32 nodes = 128 GPUs): MPI-Opt > MPI-Reg ≥ MPI, and MPI-Opt ≥
// NCCL > MPI.
func TestOptBeatsDefaultAtScale(t *testing.T) {
	steps := 5
	mpi := Run(Options{Nodes: 32, Backend: collective.BackendMPI, Steps: steps})
	reg := Run(Options{Nodes: 32, Backend: collective.BackendMPIReg, Steps: steps})
	opt := Run(Options{Nodes: 32, Backend: collective.BackendMPIOpt, Steps: steps})
	nccl := Run(Options{Nodes: 32, Backend: collective.BackendNCCL, Steps: steps})

	if !(opt.ImagesPerSec > reg.ImagesPerSec && reg.ImagesPerSec > mpi.ImagesPerSec) {
		t.Fatalf("ordering violated: opt %g, reg %g, mpi %g",
			opt.ImagesPerSec, reg.ImagesPerSec, mpi.ImagesPerSec)
	}
	if !(nccl.ImagesPerSec > mpi.ImagesPerSec) {
		t.Fatalf("NCCL (%g) should beat default MPI (%g)", nccl.ImagesPerSec, mpi.ImagesPerSec)
	}
	if !(opt.ImagesPerSec >= nccl.ImagesPerSec*0.97) {
		t.Fatalf("MPI-Opt (%g) should be at least competitive with NCCL (%g)",
			opt.ImagesPerSec, nccl.ImagesPerSec)
	}
}

// TestPaperHeadlineNumbers runs the 512-GPU endpoints and checks the
// paper's quantitative claims as shapes with tolerance: efficiency below
// ~60% default vs above ~70% optimized, a ~1.26x speedup, and a ~90%+
// registration-cache hit rate.
func TestPaperHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("512-GPU simulation")
	}
	steps := 6
	base := SingleGPUBaseline(0)
	mpi := Run(Options{Nodes: 128, Backend: collective.BackendMPI, Steps: steps})
	opt := Run(Options{Nodes: 128, Backend: collective.BackendMPIOpt, Steps: steps})

	effMPI, effOpt := Efficiency(mpi, base), Efficiency(opt, base)
	if effMPI >= 0.62 || effMPI <= 0.45 {
		t.Fatalf("default efficiency %.1f%%, paper says below 60%%", 100*effMPI)
	}
	if effOpt <= 0.70 || effOpt >= 0.85 {
		t.Fatalf("optimized efficiency %.1f%%, paper says above 70%%", 100*effOpt)
	}
	gain := effOpt - effMPI
	if gain < 0.10 || gain > 0.25 {
		t.Fatalf("efficiency gain %.1f points, paper says 15.6", 100*gain)
	}
	speedup := opt.ImagesPerSec / mpi.ImagesPerSec
	if speedup < 1.15 || speedup > 1.45 {
		t.Fatalf("speedup %.2fx, paper says 1.26x", speedup)
	}
	if hr := opt.RegCacheHitRate(); hr < 0.85 {
		t.Fatalf("reg-cache hit rate %.1f%%, paper says 93%%", 100*hr)
	}
}

// TestRegCacheGain reproduces Fig. 11's shape: MPI-Reg ~5% faster than MPI
// on multi-node runs.
func TestRegCacheGain(t *testing.T) {
	mpi := Run(Options{Nodes: 16, Backend: collective.BackendMPI, Steps: 5})
	reg := Run(Options{Nodes: 16, Backend: collective.BackendMPIReg, Steps: 5})
	gain := reg.ImagesPerSec/mpi.ImagesPerSec - 1
	if gain < 0.01 || gain > 0.12 {
		t.Fatalf("reg-cache gain %.1f%%, paper says ~5.1%%", 100*gain)
	}
	if reg.RegCacheHits == 0 {
		t.Fatal("cache saw no hits")
	}
	if mpi.RegCacheHits != 0 || mpi.RegCacheMiss != 0 {
		t.Fatal("default MPI must not use the cache")
	}
}

// TestProfileBucketShape reproduces Table I's shape at 4 GPUs: large
// buckets improve ~50%, small buckets ~0, total ~45%.
func TestProfileBucketShape(t *testing.T) {
	run := func(b collective.Backend) trace.Report {
		return profile(t, Options{Nodes: 1, Backend: b, Steps: 20})
	}
	def, opt := run(collective.BackendMPI), run(collective.BackendMPIOpt)
	rows := trace.Compare(def, opt, "allreduce")
	byBucket := map[string]trace.CompareRow{}
	for _, r := range rows {
		byBucket[r.Bucket] = r
	}
	if r, ok := byBucket["32 MB - 64 MB"]; !ok || r.ImprovementPercent < 40 || r.ImprovementPercent > 60 {
		t.Fatalf("32-64MB improvement %+v, paper says 49.7%%", r)
	}
	if r, ok := byBucket["16 MB - 32 MB"]; !ok || r.ImprovementPercent < 40 || r.ImprovementPercent > 62 {
		t.Fatalf("16-32MB improvement %+v, paper says 53.1%%", r)
	}
	if r, ok := byBucket["128 KB - 16 MB"]; ok && math.Abs(r.ImprovementPercent) > 15 {
		t.Fatalf("medium bucket should be ~0: %+v", r)
	}
	if r := byBucket["Total Time"]; r.ImprovementPercent < 35 || r.ImprovementPercent > 60 {
		t.Fatalf("total improvement %.1f%%, paper says 45.4%%", r.ImprovementPercent)
	}
}

func TestMessagesLandInExpectedBuckets(t *testing.T) {
	rep := profile(t, Options{Nodes: 1, Backend: collective.BackendMPIOpt, Steps: 5})
	ar := rep.PerOp["allreduce"]
	if ar == nil {
		t.Fatal("no allreduce records")
	}
	// Negotiations populate the smallest bucket; fused gradients the
	// 1-16, 16-32 and 32-64 MB classes; nothing exceeds the 64 MB fusion
	// threshold.
	if ar[0].Count == 0 {
		t.Fatal("negotiation traffic missing from 1-128 KB bucket")
	}
	if ar[2].Count == 0 || ar[3].Count == 0 {
		t.Fatalf("large fused messages missing: %+v", ar)
	}
	if ar[4].Count != 0 {
		t.Fatalf("messages above the fusion threshold: %+v", ar[4])
	}
}

func TestSmallerModelFusesSmaller(t *testing.T) {
	rep := profile(t, Options{
		Nodes: 1, Backend: collective.BackendMPIOpt, Steps: 3,
		Model: models.EDSRBaseline(),
	})
	ar := rep.PerOp["allreduce"]
	// EDSR-baseline has ~5 MB of gradients: nothing above 16 MB.
	if ar[2].Count != 0 || ar[3].Count != 0 || ar[4].Count != 0 {
		t.Fatalf("baseline model should not produce >16MB messages: %+v", ar)
	}
}

func TestSweepAndHelpers(t *testing.T) {
	res := Sweep(collective.BackendMPIOpt, []int{1, 2}, 3, nil)
	if len(res) != 2 || res[0].GPUs != 4 || res[1].GPUs != 8 {
		t.Fatalf("sweep results %+v", res)
	}
	if res[1].ImagesPerSec <= res[0].ImagesPerSec {
		t.Fatal("more GPUs should process more images/sec")
	}
	if s := SpeedupAt(res, res, 1); math.Abs(s-1) > 1e-12 {
		t.Fatalf("self-speedup %g", s)
	}
	if !math.IsNaN(SpeedupAt(res, res, 5)) {
		t.Fatal("out-of-range speedup should be NaN")
	}
	counts := PaperNodeCounts()
	if counts[0] != 1 || counts[len(counts)-1] != 128 {
		t.Fatalf("paper node counts %v", counts)
	}
}

// TestSimulatedEfficiencyWithinAnalyticBounds sandwiches the simulated
// efficiency between the zero-overlap analytic lower bound and perfect
// scaling: the DES may hide communication behind compute (raising
// efficiency above the bound) but may never beat linear scaling.
func TestSimulatedEfficiencyWithinAnalyticBounds(t *testing.T) {
	base := SingleGPUBaseline(0)
	msgs := []int64{10 << 20, 29 << 20, 61 << 20, 61 << 20} // the burst-fused messages
	for _, nodes := range []int{8, 32} {
		for _, b := range []collective.Backend{collective.BackendMPI, collective.BackendMPIOpt} {
			r := Run(Options{Nodes: nodes, Backend: b, Steps: 4})
			eff := Efficiency(r, base)
			lower := collective.AnalyticEfficiency(
				cluster.DefaultConfig(nodes), b, perfmodel.EDSRStepSec(4), msgs)
			if eff < lower*0.97 {
				t.Errorf("nodes=%d %v: simulated eff %.3f below analytic lower bound %.3f",
					nodes, b, eff, lower)
			}
			if eff > 1.02 {
				t.Errorf("nodes=%d %v: simulated eff %.3f beats linear scaling", nodes, b, eff)
			}
		}
	}
}

func TestFusionThresholdChangesMessageCount(t *testing.T) {
	small := Run(Options{Nodes: 1, Backend: collective.BackendMPIOpt, Steps: 3,
		FusionThresholdBytes: 8 << 20})
	big := Run(Options{Nodes: 1, Backend: collective.BackendMPIOpt, Steps: 3,
		FusionThresholdBytes: 64 << 20})
	if small.Messages <= big.Messages {
		t.Fatalf("smaller fusion buffer must produce more messages: %d vs %d",
			small.Messages, big.Messages)
	}
}
