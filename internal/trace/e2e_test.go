// End-to-end: a real 4-rank traced training run must produce a valid
// Chrome trace with spans from every rank on both goroutine tracks,
// live metrics that agree with the run's shape, and a drain-time stat.
// External test package: trainer imports trace, so the e2e direction
// must live outside package trace.
package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/scaling"
	"repro/internal/trace"
	"repro/internal/trainer"
)

func traceTestConfig(steps int) trainer.Config {
	return trainer.Config{
		Model: models.EDSRConfig{NumBlocks: 1, NumFeats: 4, Scale: 2, ResScale: 0.1, Colors: 3},
		Data:  data.SyntheticConfig{Images: 8, Height: 24, Width: 24, Channels: 3, Seed: 7},
		Steps: steps, BatchSize: 2, PatchSize: 8, LR: 1e-3, Seed: 1,
	}
}

func TestTracedDistributedTraining(t *testing.T) {
	const world = 4
	cfg := traceTestConfig(3)
	cfg.Trace = trace.NewSession(0)
	reg := trace.NewMetrics()
	cfg.Metrics = trace.NewTrainMetrics(reg)

	_, st, err := trainer.TrainDistributed(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if st.DrainMsPerStep <= 0 {
		t.Errorf("DrainMsPerStep = %g, want > 0 for a distributed run", st.DrainMsPerStep)
	}

	tl := cfg.Trace.Timeline()
	if len(tl.Ranks) != world {
		t.Fatalf("timeline has %d ranks, want %d", len(tl.Ranks), world)
	}
	for _, rt := range tl.Ranks {
		cats := map[trace.Category]int{}
		tracks := map[trace.Track]bool{}
		for _, s := range rt.Spans {
			cats[s.Cat]++
			tracks[s.Track] = true
			if s.Start < 0 || s.Dur < 0 {
				t.Fatalf("rank %d: negative time in %+v", rt.Rank, s)
			}
		}
		for _, want := range []trace.Category{
			trace.CatStep, trace.CatForward, trace.CatBackward,
			trace.CatGradHook, trace.CatDrain, trace.CatFusedReduce,
			trace.CatNegotiate, trace.CatAllreduceRing,
		} {
			if cats[want] == 0 {
				t.Errorf("rank %d: no %v spans", rt.Rank, want)
			}
		}
		if cats[trace.CatStep] != cfg.Steps {
			t.Errorf("rank %d: %d step spans, want %d", rt.Rank, cats[trace.CatStep], cfg.Steps)
		}
		if !tracks[trace.TrackMain] || !tracks[trace.TrackEngine] {
			t.Errorf("rank %d: tracks %v, want both trainer and engine", rt.Rank, tracks)
		}
	}

	// The exported Chrome trace must be valid trace_event JSON.
	if threads := trace.CheckChromeTrace(t, tl); len(threads) != 2*world {
		t.Fatalf("thread names %v, want trainer and engine on %d ranks", threads, world)
	}

	// The span-derived hvprof report sees the run's collectives, and
	// every negotiation round lands in the allreduce 1-128 KB bucket.
	rep := tl.HvprofReport()
	for _, op := range []string{"allreduce", "bcast"} {
		if rep.TotalSeconds(op) <= 0 {
			t.Errorf("span-derived report: no %s time", op)
		}
	}
	negotiations, small := 0, 0
	for _, rt := range tl.Ranks {
		for _, s := range rt.Spans {
			if s.Cat == trace.CatNegotiate {
				negotiations++
			} else if op, _ := s.Cat.HvprofOp(); op == "allreduce" && trace.BucketOf(s.Bytes) == 0 {
				small++
			}
		}
	}
	if negotiations == 0 {
		t.Fatal("no negotiation spans")
	}
	if got := rep.PerOp["allreduce"][0].Count; got != negotiations+small {
		t.Errorf("allreduce 1-128 KB calls %d, want %d negotiations + %d small allreduces",
			got, negotiations, small)
	}

	// Live metrics reflect the run: world-size gauge, per-step counts.
	if got := cfg.Metrics.WorldSize.Value(); got != world {
		t.Errorf("world size gauge %g", got)
	}
	if got := cfg.Metrics.Steps.Value(); got != int64(cfg.Steps) {
		t.Errorf("steps counter %d, want %d", got, cfg.Steps)
	}
	if got := cfg.Metrics.Images.Value(); got != int64(cfg.Steps*cfg.BatchSize*world) {
		t.Errorf("images counter %d", got)
	}
	if cfg.Metrics.BytesReduced.Value() <= 0 || cfg.Metrics.DrainSeconds.Count() == 0 {
		t.Errorf("engine metrics not updated: bytes %d drains %d",
			cfg.Metrics.BytesReduced.Value(), cfg.Metrics.DrainSeconds.Count())
	}
}

// TestTracedSingleTraining: the single-process path records compute
// spans on rank 0 without any MPI world.
func TestTracedSingleTraining(t *testing.T) {
	cfg := traceTestConfig(2)
	cfg.Trace = trace.NewSession(0)
	if _, _, err := trainer.TrainSingle(cfg); err != nil {
		t.Fatal(err)
	}
	tl := cfg.Trace.Timeline()
	if len(tl.Ranks) != 1 {
		t.Fatalf("ranks %d", len(tl.Ranks))
	}
	cats := map[trace.Category]int{}
	for _, s := range tl.Ranks[0].Spans {
		cats[s.Cat]++
	}
	if cats[trace.CatStep] != 2 || cats[trace.CatForward] != 2 || cats[trace.CatBackward] != 2 {
		t.Fatalf("compute span counts %v", cats)
	}
}

// TestUntracedConfigStillSerializes guards the checkpoint paths: a
// traced Config must strip its runtime-only fields before gob encoding
// (a *trace.Session is not serializable).
func TestTracedCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := traceTestConfig(1)
	cfg.Trace = trace.NewSession(0)
	cfg.Metrics = trace.NewTrainMetrics(trace.NewMetrics())
	model, _, err := trainer.TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/ck.gob"
	if err := trainer.SaveCheckpoint(path, model, cfg); err != nil {
		t.Fatalf("traced config broke checkpointing: %v", err)
	}
	if _, _, err := trainer.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
}

// TestSimulatedTimeline: the cluster simulator records the same span
// model as a real run, so its timeline survives the JSONL round trip,
// exports as a Chrome trace with the real run's process and thread
// layout, and yields exactly the Fig. 14 bucket report.
func TestSimulatedTimeline(t *testing.T) {
	const steps = 5
	s := trace.NewSession(0)
	scaling.Run(scaling.Options{Nodes: 1, Backend: collective.BackendMPIOpt, Steps: steps, Trace: s.Recorder(0)})
	if d := s.Recorder(0).Dropped(); d != 0 {
		t.Fatalf("%d spans dropped", d)
	}
	tl := s.Timeline()

	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, back) {
		t.Fatal("simulated timeline changed over the JSONL round trip")
	}

	threads := trace.CheckChromeTrace(t, back)
	if len(back.Ranks) != 1 || back.Ranks[0].Rank != 0 ||
		threads[[2]int{0, int(trace.TrackMain)}] != "trainer" ||
		threads[[2]int{0, int(trace.TrackEngine)}] != "horovod-engine" {
		t.Fatalf("ranks %d, thread names %v: want pid 0 with trainer and horovod-engine", len(back.Ranks), threads)
	}

	want := experiments.RunFig14(experiments.Options{ProfileSteps: steps}).Optimized
	if got := back.HvprofReport(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round-tripped report:\n%s\nFig. 14 MPI-Opt report:\n%s", got, want)
	}
}
