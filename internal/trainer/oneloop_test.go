package trainer

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// TestEntryPointsAgreeBitForBit is the one-loop oracle: every entry point
// drives the same Session.RunSteps, so for one config the single-process
// drivers end on the same bits, and so do the two 2-rank drivers (two
// ranks: a+b is order-free, so fusion timing cannot matter).
func TestEntryPointsAgreeBitForBit(t *testing.T) {
	cfg := fastConfig()
	cfg.Steps = 6
	cfg.LRDecayEvery = 4

	single, st, err := TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := paramBits(t, single)

	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunSteps(cfg.Steps); err != nil {
		t.Fatal(err)
	}
	if !sameBits(want, paramBits(t, sess.Model.(*models.EDSR))) {
		t.Fatal("NewSession+RunSteps differs from TrainSingle")
	}

	zoo, err := TrainZoo(ZooConfig{
		Arch: ArchEDSR, Scale: cfg.Model.Scale, Blocks: cfg.Model.NumBlocks, Feats: cfg.Model.NumFeats, Train: cfg,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zoo.FinalLoss != st.FinalLoss {
		t.Fatalf("TrainZoo(edsr) final loss %v, TrainSingle %v", zoo.FinalLoss, st.FinalLoss)
	}

	one, _, err := TrainElastic(ElasticConfig{Train: cfg, WorldSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(want, paramBits(t, one)) {
		t.Fatal("TrainElastic{WorldSize: 1} differs from TrainSingle")
	}

	dist, _, err := TrainDistributed(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	elastic, _, err := TrainElastic(ElasticConfig{Train: cfg, WorldSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(paramBits(t, dist), paramBits(t, elastic)) {
		t.Fatal("TrainElastic{WorldSize: 2} differs from TrainDistributed(cfg, 2)")
	}
}

// TestElasticRunSetsThroughputGauge: the elastic driver runs the metered
// loop, so the live images/s gauge moves on an elastic run too.
func TestElasticRunSetsThroughputGauge(t *testing.T) {
	cfg := elasticTestConfig(4)
	cfg.Metrics = trace.NewTrainMetrics(trace.NewMetrics())
	if _, _, err := TrainElastic(ElasticConfig{Train: cfg, WorldSize: 2}); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.ImagesPerSec.Value(); got <= 0 {
		t.Fatalf("images/s gauge %v after an elastic run, want > 0", got)
	}
	if got := cfg.Metrics.Steps.Value(); got != 4 {
		t.Fatalf("step counter %d, want 4 (rank 0 only)", got)
	}
}

// TestSessionIsTheTracedLoop: a Session records the same compute spans as
// TrainSingle, and its steady-state step allocates no more (one worker,
// so kernels spawn no goroutines; see Stats.AllocsPerStep).
func TestSessionIsTheTracedLoop(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	cfg := fastConfig()
	cfg.Steps = 8

	traced := cfg
	traced.Trace = trace.NewSession(0)
	sess, err := NewSession(traced)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	cats := map[trace.Category]int{}
	for _, s := range traced.Trace.Timeline().Ranks[0].Spans {
		cats[s.Cat]++
	}
	if cats[trace.CatStep] != 3 || cats[trace.CatForward] != 3 || cats[trace.CatBackward] != 3 {
		t.Fatalf("session span counts %v, want 3 each of step/forward/backward", cats)
	}

	_, single, err := TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err = NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunSteps(cfg.Steps); err != nil {
		t.Fatal(err)
	}
	// One allocation per step of slack for the runtime's own background
	// allocations between the two ReadMemStats calls.
	if got := sess.Stats().AllocsPerStep; got > single.AllocsPerStep+1 {
		t.Fatalf("session allocates %.1f/step at steady state, TrainSingle %.1f", got, single.AllocsPerStep)
	}
}

// TestDataSpanPrecedesEachStep: every rank records one data span per step
// on its main track, and each ends before the step span it feeds begins,
// so a trace separates loading from the step it precedes.
func TestDataSpanPrecedesEachStep(t *testing.T) {
	cfg := fastConfig()
	cfg.Steps = 3
	// The engine negotiates back to back (CycleTime 0) and records every
	// round: at GOMAXPROCS=1 these three steps record up to ~115 000
	// negotiation spans per rank, which would overflow the default
	// 64 Ki-span recorder before the last step span.
	cfg.Trace = trace.NewSession(1 << 20)
	if _, _, err := TrainDistributed(cfg, 2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if n := cfg.Trace.Recorder(r).Dropped(); n > 0 {
			t.Fatalf("rank %d recorder dropped %d spans", r, n)
		}
	}
	ranks := cfg.Trace.Timeline().Ranks
	if len(ranks) != 2 {
		t.Fatalf("%d traced ranks, want 2", len(ranks))
	}
	for _, rt := range ranks {
		var data, steps []trace.Span
		for _, s := range rt.Spans {
			switch {
			case s.Track != trace.TrackMain:
			case s.Cat == trace.CatData:
				data = append(data, s)
			case s.Cat == trace.CatStep:
				steps = append(steps, s)
			}
		}
		if len(data) != 3 || len(steps) != 3 {
			t.Fatalf("rank %d: %d data and %d step spans, want 3 each", rt.Rank, len(data), len(steps))
		}
		sort.Slice(data, func(i, j int) bool { return data[i].Start < data[j].Start })
		sort.Slice(steps, func(i, j int) bool { return steps[i].Start < steps[j].Start })
		for i := range data {
			if end := data[i].Start + data[i].Dur; end > steps[i].Start {
				t.Fatalf("rank %d step %d: data span ends at %d, after its step began at %d", rt.Rank, i, end, steps[i].Start)
			}
			if i > 0 && data[i].Start < steps[i-1].Start+steps[i-1].Dur {
				t.Fatalf("rank %d step %d: data span starts inside the previous step", rt.Rank, i)
			}
		}
	}
}

// TestOneStateFormat: what a single-process Session saves is a world-of-one
// elastic state, and what a 2-rank elastic run saves resumes as a Session.
func TestOneStateFormat(t *testing.T) {
	dir := t.TempDir()
	sess, err := NewSession(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "session.gob")
	if err := sess.Save(path); err != nil {
		t.Fatal(err)
	}
	step, ws, err := LoadElasticState(path)
	if err != nil || step != 3 || ws != 1 {
		t.Fatalf("LoadElasticState on a Session.Save file: step %d world %d err %v, want 3/1", step, ws, err)
	}

	path = filepath.Join(dir, "elastic.gob")
	if _, _, err := TrainElastic(ElasticConfig{Train: elasticTestConfig(4), WorldSize: 2, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(path)
	if err != nil {
		t.Fatalf("ResumeSession on a 2-rank elastic file: %v", err)
	}
	if resumed.Step != 4 {
		t.Fatalf("resumed at step %d, want 4", resumed.Step)
	}

	// A weights-only checkpoint is not a state training can resume from.
	weights := filepath.Join(dir, "weights.gob")
	if err := SaveCheckpoint(weights, sess.Model.(*models.EDSR), sess.Cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(weights); err == nil {
		t.Fatal("ResumeSession accepted a weights-only checkpoint")
	}
}
