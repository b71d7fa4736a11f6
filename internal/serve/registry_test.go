package serve

import (
	"path/filepath"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// serveConfig is a tiny trainable config for checkpoint round-trips.
func serveConfig() trainer.Config {
	cfg := trainer.DefaultConfig()
	cfg.Model = models.EDSRConfig{NumBlocks: 1, NumFeats: 6, Scale: 2, ResScale: 0.1, Colors: 3}
	cfg.Data.Images = 8
	cfg.Data.Height, cfg.Data.Width = 24, 24
	cfg.Steps = 0
	cfg.BatchSize = 2
	cfg.PatchSize = 8
	return cfg
}

// checkFactoryMatches asserts a factory's replicas forward identically
// to the reference model.
func checkFactoryMatches(t *testing.T, f Factory, ref trainer.SRModel) {
	t.Helper()
	rng := tensor.NewRNG(61)
	x := randImage(rng, 3, 9, 9)
	want := ref.Forward(x).Clone()
	got := f().Forward(x)
	if d := maxAbsDiff(want, got); d != 0 {
		t.Fatalf("replica forward differs from checkpointed model by %g", d)
	}
}

// TestLoadEDSRCheckpointWeightsFile round-trips the weights-only
// trainer.SaveCheckpoint format into a serving Factory.
func TestLoadEDSRCheckpointWeightsFile(t *testing.T) {
	cfg := serveConfig()
	master := models.NewEDSR(cfg.Model, tensor.NewRNG(cfg.Seed))
	path := filepath.Join(t.TempDir(), "weights.ckpt")
	if err := trainer.SaveCheckpoint(path, master, cfg); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	f, gotCfg, err := LoadEDSRCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadEDSRCheckpoint: %v", err)
	}
	if gotCfg != cfg.Model {
		t.Fatalf("config %+v, want %+v", gotCfg, cfg.Model)
	}
	checkFactoryMatches(t, f, master)
}

// TestLoadEDSRCheckpointSessionFile loads the full training-state file
// written by trainer.Session.Save — the server must accept checkpoints
// straight out of a crash-safe training run, optimizer state and all.
func TestLoadEDSRCheckpointSessionFile(t *testing.T) {
	s, err := trainer.NewSession(serveConfig())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.RunSteps(2); err != nil {
		t.Fatalf("RunSteps: %v", err)
	}
	path := filepath.Join(t.TempDir(), "session.ckpt")
	if err := s.Save(path); err != nil {
		t.Fatalf("Session.Save: %v", err)
	}
	f, _, err := LoadEDSRCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadEDSRCheckpoint on a Session.Save file: %v", err)
	}
	checkFactoryMatches(t, f, s.Model)
}

// TestLoadEDSRCheckpointElasticFile loads the state file a 2-rank
// trainer.TrainElastic run checkpoints into: the same format as
// Session.Save with two loader RNG streams, rank 0's weights inside.
func TestLoadEDSRCheckpointElasticFile(t *testing.T) {
	cfg := serveConfig()
	cfg.Steps = 2
	path := filepath.Join(t.TempDir(), "elastic.ckpt")
	model, _, err := trainer.TrainElastic(trainer.ElasticConfig{Train: cfg, WorldSize: 2, CheckpointPath: path})
	if err != nil {
		t.Fatalf("TrainElastic: %v", err)
	}
	f, gotCfg, err := LoadEDSRCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadEDSRCheckpoint on a TrainElastic file: %v", err)
	}
	if gotCfg != cfg.Model {
		t.Fatalf("config %+v, want %+v", gotCfg, cfg.Model)
	}
	checkFactoryMatches(t, f, model)
}

// TestLoadEDSRCheckpointMissing checks the error path.
func TestLoadEDSRCheckpointMissing(t *testing.T) {
	if _, _, err := LoadEDSRCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("expected an error for a missing checkpoint")
	}
}

// TestBuiltinFactories checks every built-in name yields a working
// factory and unknown names fail.
func TestBuiltinFactories(t *testing.T) {
	rng := tensor.NewRNG(67)
	for _, name := range []string{"bicubic", "edsr-tiny", "srcnn"} {
		f, err := BuiltinFactory(name)
		if err != nil {
			t.Fatalf("BuiltinFactory(%q): %v", name, err)
		}
		m := f()
		x := randImage(rng, m.Colors(), 7, 7)
		y := m.Forward(x)
		if y.Dim(2) != 7*m.Scale() || y.Dim(3) != 7*m.Scale() {
			t.Fatalf("%s: output %v for 7x7 input, scale %d", name, y.Shape(), m.Scale())
		}
	}
	if _, err := BuiltinFactory("alexnet"); err == nil {
		t.Fatal("expected an error for an unknown built-in")
	}
}
