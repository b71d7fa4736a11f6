package trainer

import (
	"math"
	"path/filepath"
	"testing"
)

func TestSessionRunsSteps(t *testing.T) {
	s, err := NewSession(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	loss, err := s.RunSteps(5)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || s.Step != 5 {
		t.Fatalf("loss %g step %d", loss, s.Step)
	}
	if s.ImagesPerSec() <= 0 {
		t.Fatal("no throughput recorded")
	}
	if _, err := s.RunSteps(-1); err == nil {
		t.Fatal("negative steps should fail")
	}
}

// TestStatsImagesPerSecCountsLoader: Stats.ImagesPerSec is images over
// the time a caller waits for them, data loading included. Large
// procedural images under a one-block model make the loader most of a
// step, so a clock that starts after Loader.Next reads several times the
// wall-clock rate.
func TestStatsImagesPerSecCountsLoader(t *testing.T) {
	cfg := fastConfig()
	cfg.Data.Height, cfg.Data.Width = 192, 192
	cfg.BatchSize = 1
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30
	if _, err := s.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	got, want := st.ImagesPerSec*st.WallSeconds, float64(steps*cfg.BatchSize)
	if math.Abs(got-want) > 0.10*want {
		t.Fatalf("ImagesPerSec %.1f x WallSeconds %.3f = %.1f images, trained %g",
			st.ImagesPerSec, st.WallSeconds, got, want)
	}
}

func TestSessionValidation(t *testing.T) {
	bad := fastConfig()
	bad.BatchSize = 0
	if _, err := NewSession(bad); err == nil {
		t.Fatal("expected error")
	}
}

// TestSessionResumeBitExact is the resume contract: train 16 straight vs
// train 8 + checkpoint + resume + train 8 must give identical parameters,
// optimizer state, and data stream.
func TestSessionResumeBitExact(t *testing.T) {
	cfg := fastConfig()
	cfg.Steps = 0 // sessions drive their own step counts

	straight, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := straight.RunSteps(16); err != nil {
		t.Fatal(err)
	}

	first, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.RunSteps(8); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.gob")
	if err := first.Save(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Step != 8 {
		t.Fatalf("resumed step %d", resumed.Step)
	}
	if _, err := resumed.RunSteps(8); err != nil {
		t.Fatal(err)
	}

	a, b := straight.Model.Params(), resumed.Model.Params()
	for i := range a {
		ad, bd := a[i].Value.Data(), b[i].Value.Data()
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("parameter %s diverged at %d: %g vs %g (resume not bit-exact)",
					a[i].Name, j, ad[j], bd[j])
			}
		}
	}
	// Optimizer step counters must match too.
	_, _, sa := straight.Opt.State()
	_, _, sb := resumed.Opt.State()
	if sa != sb {
		t.Fatalf("Adam step %d vs %d", sa, sb)
	}
}

func TestResumeSessionMissingFile(t *testing.T) {
	if _, err := ResumeSession(filepath.Join(t.TempDir(), "none.gob")); err == nil {
		t.Fatal("expected error")
	}
}

func TestSessionWithLRDecay(t *testing.T) {
	cfg := fastConfig()
	cfg.LRDecayEvery = 3
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSteps(7); err != nil {
		t.Fatal(err)
	}
	// After 7 steps with decay-every-3, lr = base/4.
	if got, want := s.Opt.LR(), cfg.LR/4; got != want {
		t.Fatalf("lr %g, want %g", got, want)
	}
}
