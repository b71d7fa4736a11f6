package trainer

import (
	"encoding/gob"
	"fmt"
	"os"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainState is the one serialized training-state format. Session.Save
// (and so every TrainElastic checkpoint) writes all of it; a single-
// process session is a world of size 1. SaveCheckpoint writes only the
// weights-only subset — Config, Names, Values — and gob matches fields by
// name, so LoadCheckpoint reads either kind of file.
type trainState struct {
	Config    Config
	WorldSize int
	Step      int
	Names     []string
	Values    []*tensor.Tensor
	AdamM     []*tensor.Tensor
	AdamV     []*tensor.Tensor
	AdamStep  int
	LoaderRNG []uint64 // one sampling stream per rank
}

func readState(path string) (*trainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st trainState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("trainer: corrupt checkpoint %s: %w", path, err)
	}
	return &st, nil
}

// readFullState reads a state file that training can resume from; a
// weights-only checkpoint is rejected here (world 0, no RNG streams).
func readFullState(path string) (*trainState, error) {
	st, err := readState(path)
	if err != nil {
		return nil, err
	}
	if st.WorldSize < 1 || st.Step < 0 || len(st.LoaderRNG) != st.WorldSize {
		return nil, fmt.Errorf("trainer: inconsistent training state %s (world %d, step %d, %d rng streams)",
			path, st.WorldSize, st.Step, len(st.LoaderRNG))
	}
	return st, nil
}

// LoadElasticState reads the step and world size of a full training
// state written by Session.Save or TrainElastic (exported for the CLI to
// print resume info).
func LoadElasticState(path string) (step, worldSize int, err error) {
	st, err := readFullState(path)
	if err != nil {
		return 0, 0, err
	}
	return st.Step, st.WorldSize, nil
}

// restore checks the state against the live parameters by count, name and
// shape and copies the values in; with a non-nil opt the Adam moments and
// step counter follow.
func (st *trainState) restore(params []*nn.Param, opt *nn.Adam) error {
	if len(params) != len(st.Names) || len(st.Values) != len(st.Names) {
		return fmt.Errorf("trainer: checkpoint has %d names and %d tensors, model %d", len(st.Names), len(st.Values), len(params))
	}
	for i, p := range params {
		if p.Name != st.Names[i] {
			return fmt.Errorf("trainer: checkpoint tensor %q does not match model %q", st.Names[i], p.Name)
		}
		if !p.Value.SameShape(st.Values[i]) {
			return fmt.Errorf("trainer: shape mismatch for %q", p.Name)
		}
		p.Value.CopyFrom(st.Values[i])
	}
	if opt == nil {
		return nil
	}
	m, v, _ := opt.State()
	if len(st.AdamM) != len(m) || len(st.AdamV) != len(v) {
		return fmt.Errorf("trainer: optimizer state size mismatch in checkpoint")
	}
	for i := range m {
		if !m[i].SameShape(st.AdamM[i]) || !v[i].SameShape(st.AdamV[i]) {
			return fmt.Errorf("trainer: optimizer state shape mismatch for %q", params[i].Name)
		}
		m[i].CopyFrom(st.AdamM[i])
		v[i].CopyFrom(st.AdamV[i])
	}
	opt.SetStep(st.AdamStep)
	return nil
}

// newEDSR builds the EDSR a Config describes. The weight RNG is the
// config seed, so every rank holds the same weights before the broadcast.
func newEDSR(cfg Config) *models.EDSR {
	return models.NewEDSR(cfg.Model, tensor.NewRNG(cfg.Seed))
}

// edsrFromState rebuilds an EDSR from a state file's weights.
func edsrFromState(cfg Config, st *trainState) (*models.EDSR, error) {
	model := newEDSR(cfg)
	if err := st.restore(model.Params(), nil); err != nil {
		return nil, err
	}
	return model, nil
}

func namesAndValues(params []*nn.Param) (names []string, values []*tensor.Tensor) {
	for _, p := range params {
		names = append(names, p.Name)
		values = append(values, p.Value)
	}
	return names, values
}

// SaveCheckpoint writes the model parameters and config to path,
// atomically (see atomicWrite): a crash mid-save cannot destroy the
// previous checkpoint.
func SaveCheckpoint(path string, model *models.EDSR, cfg Config) error {
	st := trainState{Config: cfg.sanitized()}
	st.Names, st.Values = namesAndValues(model.Params())
	return atomicWriteGob(path, &st)
}

// LoadCheckpoint restores a model from a file written by SaveCheckpoint,
// Session.Save or TrainElastic.
func LoadCheckpoint(path string) (*models.EDSR, Config, error) {
	st, err := readState(path)
	if err != nil {
		return nil, Config{}, err
	}
	model, err := edsrFromState(st.Config, st)
	if err != nil {
		return nil, Config{}, err
	}
	return model, st.Config, nil
}
