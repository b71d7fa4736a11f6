package serve

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// LoadEDSRCheckpoint loads trained EDSR weights from disk and returns a
// Factory serving them. The trainer has one state format: the full
// training state written by trainer.Session.Save and by every
// trainer.TrainElastic checkpoint, of which trainer.SaveCheckpoint writes
// the weights-only subset. trainer.LoadCheckpoint reads any of them and
// uses Config/Names/Values only.
func LoadEDSRCheckpoint(path string) (Factory, models.EDSRConfig, error) {
	m, cfg, err := trainer.LoadCheckpoint(path)
	if err != nil {
		return nil, models.EDSRConfig{}, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	return EDSRFactory(m), cfg.Model, nil
}

// LoadEDSRMaster loads trained EDSR weights and returns the master model
// itself, for callers that build variant factories (and the float32 gate
// reference) from one weight set.
func LoadEDSRMaster(path string) (*models.EDSR, models.EDSRConfig, error) {
	m, cfg, err := trainer.LoadCheckpoint(path)
	if err != nil {
		return nil, models.EDSRConfig{}, fmt.Errorf("serve: loading %s: %w", path, err)
	}
	return m, cfg.Model, nil
}

// BuiltinFactory returns a Factory for the named built-in model —
// fresh-weight demo networks and the bicubic baseline, so the server can
// run without a checkpoint:
//
//	bicubic    classical baseline, scale 2
//	edsr-tiny  EDSRTiny with seeded random weights
//	srcnn      SRCNN with seeded random weights, scale 2
func BuiltinFactory(name string) (Factory, error) {
	switch name {
	case "bicubic":
		return BicubicFactory(2, 3), nil
	case "edsr-tiny":
		master := models.NewEDSR(models.EDSRTiny(), tensor.NewRNG(1))
		return EDSRFactory(master), nil
	case "srcnn":
		master := models.NewSRCNN(3, tensor.NewRNG(1))
		return SRCNNFactory(master, 2, 3), nil
	default:
		return nil, fmt.Errorf("serve: unknown built-in model %q (have bicubic, edsr-tiny, srcnn)", name)
	}
}

// BuiltinVariantFactory returns the candidate Factory serving the named
// built-in under variant, plus the float32 reference Factory over the
// same weights for the golden-set gate (nil when the candidate is the
// reference). bicubic has no network to compile and rejects compiled
// variants.
func BuiltinVariantFactory(name, variant string) (cand, ref Factory, err error) {
	if variant == "" || variant == VariantFloat32 {
		cand, err = BuiltinFactory(name)
		return cand, nil, err
	}
	switch name {
	case "bicubic":
		return nil, nil, fmt.Errorf("serve: bicubic has no %s variant (classical baseline)", variant)
	case "edsr-tiny":
		master := models.NewEDSR(models.EDSRTiny(), tensor.NewRNG(1))
		return CompiledEDSRFactory(master, variant), EDSRFactory(master), nil
	case "srcnn":
		master := models.NewSRCNN(3, tensor.NewRNG(1))
		return CompiledSRCNNFactory(master, 2, 3, variant), SRCNNFactory(master, 2, 3), nil
	default:
		return nil, nil, fmt.Errorf("serve: unknown built-in model %q (have bicubic, edsr-tiny, srcnn)", name)
	}
}
