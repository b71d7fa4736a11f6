package trainer

import (
	"fmt"
	"strings"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// SRModel is any trainable super-resolution network from the model zoo.
type SRModel interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(g *tensor.Tensor) *tensor.Tensor
	Params() []*nn.Param
	NumParams() int
}

// Arch names a model-zoo architecture.
type Arch string

// Architectures available to TrainZoo; the set mirrors the paper's
// Section II background (SRCNN → SRResNet → EDSR lineage).
const (
	ArchEDSR     Arch = "edsr"
	ArchSRCNN    Arch = "srcnn"
	ArchSRResNet Arch = "srresnet"
	ArchFSRCNN   Arch = "fsrcnn"
)

// ParseArch validates an architecture name.
func ParseArch(s string) (Arch, error) {
	switch Arch(strings.ToLower(s)) {
	case ArchEDSR:
		return ArchEDSR, nil
	case ArchSRCNN:
		return ArchSRCNN, nil
	case ArchSRResNet:
		return ArchSRResNet, nil
	case ArchFSRCNN:
		return ArchFSRCNN, nil
	default:
		return "", fmt.Errorf("trainer: unknown architecture %q (have edsr, srcnn, srresnet, fsrcnn)", s)
	}
}

// ZooConfig configures a zoo training run. SRCNN ignores Blocks/Feats
// (its architecture is fixed) and operates on bicubic-upscaled input.
type ZooConfig struct {
	Arch   Arch
	Scale  int
	Blocks int
	Feats  int
	Train  Config // Steps, BatchSize, PatchSize, LR, Seed, Data
}

// Build constructs the model and its input preprocessing. EDSR and
// SRResNet learn the upscaling themselves; SRCNN refines a bicubic
// upscale, so its preprocessing blows the LR patch up first.
func (z ZooConfig) Build(rng *tensor.RNG) (SRModel, func(lr *tensor.Tensor) *tensor.Tensor, error) {
	pre := identity
	switch z.Arch {
	case ArchEDSR:
		cfg := models.EDSRConfig{NumBlocks: z.Blocks, NumFeats: z.Feats, Scale: z.Scale, ResScale: 0.1, Colors: 3}
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
		return models.NewEDSR(cfg, rng), pre, nil
	case ArchSRResNet:
		if z.Scale != 2 && z.Scale != 4 {
			return nil, nil, fmt.Errorf("trainer: SRResNet supports x2/x4, got x%d", z.Scale)
		}
		return models.NewSRResNet(3, z.Blocks, z.Feats, z.Scale, rng), pre, nil
	case ArchSRCNN:
		scale := z.Scale
		return models.NewSRCNN(3, rng), func(lr *tensor.Tensor) *tensor.Tensor {
			return models.BicubicUpscale(lr, scale)
		}, nil
	case ArchFSRCNN:
		if z.Scale < 2 || z.Scale > 4 {
			return nil, nil, fmt.Errorf("trainer: FSRCNN supports x2-x4, got x%d", z.Scale)
		}
		// Published configuration: d=56, s=12, m=4; Feats/Blocks override
		// d and m when set.
		d, m := 56, 4
		if z.Feats > 0 {
			d = z.Feats
		}
		if z.Blocks > 0 {
			m = z.Blocks
		}
		return models.NewFSRCNN(3, d, 12, m, z.Scale, rng), pre, nil
	default:
		return nil, nil, fmt.Errorf("trainer: unknown architecture %q", z.Arch)
	}
}

// identity is the input preprocessing of models that take the LR image
// as it is.
func identity(lr *tensor.Tensor) *tensor.Tensor { return lr }

// ZooResult is the outcome of one zoo training run.
type ZooResult struct {
	Arch        Arch
	Params      int
	FinalLoss   float64
	PSNR        float64
	PSNRBicubic float64
}

// TrainZoo trains one architecture on the synthetic dataset and evaluates
// PSNR against ground truth and the bicubic baseline on held-out images.
func TrainZoo(z ZooConfig, evalImages int) (ZooResult, error) {
	cfg := z.Train
	if cfg.Steps < 1 {
		return ZooResult{}, fmt.Errorf("trainer: invalid config: steps=%d", cfg.Steps)
	}
	cfg.Model.Scale = z.Scale // what the loader and the evaluation read
	model, pre, err := z.Build(tensor.NewRNG(cfg.Seed))
	if err != nil {
		return ZooResult{}, err
	}
	s, err := newSession(cfg, model, pre, nil, 0, nil)
	if err != nil {
		return ZooResult{}, err
	}
	last, err := s.RunSteps(cfg.Steps)
	if err != nil {
		return ZooResult{}, err
	}
	res := ZooResult{Arch: z.Arch, Params: model.NumParams(), FinalLoss: last}
	if evalImages > 0 {
		pm, pb := heldOutPSNR(model, pre, cfg, evalImages, 0, 1)
		res.PSNR = pm / float64(evalImages)
		res.PSNRBicubic = pb / float64(evalImages)
	}
	return res, nil
}
