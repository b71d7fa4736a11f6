// Package serve is the inference half of the system: a dynamic
// micro-batching engine and HTTP front end that turn the training
// stack's models into a super-resolution service.
//
// The pieces compose bottom-up:
//
//   - Model adapts the zoo networks (EDSR, SRCNN, bicubic) to a uniform
//     inference interface that also reports the upscale factor and the
//     receptive-field halo the tiler needs.
//   - SplitTiles/TiledForward bound memory: an arbitrarily large image
//     is cut into overlapping halo tiles, each forwarded independently,
//     and the seam-free cores are stitched back together. With a halo at
//     least the model's receptive-field radius the stitched result
//     equals the whole-image forward (property-tested in tile_test.go).
//   - Batcher coalesces concurrent requests into batches,
//     Horovod-cycle style: the first request opens a batch, and the
//     worker waits up to MaxDelay for same-shaped followers before
//     running one batched forward. The convolution kernels parallelize
//     over the batch dimension, so a coalesced batch uses the cores a
//     single request would leave idle.
//   - Engine ties a model Registry to per-model batchers, routes large
//     images through the tiler (tiles re-enter the batcher, so tiles
//     from different requests share batches), and records each
//     request's stages into its request trace (trace/request) beside
//     the sr_* Prometheus instruments.
//   - Server is the HTTP layer: POST a PNG, get the upscaled PNG back,
//     with backpressure (bounded queue → 429) and graceful drain.
package serve

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/tensor"
)

// Model is a super-resolution network ready for inference. Forward maps
// an LR batch (N, C, h, w) to an SR batch (N, C, h*Scale, w*Scale); like
// the nn layers, the returned tensor is owned by the model and reused by
// the next call, so callers copy out what they keep. A Model is not safe
// for concurrent Forwards — the batcher gives each worker its own
// replica (see Factory).
type Model interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Scale is the integer upscale factor.
	Scale() int
	// Halo is the LR-pixel context each tile side needs so that a tiled
	// forward is seam-free: at least the model's receptive-field radius
	// at LR resolution (plus the resampling support for models that
	// pre-upscale).
	Halo() int
	// Colors is the expected input channel count.
	Colors() int
}

// Factory builds one independent Model replica. The batcher calls it
// once per worker; replicas must produce bit-identical outputs (same
// weights), which the constructors below guarantee by copying parameters
// from a single master.
type Factory func() Model

// EDSRModel adapts models.EDSR to the serving interface.
type EDSRModel struct {
	M *models.EDSR
}

// Forward runs the network.
func (e *EDSRModel) Forward(x *tensor.Tensor) *tensor.Tensor { return e.M.Forward(x) }

// Scale returns the configured upscale factor.
func (e *EDSRModel) Scale() int { return e.M.Config.Scale }

// Colors returns the configured channel count.
func (e *EDSRModel) Colors() int { return e.M.Config.Colors }

// Halo returns the receptive-field radius in LR pixels. Every EDSR conv
// is 3×3 (radius 1): head + 2 per residual block + body-end + the
// upsampler convs. The tail convs at ≥LR resolution contribute at most 1
// LR pixel each; 2*B+5 covers every supported scale with a pixel to
// spare.
func (e *EDSRModel) Halo() int { return 2*e.M.Config.NumBlocks + 5 }

// NewEDSRModel wraps master directly (no copy): use when the caller owns
// the model and serves with a single worker.
func NewEDSRModel(m *models.EDSR) *EDSRModel { return &EDSRModel{M: m} }

// EDSRFactory returns a Factory producing independent replicas of
// master: same architecture, parameters copied, private scratch and
// activation buffers.
func EDSRFactory(master *models.EDSR) Factory {
	cfg := master.Config
	src := master.Params()
	return func() Model {
		m := models.NewEDSR(cfg, tensor.NewRNG(1))
		dst := m.Params()
		for i, p := range dst {
			p.Value.CopyFrom(src[i].Value)
		}
		return &EDSRModel{M: m}
	}
}

// SRCNNModel adapts models.SRCNN: the network refines a bicubic
// upscale, so Forward performs the pre-upsampling itself.
type SRCNNModel struct {
	M     *models.SRCNN
	scale int
	c     int
}

// Forward bicubic-upscales the LR batch and refines it with the network.
func (s *SRCNNModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	return s.M.Forward(models.BicubicUpscale(x, s.scale))
}

// Scale returns the upscale factor.
func (s *SRCNNModel) Scale() int { return s.scale }

// Colors returns the input channel count.
func (s *SRCNNModel) Colors() int { return s.c }

// Halo returns the LR context per tile side: the 9-1-5 conv stack has an
// HR receptive radius of 6 pixels (= ceil(6/scale) LR), and the bicubic
// resampler's 4-tap kernel reaches 2 LR pixels past each output pixel's
// projection, so tile-local edge clamping never contaminates the core.
func (s *SRCNNModel) Halo() int { return 2 + (6+s.scale-1)/s.scale }

// SRCNNFactory returns a Factory producing parameter-identical SRCNN
// replicas at the given scale.
func SRCNNFactory(master *models.SRCNN, scale, colors int) Factory {
	src := master.Params()
	return func() Model {
		m := models.NewSRCNN(colors, tensor.NewRNG(1))
		for i, p := range m.Params() {
			p.Value.CopyFrom(src[i].Value)
		}
		return &SRCNNModel{M: m, scale: scale, c: colors}
	}
}

// BicubicModel is the classical baseline as a servable model: stateless,
// so tiling it mostly exercises the tiler itself.
type BicubicModel struct {
	S int
	C int
}

// Forward bicubic-upscales the batch.
func (b *BicubicModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	return models.BicubicUpscale(x, b.S)
}

// Scale returns the upscale factor.
func (b *BicubicModel) Scale() int { return b.S }

// Colors returns the input channel count.
func (b *BicubicModel) Colors() int { return b.C }

// Halo returns the 4-tap resampling support (2 LR pixels per side).
func (b *BicubicModel) Halo() int { return 2 }

// BicubicFactory returns a Factory for the bicubic baseline.
func BicubicFactory(scale, colors int) Factory {
	return func() Model { return &BicubicModel{S: scale, C: colors} }
}

// checkInput validates a request tensor against the model contract.
func checkInput(x *tensor.Tensor, colors int) error {
	if x.Rank() != 4 || x.Dim(0) != 1 {
		return fmt.Errorf("serve: want a single image (1,C,H,W), got %v", x.Shape())
	}
	if x.Dim(1) != colors {
		return fmt.Errorf("serve: model wants %d channels, image has %d", colors, x.Dim(1))
	}
	return nil
}
