package data

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/tensor"
)

// Batch is one training step's worth of LR inputs and HR targets:
// LR (B, C, p, p) and HR (B, C, p*scale, p*scale). A Batch returned by
// Loader.Next is valid only until the next call: the loader refills the
// same tensors and index slice.
type Batch struct {
	LR, HR *tensor.Tensor
	// Indices records which dataset images the patches came from.
	Indices []int
}

// LoaderConfig controls patch sampling and sharding.
type LoaderConfig struct {
	// BatchSize is patches per step per rank (the paper chose 4).
	BatchSize int
	// PatchSize is the LR patch edge in pixels (EDSR trains on 48-96 px
	// HR patches; tests use smaller).
	PatchSize int
	// Scale is the SR factor.
	Scale int
	// Rank and WorldSize shard the dataset: rank r samples only images
	// with index ≡ r (mod WorldSize), the standard Horovod sharding.
	Rank, WorldSize int
	// Seed controls the patch sampling stream. Combined with Rank so each
	// rank draws different patches.
	Seed uint64
}

// Loader draws random LR/HR patch batches from a dataset shard.
type Loader struct {
	ds    *Dataset
	cfg   LoaderConfig
	rng   *tensor.RNG
	shard []int

	// Buffers every Next reuses: the batch it returns, and the HR image
	// each patch is cut from with the scratch that renders it.
	batch  Batch
	hr     *tensor.Tensor
	canvas canvas
}

// NewLoader builds a loader over ds for one rank of a data-parallel job.
func NewLoader(ds *Dataset, cfg LoaderConfig) (*Loader, error) {
	if cfg.BatchSize < 1 || cfg.PatchSize < 1 || cfg.Scale < 1 {
		return nil, fmt.Errorf("data: invalid loader config %+v", cfg)
	}
	if cfg.WorldSize < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.WorldSize {
		return nil, fmt.Errorf("data: invalid rank %d of %d", cfg.Rank, cfg.WorldSize)
	}
	dc := ds.Config()
	if dc.Height%cfg.Scale != 0 || dc.Width%cfg.Scale != 0 {
		return nil, fmt.Errorf("data: HR size %dx%d not divisible by scale %d", dc.Height, dc.Width, cfg.Scale)
	}
	if cfg.PatchSize > dc.Height/cfg.Scale || cfg.PatchSize > dc.Width/cfg.Scale {
		return nil, fmt.Errorf("data: patch %d exceeds LR image %dx%d",
			cfg.PatchSize, dc.Height/cfg.Scale, dc.Width/cfg.Scale)
	}
	var shard []int
	for i := cfg.Rank; i < ds.Len(); i += cfg.WorldSize {
		shard = append(shard, i)
	}
	if len(shard) == 0 {
		return nil, fmt.Errorf("data: rank %d has an empty shard (dataset %d images, world %d)",
			cfg.Rank, ds.Len(), cfg.WorldSize)
	}
	p, s := cfg.PatchSize, cfg.Scale
	return &Loader{
		ds:    ds,
		cfg:   cfg,
		rng:   tensor.NewRNG(cfg.Seed*2654435761 + uint64(cfg.Rank)*40503 + 17),
		shard: shard,
		batch: Batch{
			LR:      tensor.New(cfg.BatchSize, dc.Channels, p, p),
			HR:      tensor.New(cfg.BatchSize, dc.Channels, p*s, p*s),
			Indices: make([]int, cfg.BatchSize),
		},
		hr: tensor.New(1, dc.Channels, dc.Height, dc.Width),
	}, nil
}

// ShardSize returns the number of images in this rank's shard.
func (l *Loader) ShardSize() int { return len(l.shard) }

// RNGState exposes the sampling stream's state for checkpointing.
func (l *Loader) RNGState() uint64 { return l.rng.State() }

// SetRNGState restores a sampling stream captured with RNGState, so a
// resumed training run draws exactly the batches the original would have.
func (l *Loader) SetRNGState(s uint64) { l.rng.SetState(s) }

// ShardIndices returns a copy of the image indices this rank samples from.
func (l *Loader) ShardIndices() []int { return append([]int(nil), l.shard...) }

// Next samples the next training batch into the loader's own buffers;
// the returned Batch is valid only until the next call.
func (l *Loader) Next() Batch {
	p, s := l.cfg.PatchSize, l.cfg.Scale
	for b := range l.batch.Indices {
		img := l.shard[l.rng.Intn(len(l.shard))]
		l.batch.Indices[b] = img
		l.ds.render(img, l.hr.Data(), &l.canvas)
		lr := models.BicubicDownscale(l.hr, s)
		py := l.rng.Intn(lr.Dim(2) - p + 1)
		px := l.rng.Intn(lr.Dim(3) - p + 1)
		copyPatch(l.batch.LR, b, lr, py, px, p)
		copyPatch(l.batch.HR, b, l.hr, py*s, px*s, p*s)
	}
	return l.batch
}

// copyPatch copies a p×p window at (py, px) from src (1,C,H,W) into batch
// slot b of dst (B,C,p,p).
func copyPatch(dst *tensor.Tensor, b int, src *tensor.Tensor, py, px, p int) {
	c, h, w := src.Dim(1), src.Dim(2), src.Dim(3)
	_ = h
	dd, sd := dst.Data(), src.Data()
	for ch := 0; ch < c; ch++ {
		for y := 0; y < p; y++ {
			srcOff := (ch*src.Dim(2)+py+y)*w + px
			dstOff := ((b*c+ch)*p + y) * p
			copy(dd[dstOff:dstOff+p], sd[srcOff:srcOff+p])
		}
	}
}
