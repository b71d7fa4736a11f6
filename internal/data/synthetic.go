// Package data provides the training data pipeline: a procedural DIV2K-like
// dataset (the paper trains on DIV2K, which is not redistributable here),
// bicubic LR/HR pair generation, patch sampling, batching, and the
// deterministic per-rank sharding that data-parallel training requires.
package data

import (
	"math"

	"repro/internal/models"
	"repro/internal/tensor"
)

// SyntheticConfig controls the procedural image generator. An image costs
// O(C·H·W) multiply-adds plus O(C·H + W) sines: its waves are rendered
// separably (see Dataset.render), so rendering on the fly, image by image,
// needs no cache however large the dataset.
type SyntheticConfig struct {
	// Images is the dataset size (DIV2K train = 800).
	Images int
	// Height, Width are HR dimensions. DIV2K is ~2040×1356; tests use far
	// smaller sizes. Both must be divisible by the SR scale.
	Height, Width int
	// Channels is 3 for RGB.
	Channels int
	// Seed makes the whole dataset reproducible.
	Seed uint64
}

// DefaultSynthetic mirrors DIV2K's 800-image training split at a reduced
// resolution suitable for CPU training.
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{Images: 800, Height: 96, Width: 96, Channels: 3, Seed: 1}
}

// Dataset is an indexable HR image collection. Images are generated on
// demand and deterministically from (seed, index), so all ranks of a
// distributed job see identical data without sharing memory. Each pixel
// is defined by a per-pixel expression (scene.pixel); the renderer
// evaluates it separably and recomputes per pixel only where the two
// could round to different float32 values, within a stated bound ε, so
// its output is bit-identical to the definition.
type Dataset struct {
	cfg SyntheticConfig
}

// NewDataset creates a procedural dataset.
func NewDataset(cfg SyntheticConfig) *Dataset {
	if cfg.Images < 1 || cfg.Height < 8 || cfg.Width < 8 || cfg.Channels < 1 {
		panic("data: invalid synthetic config")
	}
	return &Dataset{cfg: cfg}
}

// Len returns the number of images.
func (d *Dataset) Len() int { return d.cfg.Images }

// Config returns the generator configuration.
func (d *Dataset) Config() SyntheticConfig { return d.cfg }

// HR generates HR image i with shape (1, C, H, W) and values in [0, 1].
//
// Each image combines a smooth low-frequency gradient field, band-limited
// sinusoidal texture, and a few soft-edged shapes — enough structure that
// bicubic downsampling destroys recoverable detail, which is what gives a
// super-resolution model something to learn.
func (d *Dataset) HR(i int) *tensor.Tensor {
	img := tensor.New(1, d.cfg.Channels, d.cfg.Height, d.cfg.Width)
	d.render(i, img.Data(), new(canvas))
	return img
}

// numWaves and numBlobs fix how many sinusoids and discs an image draws.
const (
	numWaves = 6
	numBlobs = 5
)

type wave struct{ fx, fy, phase, amp float64 }

type blob struct {
	cx, cy, r, amp float64
	ch             int
}

// add returns v plus the blob's contribution at (fx, fy): a soft-edged
// disc with a smoothstep falloff over 10% of r, zero wherever
// |fx−cx| > r or |fy−cy| > r.
func (bl *blob) add(v, fx, fy float64) float64 {
	dx, dy := fx-bl.cx, fy-bl.cy
	dist := math.Sqrt(dx*dx + dy*dy)
	edge := (bl.r - dist) / (0.1 * bl.r)
	if edge > 0 {
		if edge > 1 {
			edge = 1
		}
		v += bl.amp * edge * edge * (3 - 2*edge)
	}
	return v
}

// scene is one image's random parameters, drawn from its seed in a fixed
// order; the order is part of the dataset's definition.
type scene struct {
	waves              [numWaves]wave
	blobs              [numBlobs]blob
	base, gradX, gradY []float64
}

func (sc *scene) draw(seed uint64, c int) {
	rng := tensor.NewRNG(seed)
	// Low-frequency structure plus band-limited high-frequency texture:
	// the high band is what bicubic downsampling destroys, giving a
	// trained model the opportunity to beat the classical baseline.
	for k := range sc.waves {
		lo, span := 1.0, 6.0
		amp := 0.08 + 0.10*rng.Float64()
		if k >= 3 {
			lo, span = 8.0, 10.0
			amp = 0.10 + 0.08*rng.Float64()
		}
		sc.waves[k] = wave{
			fx:    (rng.Float64()*span + lo) * 2 * math.Pi,
			fy:    (rng.Float64()*span + lo) * 2 * math.Pi,
			phase: rng.Float64() * 2 * math.Pi,
			amp:   amp,
		}
	}
	for k := range sc.blobs {
		sc.blobs[k] = blob{
			cx: rng.Float64(), cy: rng.Float64(),
			r:   0.05 + 0.2*rng.Float64(),
			amp: 0.25 * (rng.Float64()*2 - 1),
			ch:  rng.Intn(c),
		}
	}
	sc.base, sc.gradX, sc.gradY = resize(sc.base, c), resize(sc.gradX, c), resize(sc.gradY, c)
	for ch := 0; ch < c; ch++ {
		sc.base[ch] = 0.3 + 0.4*rng.Float64()
		sc.gradX[ch] = 0.3 * (rng.Float64()*2 - 1)
		sc.gradY[ch] = 0.3 * (rng.Float64()*2 - 1)
	}
}

// pixel is the defining per-pixel expression of channel ch at (fx, fy),
// before clamping. render evaluates the same sum separably and falls
// back to pixel where the two could round to different float32 values.
func (sc *scene) pixel(ch int, fx, fy float64) float64 {
	v := sc.base[ch] + sc.gradX[ch]*fx + sc.gradY[ch]*fy
	for _, wv := range sc.waves {
		v += wv.amp * math.Sin(wv.fx*fx+wv.fy*fy+wv.phase+float64(ch)*0.7)
	}
	for k := range sc.blobs {
		if bl := &sc.blobs[k]; bl.ch == ch {
			v = bl.add(v, fx, fy)
		}
	}
	return v
}

// canvas is the scratch one render needs. A Loader keeps one across
// calls; its buffers grow to the largest image rendered.
type canvas struct {
	scene
	fx         []float64 // x/W per column
	sinA, cosA []float64 // sin, cos of wave k's column term fx·x/W at [k*W+x]
	row        []float64 // one row of one channel, before clamping
}

// render writes image i, (C, H, W) in row-major order, into dst.
//
// Every wave's argument splits into a column term a = fx·x/W and a row
// term b = fy·y/H + phase + 0.7·ch, so sin(a+b) = sin a·cos b + cos a·sin b
// costs two multiplies and two adds per pixel once the column table
// (per image) and the row values (per row and channel) are filled. Blobs
// are evaluated only inside their bounding box, where pixel would add
// anything at all.
//
// The separable sum v rounds differently from pixel's, by less than eps
// (derived below). Where float32(clamp(v−eps)) and float32(clamp(v+eps))
// agree, pixel's value rounds to that float32 too; where they differ,
// that one pixel is recomputed with pixel. The output is therefore
// bit-identical to evaluating pixel everywhere; about 0.1% of pixels
// take the fallback.
func (d *Dataset) render(i int, dst []float32, cv *canvas) {
	if i < 0 || i >= d.cfg.Images {
		panic("data: image index out of range")
	}
	c, h, w := d.cfg.Channels, d.cfg.Height, d.cfg.Width
	sc := &cv.scene
	sc.draw(d.cfg.Seed*1000003+uint64(i)*7919+13, c)
	cv.fx, cv.row = resize(cv.fx, w), resize(cv.row, w)
	cv.sinA, cv.cosA = resize(cv.sinA, numWaves*w), resize(cv.cosA, numWaves*w)
	for x := range cv.fx {
		cv.fx[x] = float64(x) / float64(w)
	}
	// argMax bounds |fx·x/W + fy·y/H + phase + 0.7·ch| over the image.
	var argMax float64
	for k, wv := range sc.waves {
		argMax = max(argMax, wv.fx+wv.fy+wv.phase+0.7*float64(c-1))
		for x, fx := range cv.fx {
			cv.sinA[k*w+x], cv.cosA[k*w+x] = math.Sincos(wv.fx * fx)
		}
	}
	// The bound, in units of u = 2⁻⁵², for M = argMax ≥ 2π:
	//  - Both paths round the products fx·x/W, fy·y/H and 0.7·ch alike.
	//    pixel then rounds three sums of magnitude ≤ M and the row term
	//    two, so the two arguments differ by ≤ 2.5·M·u as reals.
	//  - Sin, Sincos and the separable products and sum add ≤ 8·u per
	//    wave; six waves with amp ≤ 0.18 give ≤ 1.08·(2.5·M + 8)·u.
	//  - Both accumulate the same terms in the same order, |v| < 4, so the
	//    11 roundings of v differ by ≤ 22·u in all.
	// Total: ≤ (2.7·M + 31)·u < 8·M·u = M·2⁻⁴⁹. eps = M·2⁻⁴⁴ is 32 times
	// that (≈1.3e-11 for three channels).
	eps := argMax * 0x1p-44
	var sinB, cosB [numWaves]float64
	for ch := 0; ch < c; ch++ {
		plane := dst[ch*h*w : (ch+1)*h*w]
		for y := 0; y < h; y++ {
			fy := float64(y) / float64(h)
			for k, wv := range sc.waves {
				s, co := math.Sincos(wv.fy*fy + wv.phase + float64(ch)*0.7)
				sinB[k], cosB[k] = wv.amp*s, wv.amp*co
			}
			row := cv.row
			for x, fx := range cv.fx {
				row[x] = sc.base[ch] + sc.gradX[ch]*fx + sc.gradY[ch]*fy
			}
			for k := range sc.waves {
				sa, ca := cv.sinA[k*w:(k+1)*w], cv.cosA[k*w:(k+1)*w]
				sb, cb := sinB[k], cosB[k]
				for x := range row {
					row[x] += sa[x]*cb + ca[x]*sb
				}
			}
			for k := range sc.blobs {
				bl := &sc.blobs[k]
				if bl.ch != ch || math.Abs(fy-bl.cy) > bl.r {
					continue
				}
				for x, fx := range cv.fx {
					if math.Abs(fx-bl.cx) <= bl.r {
						row[x] = bl.add(row[x], fx, fy)
					}
				}
			}
			out := plane[y*w : (y+1)*w]
			for x, v := range row {
				lo, hi := clamp01(v-eps), clamp01(v+eps)
				if lo != hi {
					lo = clamp01(sc.pixel(ch, cv.fx[x], fy))
				}
				out[x] = lo
			}
		}
	}
}

// resize returns s with length n, reallocating only when it must grow.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Pair returns the (LR, HR) pair for image i at the given SR scale. The LR
// image is the bicubic downscale of HR, matching the DIV2K "bicubic"
// track the paper trains on.
func (d *Dataset) Pair(i, scale int) (lr, hr *tensor.Tensor) {
	hr = d.HR(i)
	if hr.Dim(2)%scale != 0 || hr.Dim(3)%scale != 0 {
		panic("data: HR size not divisible by scale")
	}
	lr = models.BicubicDownscale(hr, scale)
	return lr, hr
}
