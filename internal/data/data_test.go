package data

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/models"
	"repro/internal/tensor"
)

func smallCfg() SyntheticConfig {
	return SyntheticConfig{Images: 16, Height: 32, Width: 32, Channels: 3, Seed: 7}
}

func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(smallCfg())
	b := NewDataset(smallCfg())
	x, y := a.HR(3), b.HR(3)
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			t.Fatal("same (seed, index) must give identical images")
		}
	}
}

func TestDatasetImagesDiffer(t *testing.T) {
	ds := NewDataset(smallCfg())
	x, y := ds.HR(0), ds.HR(1)
	same := true
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different indices should give different images")
	}
}

func TestDatasetPixelRange(t *testing.T) {
	ds := NewDataset(smallCfg())
	for i := 0; i < 4; i++ {
		img := ds.HR(i)
		if img.Min() < 0 || img.Max() > 1 {
			t.Fatalf("image %d out of [0,1]: [%g, %g]", i, img.Min(), img.Max())
		}
		// Images must have actual content, not be flat.
		if img.Max()-img.Min() < 0.1 {
			t.Fatalf("image %d nearly flat: range %g", i, img.Max()-img.Min())
		}
	}
}

func TestDatasetIndexOutOfRangePanics(t *testing.T) {
	ds := NewDataset(smallCfg())
	for _, idx := range []int{-1, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %d: expected panic", idx)
				}
			}()
			ds.HR(idx)
		}()
	}
}

func TestPairShapes(t *testing.T) {
	ds := NewDataset(smallCfg())
	lr, hr := ds.Pair(2, 2)
	if lr.Dim(2) != 16 || lr.Dim(3) != 16 {
		t.Fatalf("LR shape %v", lr.Shape())
	}
	if hr.Dim(2) != 32 || hr.Dim(3) != 32 {
		t.Fatalf("HR shape %v", hr.Shape())
	}
}

func TestLoaderValidation(t *testing.T) {
	ds := NewDataset(smallCfg())
	cases := []LoaderConfig{
		{BatchSize: 0, PatchSize: 8, Scale: 2, WorldSize: 1},
		{BatchSize: 4, PatchSize: 0, Scale: 2, WorldSize: 1},
		{BatchSize: 4, PatchSize: 8, Scale: 2, WorldSize: 0},
		{BatchSize: 4, PatchSize: 8, Scale: 2, Rank: 2, WorldSize: 2},
		{BatchSize: 4, PatchSize: 99, Scale: 2, WorldSize: 1},           // patch > LR image
		{BatchSize: 4, PatchSize: 4, Scale: 3, WorldSize: 1},            // 32 not divisible by 3
		{BatchSize: 4, PatchSize: 8, Scale: 2, Rank: 0, WorldSize: 100}, // ok: shard nonempty
	}
	for i, cfg := range cases[:6] {
		if _, err := NewLoader(ds, cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	if _, err := NewLoader(ds, cases[6]); err != nil {
		t.Errorf("rank 0 of 100 on 16 images should still work: %v", err)
	}
	// But a rank beyond the dataset size has an empty shard.
	if _, err := NewLoader(ds, LoaderConfig{BatchSize: 1, PatchSize: 8, Scale: 2, Rank: 17, WorldSize: 100}); err == nil {
		t.Error("empty shard should error")
	}
}

func TestLoaderBatchShapes(t *testing.T) {
	ds := NewDataset(smallCfg())
	l, err := NewLoader(ds, LoaderConfig{BatchSize: 4, PatchSize: 8, Scale: 2, WorldSize: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := l.Next()
	if b.LR.Dim(0) != 4 || b.LR.Dim(1) != 3 || b.LR.Dim(2) != 8 || b.LR.Dim(3) != 8 {
		t.Fatalf("LR batch %v", b.LR.Shape())
	}
	if b.HR.Dim(2) != 16 || b.HR.Dim(3) != 16 {
		t.Fatalf("HR batch %v", b.HR.Shape())
	}
	if len(b.Indices) != 4 {
		t.Fatalf("indices %v", b.Indices)
	}
}

func TestShardingPartition(t *testing.T) {
	ds := NewDataset(smallCfg())
	world := 4
	seen := map[int]int{}
	total := 0
	for r := 0; r < world; r++ {
		l, err := NewLoader(ds, LoaderConfig{BatchSize: 1, PatchSize: 8, Scale: 2, Rank: r, WorldSize: world, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range l.ShardIndices() {
			seen[idx]++
			total++
		}
	}
	if total != ds.Len() {
		t.Fatalf("shards cover %d images, want %d", total, ds.Len())
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("image %d appears in %d shards", idx, n)
		}
	}
}

// Property: for any world size and rank, shards are disjoint and complete.
func TestQuickShardingDisjointComplete(t *testing.T) {
	ds := NewDataset(smallCfg())
	f := func(worldRaw uint8) bool {
		world := int(worldRaw)%8 + 1
		seen := make(map[int]bool)
		for r := 0; r < world; r++ {
			l, err := NewLoader(ds, LoaderConfig{BatchSize: 1, PatchSize: 8, Scale: 2, Rank: r, WorldSize: world, Seed: 3})
			if err != nil {
				return false
			}
			for _, idx := range l.ShardIndices() {
				if seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == ds.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLoaderSamplesOnlyOwnShard(t *testing.T) {
	ds := NewDataset(smallCfg())
	l, err := NewLoader(ds, LoaderConfig{BatchSize: 4, PatchSize: 8, Scale: 2, Rank: 1, WorldSize: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		for _, idx := range l.Next().Indices {
			if idx%4 != 1 {
				t.Fatalf("rank 1 sampled image %d from another shard", idx)
			}
		}
	}
}

func TestLoaderPatchConsistency(t *testing.T) {
	// The LR patch must be the bicubic downscale of the HR region it pairs
	// with — verify by upscaling LR and checking rough agreement.
	ds := NewDataset(SyntheticConfig{Images: 4, Height: 32, Width: 32, Channels: 1, Seed: 2})
	l, err := NewLoader(ds, LoaderConfig{BatchSize: 2, PatchSize: 8, Scale: 2, WorldSize: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := l.Next()
	// Means of corresponding LR and HR patches should be close: bicubic
	// preserves local averages of smooth content.
	for i := 0; i < 2; i++ {
		var lrSum, hrSum float64
		lp := b.LR.Data()[i*64 : (i+1)*64]
		hp := b.HR.Data()[i*256 : (i+1)*256]
		for _, v := range lp {
			lrSum += float64(v)
		}
		for _, v := range hp {
			hrSum += float64(v)
		}
		lrMean, hrMean := lrSum/64, hrSum/256
		if d := lrMean - hrMean; d > 0.08 || d < -0.08 {
			t.Fatalf("patch %d: LR mean %g vs HR mean %g", i, lrMean, hrMean)
		}
	}
}

func TestLoaderDifferentRanksDifferentPatches(t *testing.T) {
	ds := NewDataset(smallCfg())
	mk := func(rank int) Batch {
		l, err := NewLoader(ds, LoaderConfig{BatchSize: 2, PatchSize: 8, Scale: 2, Rank: rank, WorldSize: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return l.Next()
	}
	a, b := mk(0), mk(1)
	same := true
	for i := range a.LR.Data() {
		if a.LR.Data()[i] != b.LR.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different ranks should draw different patches")
	}
}

// hrReference is the per-pixel generator HR was first written as, kept
// verbatim as the oracle the separable renderer must match bit for bit.
func hrReference(d *Dataset, i int) *tensor.Tensor {
	if i < 0 || i >= d.cfg.Images {
		panic("data: image index out of range")
	}
	c, h, w := d.cfg.Channels, d.cfg.Height, d.cfg.Width
	rng := tensor.NewRNG(d.cfg.Seed*1000003 + uint64(i)*7919 + 13)
	img := tensor.New(1, c, h, w)

	type wave struct{ fx, fy, phase, amp float64 }
	type blob struct {
		cx, cy, r, amp float64
		ch             int
	}
	// Low-frequency structure plus band-limited high-frequency texture:
	// the high band is what bicubic downsampling destroys, giving a
	// trained model the opportunity to beat the classical baseline.
	waves := make([]wave, 6)
	for k := range waves {
		lo, span := 1.0, 6.0
		amp := 0.08 + 0.10*rng.Float64()
		if k >= 3 {
			lo, span = 8.0, 10.0
			amp = 0.10 + 0.08*rng.Float64()
		}
		waves[k] = wave{
			fx:    (rng.Float64()*span + lo) * 2 * math.Pi,
			fy:    (rng.Float64()*span + lo) * 2 * math.Pi,
			phase: rng.Float64() * 2 * math.Pi,
			amp:   amp,
		}
	}
	blobs := make([]blob, 5)
	for k := range blobs {
		blobs[k] = blob{
			cx: rng.Float64(), cy: rng.Float64(),
			r:   0.05 + 0.2*rng.Float64(),
			amp: 0.25 * (rng.Float64()*2 - 1),
			ch:  rng.Intn(c),
		}
	}
	base := make([]float64, c)
	gradX := make([]float64, c)
	gradY := make([]float64, c)
	for ch := 0; ch < c; ch++ {
		base[ch] = 0.3 + 0.4*rng.Float64()
		gradX[ch] = 0.3 * (rng.Float64()*2 - 1)
		gradY[ch] = 0.3 * (rng.Float64()*2 - 1)
	}

	d1 := img.Data()
	for ch := 0; ch < c; ch++ {
		plane := d1[ch*h*w : (ch+1)*h*w]
		for y := 0; y < h; y++ {
			fy := float64(y) / float64(h)
			for x := 0; x < w; x++ {
				fx := float64(x) / float64(w)
				v := base[ch] + gradX[ch]*fx + gradY[ch]*fy
				for _, wv := range waves {
					v += wv.amp * math.Sin(wv.fx*fx+wv.fy*fy+wv.phase+float64(ch)*0.7)
				}
				for _, bl := range blobs {
					if bl.ch != ch {
						continue
					}
					dx, dy := fx-bl.cx, fy-bl.cy
					dist := math.Sqrt(dx*dx + dy*dy)
					// Soft-edged disc: smoothstep falloff over 10% of r.
					edge := (bl.r - dist) / (0.1 * bl.r)
					if edge > 0 {
						if edge > 1 {
							edge = 1
						}
						v += bl.amp * edge * edge * (3 - 2*edge)
					}
				}
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				plane[y*w+x] = float32(v)
			}
		}
	}
	return img
}

// sameBits reports the first element where a and b differ bit-wise, or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestHRMatchesReference pins the separable renderer to the per-pixel
// oracle: every float32 pixel bit-identical, across seeds, shapes and
// channel counts, including the last indices of a dataset.
func TestHRMatchesReference(t *testing.T) {
	check := func(cfg SyntheticConfig, idxs []int) {
		t.Helper()
		ds := NewDataset(cfg)
		for _, i := range idxs {
			got, want := ds.HR(i), hrReference(ds, i)
			if at := sameBits(got.Data(), want.Data()); at >= 0 {
				t.Fatalf("%+v image %d: pixel %d is %v, reference %v",
					cfg, i, at, got.Data()[at], want.Data()[at])
			}
		}
	}
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		check(SyntheticConfig{Images: 64, Height: 96, Width: 96, Channels: 3, Seed: uint64(seed)}, all)
	}
	check(SyntheticConfig{Images: 64, Height: 8, Width: 8, Channels: 3, Seed: 5}, all)
	check(SyntheticConfig{Images: 16, Height: 96, Width: 64, Channels: 3, Seed: 6}, all[:16])
	check(SyntheticConfig{Images: 8, Height: 192, Width: 192, Channels: 3, Seed: 7}, all[:8])
	check(SyntheticConfig{Images: 16, Height: 48, Width: 48, Channels: 1, Seed: 8}, all[:16])
	check(SyntheticConfig{Images: 16, Height: 48, Width: 48, Channels: 4, Seed: 9}, all[:16])
	check(SyntheticConfig{Images: 800, Height: 32, Width: 32, Channels: 3, Seed: 1}, []int{797, 798, 799})
}

// TestLoaderMatchesReference: every patch a loader cuts equals the same
// window of the oracle image and of its bicubic downscale, drawn from
// the same sampling stream — across seeds and both ranks of a 2-way
// shard, over enough steps that buffers are reused.
func TestLoaderMatchesReference(t *testing.T) {
	const p, s = 12, 2
	for _, seed := range []uint64{1, 2, 3} {
		ds := NewDataset(SyntheticConfig{Images: 10, Height: 48, Width: 40, Channels: 3, Seed: seed})
		for rank := 0; rank < 2; rank++ {
			l, err := NewLoader(ds, LoaderConfig{BatchSize: 3, PatchSize: p, Scale: s, Rank: rank, WorldSize: 2, Seed: seed + 100})
			if err != nil {
				t.Fatal(err)
			}
			shard := l.ShardIndices()
			for step := 0; step < 4; step++ {
				rng := tensor.NewRNG(1)
				rng.SetState(l.RNGState())
				b := l.Next()
				for slot, got := range b.Indices {
					img := shard[rng.Intn(len(shard))]
					if got != img {
						t.Fatalf("seed %d rank %d step %d slot %d: image %d, reference draws %d", seed, rank, step, slot, got, img)
					}
					hr := hrReference(ds, img)
					lr := models.BicubicDownscale(hr, s)
					py, px := rng.Intn(lr.Dim(2)-p+1), rng.Intn(lr.Dim(3)-p+1)
					wantLR := tensor.New(b.LR.Shape()...)
					wantHR := tensor.New(b.HR.Shape()...)
					copyPatch(wantLR, slot, lr, py, px, p)
					copyPatch(wantHR, slot, hr, py*s, px*s, p*s)
					n, m := p*p*3, p*s*p*s*3
					if at := sameBits(b.LR.Data()[slot*n:(slot+1)*n], wantLR.Data()[slot*n:(slot+1)*n]); at >= 0 {
						t.Fatalf("seed %d rank %d step %d slot %d: LR differs at %d", seed, rank, step, slot, at)
					}
					if at := sameBits(b.HR.Data()[slot*m:(slot+1)*m], wantHR.Data()[slot*m:(slot+1)*m]); at >= 0 {
						t.Fatalf("seed %d rank %d step %d slot %d: HR differs at %d", seed, rank, step, slot, at)
					}
				}
				if rng.State() != l.RNGState() {
					t.Fatalf("seed %d rank %d step %d: sampling stream diverged from the reference", seed, rank, step)
				}
			}
		}
	}
}

// TestLoaderNextAllocs pins the loader's steady state at the benchmark's
// shape (batch 4, LR patch 24, 96² images, scale 2): batch tensors,
// indices, the HR image and its render scratch are reused, so only the
// per-sample bicubic downscale allocates.
func TestLoaderNextAllocs(t *testing.T) {
	ds := NewDataset(SyntheticConfig{Images: 64, Height: 96, Width: 96, Channels: 3, Seed: 1})
	l, err := NewLoader(ds, LoaderConfig{BatchSize: 4, PatchSize: 24, Scale: 2, WorldSize: 1, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { l.Next() }); got > 48 {
		t.Fatalf("Next allocates %g times per call, want ≤ 48", got)
	}
}
