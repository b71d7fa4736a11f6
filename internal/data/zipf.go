package data

import "math/rand"

// ZipfSampler draws item indices from a Zipf power-law distribution —
// the canonical model of redundant serving traffic, where a few hot
// images (thumbnails, logos) dominate a long tail. It drives the
// benchmark's fleet_zipf repeat traffic against the result cache; like
// the Dataset generator it is fully determined by its seed, so a
// recorded benchmark names everything needed to reproduce its request
// stream.
type ZipfSampler struct {
	z *rand.Zipf
}

// NewZipfSampler samples indices in [0, n) with P(k) ∝ 1/(k+1)^s.
// s must be > 1 (the standard library's Zipf domain); larger s
// concentrates more of the traffic on the hottest items. Panics on an
// invalid configuration, matching NewDataset.
func NewZipfSampler(seed uint64, s float64, n int) *ZipfSampler {
	if n < 1 || s <= 1 {
		panic("data: ZipfSampler wants n >= 1 and s > 1")
	}
	r := rand.New(rand.NewSource(int64(seed)))
	return &ZipfSampler{z: rand.NewZipf(r, s, 1, uint64(n-1))}
}

// Next draws the next index.
func (z *ZipfSampler) Next() int { return int(z.z.Uint64()) }

// Sequence draws the next m indices at once (convenience for carving a
// deterministic request stream into per-client slices).
func (z *ZipfSampler) Sequence(m int) []int {
	seq := make([]int, m)
	for i := range seq {
		seq[i] = z.Next()
	}
	return seq
}
