package nn

import (
	"testing"

	"repro/internal/tensor"
)

// TestFusedConv2dBitExact proves the compiled fused conv+bias+ReLU layer
// matches the training-path Conv2d followed by a separate ReLU bit for
// bit, across batch sizes and geometries.
func TestFusedConv2dBitExact(t *testing.T) {
	cases := []struct {
		name            string
		inC, outC, k, s int
		pad, n, h, w    int
		relu            bool
	}{
		{"edsr-body", 16, 16, 3, 1, 1, 2, 32, 32, true},
		{"head", 3, 16, 3, 1, 1, 1, 24, 24, false},
		{"srcnn-c1", 3, 64, 9, 1, 4, 1, 20, 20, true},
		{"srcnn-c3", 32, 3, 5, 1, 2, 3, 16, 16, false},
		{"batch4", 8, 8, 3, 1, 1, 4, 10, 14, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(21)
			conv := NewConv2d("c", tc.inC, tc.outC, tc.k, tc.s, tc.pad, true, rng)
			relu := NewReLU()
			x := tensor.New(tc.n, tc.inC, tc.h, tc.w)
			x.FillUniform(rng, -1, 1)

			want := conv.Forward(x)
			if tc.relu {
				want = relu.Forward(want)
			}

			fused := CompileConv2d(conv, tc.relu, PrecFloat32)
			got := fused.Forward(x)

			wd, gd := want.Data(), got.Data()
			for i := range wd {
				if wd[i] != gd[i] {
					t.Fatalf("output[%d] = %v, want %v (not bit-exact)", i, gd[i], wd[i])
				}
			}
		})
	}
}

// TestFusedConv2dZeroAlloc enforces zero steady-state heap allocations on
// the compiled forward path for both precisions. Pinned to one worker
// like every other alloc gate: tensor.ParallelWorkers spawns goroutines
// and a WaitGroup per kernel call, so zero-alloc is a one-worker property
// until ROADMAP 2a's persistent worker pool lands.
func TestFusedConv2dZeroAlloc(t *testing.T) {
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	rng := tensor.NewRNG(4)
	conv := NewConv2d("c", 16, 16, 3, 1, 1, true, rng)
	x := tensor.New(2, 16, 24, 24)
	x.FillUniform(rng, -1, 1)
	for _, prec := range []Precision{PrecFloat32, PrecInt8} {
		fused := CompileConv2d(conv, true, prec)
		fused.Forward(x) // warm up buffers
		if allocs := testing.AllocsPerRun(10, func() { fused.Forward(x) }); allocs != 0 {
			t.Fatalf("%v fused forward allocates %v times per run, want 0", prec, allocs)
		}
	}
}

// TestFusedConv2dInt8Close sanity-checks the int8 layer against float32
// at the layer level (the accuracy budget is pinned in internal/tensor).
func TestFusedConv2dInt8Close(t *testing.T) {
	rng := tensor.NewRNG(12)
	conv := NewConv2d("c", 8, 8, 3, 1, 1, true, rng)
	x := tensor.New(1, 8, 16, 16)
	x.FillUniform(rng, -1, 1)
	ref := CompileConv2d(conv, true, PrecFloat32).Forward(x)
	got := CompileConv2d(conv, true, PrecInt8).Forward(x)
	rd, gd := ref.Data(), got.Data()
	var worst float64
	for i := range rd {
		d := float64(rd[i] - gd[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	// The layer output range is O(1); quantization error should be far
	// below 10% of it.
	if worst > 0.1 {
		t.Fatalf("int8 layer diverges from float32 by %v", worst)
	}
}
