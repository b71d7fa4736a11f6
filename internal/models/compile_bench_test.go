package models

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The compiled-vs-training forward benchmarks back the per-variant
// kernel figures in EXPERIMENTS.md: run with -cpu 1 on an otherwise idle
// machine to reproduce the per-core figures.

func benchEDSRForward(b *testing.B, compile bool, prec nn.Precision) {
	rng := tensor.NewRNG(1)
	m := NewEDSR(EDSRTiny(), rng)
	x := tensor.New(1, 3, 32, 32)
	x.FillUniform(rng, 0, 1)
	var fwd func(*tensor.Tensor) *tensor.Tensor
	if compile {
		fwd = m.Compile(CompileOptions{Precision: prec}).Forward
	} else {
		fwd = m.Forward
	}
	fwd(x) // warm up the reused buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwd(x)
	}
}

func BenchmarkEDSRForwardTraining(b *testing.B) { benchEDSRForward(b, false, nn.PrecFloat32) }
func BenchmarkCompiledEDSRFloat32(b *testing.B) { benchEDSRForward(b, true, nn.PrecFloat32) }
func BenchmarkCompiledEDSRInt8(b *testing.B)    { benchEDSRForward(b, true, nn.PrecInt8) }
