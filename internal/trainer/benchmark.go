package trainer

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/tensor"
)

// BenchmarkScore is one (model, set) evaluation.
type BenchmarkScore struct {
	Set  string
	PSNR float64
	SSIM float64
	// BicubicPSNR is the classical baseline on the same set.
	BicubicPSNR float64
}

// EvaluateOnBenchmarks scores an SR model against the standard benchmark
// sets (the Set5/Set14-style evaluation every SR paper reports). pre is
// the model's input preprocessing (identity for EDSR-style models,
// bicubic upscale for SRCNN); scale the SR factor.
func EvaluateOnBenchmarks(model SRModel, pre func(*tensor.Tensor) *tensor.Tensor, scale, size int, seed uint64) []BenchmarkScore {
	if pre == nil {
		pre = identity
	}
	var scores []BenchmarkScore
	for _, set := range data.StandardBenchmarks(size, seed) {
		var psnr, ssim, bic float64
		for i := 0; i < set.Len(); i++ {
			hr := set.HR(i)
			lr := models.BicubicDownscale(hr, scale)
			sr := model.Forward(pre(lr))
			sr.Clamp(0, 1)
			up := models.BicubicUpscale(lr, scale)
			up.Clamp(0, 1)
			psnr += metrics.PSNR(sr, hr, 1)
			ssim += metrics.SSIM(sr, hr, 1)
			bic += metrics.PSNR(up, hr, 1)
		}
		n := float64(set.Len())
		scores = append(scores, BenchmarkScore{
			Set: set.Name, PSNR: psnr / n, SSIM: ssim / n, BicubicPSNR: bic / n,
		})
	}
	return scores
}

// FormatBenchmarkScores renders the standard results table.
func FormatBenchmarkScores(model string, scores []BenchmarkScore) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Benchmark evaluation — %s\n", model)
	fmt.Fprintf(&b, "%-14s %12s %10s %14s %10s\n", "Set", "PSNR (dB)", "SSIM", "bicubic (dB)", "Δ dB")
	for _, s := range scores {
		fmt.Fprintf(&b, "%-14s %12.2f %10.4f %14.2f %+10.2f\n",
			s.Set, s.PSNR, s.SSIM, s.BicubicPSNR, s.PSNR-s.BicubicPSNR)
	}
	return b.String()
}
