// Package experiments regenerates every table and figure in the paper's
// evaluation: each Fig*/Table* function runs the corresponding experiment
// on the simulated cluster (and the perfmodel for single-GPU figures) and
// formats the result next to the paper's reported values so the shapes
// can be compared directly. cmd/figures and the benchmark harness are
// thin wrappers around this package.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/collective"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/scaling"
	"repro/internal/trace"
)

// Options trades fidelity for runtime: the full configuration matches the
// paper's runs; Quick uses fewer steps and scales for tests/benchmarks.
type Options struct {
	// Steps per simulated run (paper profiles use 100).
	Steps int
	// ProfileSteps for the Fig. 14 / Table I runs.
	ProfileSteps int
	// NodeCounts for the scaling sweeps.
	NodeCounts []int
}

// Full mirrors the paper's experiment sizes.
func Full() Options {
	return Options{Steps: 10, ProfileSteps: 100, NodeCounts: scaling.PaperNodeCounts()}
}

// Quick is a reduced configuration for tests and iterative work.
func Quick() Options {
	return Options{Steps: 5, ProfileSteps: 20, NodeCounts: []int{1, 4, 16, 64, 128}}
}

func (o Options) withDefaults() Options {
	if o.Steps == 0 {
		o.Steps = 10
	}
	if o.ProfileSteps == 0 {
		o.ProfileSteps = 100
	}
	if len(o.NodeCounts) == 0 {
		o.NodeCounts = scaling.PaperNodeCounts()
	}
	return o
}

// Fig1 is the single-GPU throughput contrast between an image
// classification model (ResNet-50) and a super-resolution model (EDSR).
type Fig1 struct {
	ResNet50ImgPerSec float64
	EDSRImgPerSec     float64
	Ratio             float64
}

// RunFig1 evaluates the calibrated single-V100 model.
func RunFig1() Fig1 {
	edsr, _ := perfmodel.EDSRThroughput(perfmodel.EDSRBatchSize)
	rn := perfmodel.ResNet50Throughput(64)
	return Fig1{ResNet50ImgPerSec: rn, EDSRImgPerSec: edsr, Ratio: rn / edsr}
}

// Format renders the figure with the paper's reference values.
func (f Fig1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — Single-V100 training throughput (images/sec)\n")
	fmt.Fprintf(&b, "%-22s %10s %10s\n", "Model", "Measured", "Paper")
	fmt.Fprintf(&b, "%-22s %10.1f %10.1f\n", "ResNet-50 (batch 64)", f.ResNet50ImgPerSec, perfmodel.ResNet50ImagesPerSecV100)
	fmt.Fprintf(&b, "%-22s %10.1f %10.1f\n", "EDSR (batch 4)", f.EDSRImgPerSec, perfmodel.EDSRImagesPerSecV100)
	fmt.Fprintf(&b, "ResNet-50/EDSR ratio: %.1fx (paper: ~35x)\n", f.Ratio)
	return b.String()
}

// Fig9Point is one batch-size measurement.
type Fig9Point struct {
	Batch     int
	ImgPerSec float64
	Fits      bool
}

// RunFig9 sweeps the single-GPU batch size (the paper selected 4).
func RunFig9() []Fig9Point {
	var pts []Fig9Point
	for _, b := range []int{1, 2, 4, 8, 16} {
		tp, fits := perfmodel.EDSRThroughput(b)
		pts = append(pts, Fig9Point{Batch: b, ImgPerSec: tp, Fits: fits})
	}
	return pts
}

// FormatFig9 renders the sweep.
func FormatFig9(pts []Fig9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — Single-GPU batch-size evaluation (EDSR, V100 16 GB)\n")
	fmt.Fprintf(&b, "%-8s %12s %10s\n", "Batch", "img/s", "Fits 16GB")
	for _, p := range pts {
		fit := "yes"
		if !p.Fits {
			fit = "OOM"
		}
		fmt.Fprintf(&b, "%-8d %12.2f %10s\n", p.Batch, p.ImgPerSec, fit)
	}
	fmt.Fprintf(&b, "Paper's choice: batch 4 (10.3 img/s) — balances throughput and convergence.\n")
	return b.String()
}

// ScalingCurve is one backend's throughput/efficiency across scales.
type ScalingCurve struct {
	Backend collective.Backend
	Points  []scaling.Result
}

// Efficiencies returns the per-point scaling efficiencies.
func (c ScalingCurve) Efficiencies() []float64 {
	base := scaling.SingleGPUBaseline(0)
	out := make([]float64, len(c.Points))
	for i, r := range c.Points {
		out[i] = scaling.Efficiency(r, base)
	}
	return out
}

// RunScaling sweeps one backend over the node counts.
func RunScaling(b collective.Backend, opt Options) ScalingCurve {
	opt = opt.withDefaults()
	return ScalingCurve{Backend: b, Points: scaling.Sweep(b, opt.NodeCounts, opt.Steps, nil)}
}

// Fig10 is the default-configuration scaling comparison: MPI vs NCCL.
type Fig10 struct {
	MPI, NCCL ScalingCurve
}

// RunFig10 runs the default scaling study.
func RunFig10(opt Options) Fig10 {
	return Fig10{MPI: RunScaling(collective.BackendMPI, opt), NCCL: RunScaling(collective.BackendNCCL, opt)}
}

// Format renders Fig. 10.
func (f Fig10) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — Default distributed EDSR training throughput (images/sec)\n")
	formatCurves(&b, []ScalingCurve{f.MPI, f.NCCL})
	fmt.Fprintf(&b, "Paper: default MPI throughput degrades at scale; NCCL holds up (IPC unaffected).\n")
	return b.String()
}

// Fig11 is the registration-cache study: MPI vs MPI-Reg.
type Fig11 struct {
	MPI, MPIReg    ScalingCurve
	AvgImprovement float64 // fraction, paper: 0.051
	HitRate        float64 // paper: 0.93
}

// RunFig11 runs the registration-cache comparison.
func RunFig11(opt Options) Fig11 {
	f := Fig11{
		MPI:    RunScaling(collective.BackendMPI, opt),
		MPIReg: RunScaling(collective.BackendMPIReg, opt),
	}
	var sum float64
	var n int
	var hits, misses int64
	for i := range f.MPI.Points {
		if f.MPI.Points[i].ImagesPerSec > 0 {
			sum += f.MPIReg.Points[i].ImagesPerSec/f.MPI.Points[i].ImagesPerSec - 1
			n++
		}
		hits += f.MPIReg.Points[i].RegCacheHits
		misses += f.MPIReg.Points[i].RegCacheMiss
	}
	if n > 0 {
		f.AvgImprovement = sum / float64(n)
	}
	if hits+misses > 0 {
		f.HitRate = float64(hits) / float64(hits+misses)
	}
	return f
}

// Format renders Fig. 11.
func (f Fig11) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 — EDSR throughput with the registration cache (MPI vs MPI-Reg)\n")
	formatCurves(&b, []ScalingCurve{f.MPI, f.MPIReg})
	fmt.Fprintf(&b, "Average improvement: %.1f%% (paper: 5.1%%)   cache hit rate: %.0f%% (paper: 93%%)\n",
		100*f.AvgImprovement, 100*f.HitRate)
	return b.String()
}

// Fig12 is the optimized-throughput comparison: MPI vs MPI-Opt vs NCCL.
type Fig12 struct {
	MPI, MPIOpt, NCCL ScalingCurve
	// SpeedupAtMax is MPI-Opt/MPI at the largest scale (paper: 1.26x).
	SpeedupAtMax float64
}

// RunFig12 runs the optimized scaling study.
func RunFig12(opt Options) Fig12 {
	f := Fig12{
		MPI:    RunScaling(collective.BackendMPI, opt),
		MPIOpt: RunScaling(collective.BackendMPIOpt, opt),
		NCCL:   RunScaling(collective.BackendNCCL, opt),
	}
	last := len(f.MPI.Points) - 1
	f.SpeedupAtMax = metrics.Speedup(f.MPIOpt.Points[last].ImagesPerSec, f.MPI.Points[last].ImagesPerSec)
	return f
}

// Format renders Fig. 12.
func (f Fig12) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 — Optimized distributed EDSR training throughput (images/sec)\n")
	formatCurves(&b, []ScalingCurve{f.MPI, f.MPIOpt, f.NCCL})
	fmt.Fprintf(&b, "MPI-Opt speedup over MPI at max scale: %.2fx (paper: 1.26x / +26%% throughput)\n", f.SpeedupAtMax)
	return b.String()
}

// Fig13 is the scaling-efficiency view of all four backends.
type Fig13 struct {
	Curves []ScalingCurve
	// EffGainAtMax is MPI-Opt minus MPI efficiency at the largest scale
	// in points (paper: 15.6).
	EffGainAtMax float64
}

// RunFig13 runs the efficiency study.
func RunFig13(opt Options) Fig13 {
	f := Fig13{Curves: []ScalingCurve{
		RunScaling(collective.BackendMPI, opt),
		RunScaling(collective.BackendMPIReg, opt),
		RunScaling(collective.BackendMPIOpt, opt),
		RunScaling(collective.BackendNCCL, opt),
	}}
	mpiEff := f.Curves[0].Efficiencies()
	optEff := f.Curves[2].Efficiencies()
	last := len(mpiEff) - 1
	f.EffGainAtMax = (optEff[last] - mpiEff[last]) * 100
	return f
}

// Format renders Fig. 13.
func (f Fig13) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 — EDSR scaling efficiency (%% of perfect linear scaling)\n")
	fmt.Fprintf(&b, "%-8s", "GPUs")
	for _, c := range f.Curves {
		fmt.Fprintf(&b, " %9s", c.Backend)
	}
	fmt.Fprintf(&b, "\n")
	for i := range f.Curves[0].Points {
		fmt.Fprintf(&b, "%-8d", f.Curves[0].Points[i].GPUs)
		for _, c := range f.Curves {
			fmt.Fprintf(&b, " %8.1f%%", 100*c.Efficiencies()[i])
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "Efficiency gain (MPI-Opt − MPI) at max scale: %.1f points (paper: 15.6)\n", f.EffGainAtMax)
	fmt.Fprintf(&b, "Paper: default drops below 60%%; MPI-Opt stays above 70%% at 512 GPUs.\n")
	return b.String()
}

// Fig14 is the hvprof allreduce profile of 100 training steps on 4 GPUs.
type Fig14 struct {
	Default, Optimized trace.Report
}

// RunFig14 profiles default and optimized runs: each is traced, and the
// bucket tables are the hvprof report over its timeline.
func RunFig14(opt Options) Fig14 {
	opt = opt.withDefaults()
	run := func(b collective.Backend) trace.Report {
		s := trace.NewSession(0)
		scaling.Run(scaling.Options{Nodes: 1, Backend: b, Steps: opt.ProfileSteps, Trace: s.Recorder(0)})
		return s.Timeline().HvprofReport()
	}
	return Fig14{Default: run(collective.BackendMPI), Optimized: run(collective.BackendMPIOpt)}
}

// Format renders Fig. 14.
func (f Fig14) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14 — hvprof allreduce profile, EDSR on 4 GPUs\n\n-- default MPI --\n%s\n-- MPI-Opt --\n%s",
		f.Default.String(), f.Optimized.String())
	return b.String()
}

// TableI compares allreduce time by message-size bucket.
type TableI struct {
	Rows []trace.CompareRow
}

// PaperTableI holds the published numbers for side-by-side rendering.
var PaperTableI = map[string][3]float64{ // bucket → default ms, opt ms, improvement %
	"1-128 KB":       {392.0, 391.2, 0},
	"128 KB - 16 MB": {320.7, 342.4, 0},
	"16 MB - 32 MB":  {1321.6, 619.6, 53.1},
	"32 MB - 64 MB":  {5145.6, 2587.2, 49.7},
	"Total Time":     {7179.9, 3918.5, 45.4},
}

// RunTableI derives Table I from the Fig. 14 profiles.
func RunTableI(opt Options) TableI {
	f := RunFig14(opt)
	return TableI{Rows: trace.Compare(f.Default, f.Optimized, "allreduce")}
}

// TotalImprovement returns the bottom-line improvement percentage.
func (t TableI) TotalImprovement() float64 {
	for _, r := range t.Rows {
		if r.Bucket == "Total Time" {
			return r.ImprovementPercent
		}
	}
	return 0
}

// Format renders Table I with the paper's numbers alongside.
func (t TableI) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Allreduce time by message size, default vs optimized\n")
	fmt.Fprintf(&b, "%-16s %22s %22s %18s\n", "", "Measured (ms)", "Paper (ms)", "Improvement %")
	fmt.Fprintf(&b, "%-16s %10s %11s %10s %11s %8s %9s\n",
		"Message Size", "Default", "Opt", "Default", "Opt", "Ours", "Paper")
	for _, r := range t.Rows {
		paper, ok := PaperTableI[r.Bucket]
		pd, po, pi := "-", "-", "-"
		if ok {
			pd = fmt.Sprintf("%.1f", paper[0])
			po = fmt.Sprintf("%.1f", paper[1])
			if paper[2] == 0 {
				pi = "~0"
			} else {
				pi = fmt.Sprintf("%.1f", paper[2])
			}
		}
		ours := fmt.Sprintf("%.1f", r.ImprovementPercent)
		if r.ImprovementPercent < 2 && r.ImprovementPercent > -2 {
			ours = "~0"
		}
		fmt.Fprintf(&b, "%-16s %10.1f %11.1f %10s %11s %8s %9s\n",
			r.Bucket, r.DefaultMs, r.OptMs, pd, po, ours, pi)
	}
	return b.String()
}

func formatCurves(b *strings.Builder, curves []ScalingCurve) {
	fmt.Fprintf(b, "%-8s", "GPUs")
	for _, c := range curves {
		fmt.Fprintf(b, " %11s", c.Backend)
	}
	fmt.Fprintf(b, "\n")
	for i := range curves[0].Points {
		fmt.Fprintf(b, "%-8d", curves[0].Points[i].GPUs)
		for _, c := range curves {
			fmt.Fprintf(b, " %11.1f", c.Points[i].ImagesPerSec)
		}
		fmt.Fprintf(b, "\n")
	}
}
