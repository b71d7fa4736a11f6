// Scalingstudy: reproduce the paper's headline experiment — EDSR training
// scaled to 512 simulated V100 GPUs under the four communication
// configurations (default MPI, MPI-Reg, MPI-Opt, NCCL) — and report
// throughput, scaling efficiency, and the optimized speedup.
package main

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/scaling"
)

func main() {
	nodeCounts := []int{1, 4, 16, 64, 128} // 4 → 512 GPUs
	steps := 6

	backends := []collective.Backend{
		collective.BackendMPI,    // CUDA_VISIBLE_DEVICES pinned, IPC lost
		collective.BackendMPIReg, // MPI + InfiniBand registration cache
		collective.BackendMPIOpt, // MV2_VISIBLE_DEVICES split + cache
		collective.BackendNCCL,
	}

	base := scaling.SingleGPUBaseline(0)
	fmt.Println("Simulated Lassen: EDSR (B=32, F=256, x2), batch 4/GPU, 4 GPUs/node")
	fmt.Printf("single-GPU baseline: %.1f img/s (paper: 10.3)\n\n", base)

	curves := make([][]scaling.Result, len(backends))
	for i, b := range backends {
		curves[i] = scaling.Sweep(b, nodeCounts, steps, nil)
	}

	fmt.Printf("%-8s", "GPUs")
	for _, b := range backends {
		fmt.Printf(" %16s", b)
	}
	fmt.Println()
	for row := range curves[0] {
		fmt.Printf("%-8d", curves[0][row].GPUs)
		for i := range backends {
			r := curves[i][row]
			fmt.Printf(" %8.0f (%3.0f%%)", r.ImagesPerSec, 100*scaling.Efficiency(r, base))
		}
		fmt.Println()
	}

	last := len(nodeCounts) - 1
	def, opt := curves[0][last], curves[2][last]
	effDef, effOpt := scaling.Efficiency(def, base), scaling.Efficiency(opt, base)
	fmt.Printf("\nat %d GPUs: MPI-Opt %.0f img/s vs MPI %.0f img/s → %.2fx speedup (paper: 1.26x)\n",
		def.GPUs, opt.ImagesPerSec, def.ImagesPerSec, opt.ImagesPerSec/def.ImagesPerSec)
	fmt.Printf("efficiency: %.1f%% vs %.1f%% → +%.1f points (paper: +15.6)\n",
		100*effOpt, 100*effDef, 100*(effOpt-effDef))
}
