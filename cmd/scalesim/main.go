// Command scalesim runs the simulated distributed-EDSR scaling study: for
// each requested backend and node count it reports throughput, scaling
// efficiency, and communication statistics — the data behind the paper's
// Figs. 10-13.
//
// Usage:
//
//	scalesim [-backends MPI,MPI-Reg,MPI-Opt,NCCL] [-nodes 1,2,4,...]
//	         [-steps N] [-cycle ms] [-fusion MB] [-profile] [-trace FILE]
//	         [-compress none|fp16|topk] [-topk-ratio N]
//
// -trace writes the first run's rank-0 timeline (virtual time) as Chrome
// trace_event JSON, the format edsr-train -trace writes for a real run,
// so the two load side by side in Perfetto.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/collective"
	"repro/internal/scaling"
	"repro/internal/trace"
)

func main() {
	backends := flag.String("backends", "MPI,MPI-Reg,MPI-Opt,NCCL", "comma-separated backends")
	nodes := flag.String("nodes", "1,2,4,8,16,32,64,128", "comma-separated node counts (4 GPUs each)")
	steps := flag.Int("steps", 10, "measured training steps per run")
	cycleMs := flag.Float64("cycle", 10, "HOROVOD_CYCLE_TIME in ms")
	fusionMB := flag.Int64("fusion", 64, "HOROVOD_FUSION_THRESHOLD in MB")
	compress := flag.String("compress", "none", "gradient compression: none, fp16, or topk")
	topkRatio := flag.Int("topk-ratio", 32, "top-k compression ratio (elements kept = n/ratio)")
	profile := flag.Bool("profile", false, "print the hvprof bucket report per run")
	traceOut := flag.String("trace", "", "write the first run's timeline as Chrome trace JSON to this file")
	csvOut := flag.String("csv", "", "also write results as CSV to this file")
	flag.Parse()

	var bs []collective.Backend
	for _, name := range strings.Split(*backends, ",") {
		b, err := parseBackend(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bs = append(bs, b)
	}
	comp, err := collective.ParseCompression(*compress)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var ns []int
	for _, s := range strings.Split(*nodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad node count %q\n", s)
			os.Exit(2)
		}
		ns = append(ns, n)
	}

	var csvFile *os.File
	if *csvOut != "" {
		var err error
		csvFile, err = os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer csvFile.Close()
		fmt.Fprintln(csvFile, "backend,gpus,images_per_sec,efficiency,step_ms,msgs_per_step,reg_hit_rate,wire_reduction")
	}

	var traceFile *os.File
	if *traceOut != "" {
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	base := scaling.SingleGPUBaseline(0)
	fmt.Printf("Simulated Lassen scaling study — EDSR (B=32, F=256, x2), batch 4/GPU\n")
	fmt.Printf("Single-GPU baseline: %.2f images/sec (paper: 10.3)\n", base)
	if comp != collective.CompressNone {
		fmt.Printf("Gradient compression: %s", comp)
		if comp == collective.CompressTopK {
			fmt.Printf(" (ratio %d)", *topkRatio)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Printf("%-8s %6s %12s %8s %10s %10s %8s %8s\n",
		"Backend", "GPUs", "img/s", "eff %", "step ms", "msgs/step", "reg-hit%", "wire-x")
	for _, b := range bs {
		for _, n := range ns {
			opt := scaling.Options{
				Nodes:                n,
				Backend:              b,
				Steps:                *steps,
				CycleTimeSec:         *cycleMs / 1000,
				FusionThresholdBytes: *fusionMB << 20,
				Compression:          comp,
				TopKRatio:            *topkRatio,
			}
			var sess *trace.Session
			if *profile || traceFile != nil {
				sess = trace.NewSession(0)
				opt.Trace = sess.Recorder(0)
			}
			r := scaling.Run(opt)
			wireX := 1.0
			if r.WireBytes > 0 {
				wireX = float64(r.FusedBytes) / float64(r.WireBytes)
			}
			fmt.Printf("%-8s %6d %12.1f %8.1f %10.1f %10.1f %8.1f %8.2f\n",
				b, r.GPUs, r.ImagesPerSec, 100*scaling.Efficiency(r, base),
				r.StepSec*1000, float64(r.Messages)/float64(*steps),
				100*r.RegCacheHitRate(), wireX)
			if csvFile != nil {
				fmt.Fprintf(csvFile, "%s,%d,%.3f,%.4f,%.3f,%.2f,%.4f,%.3f\n",
					b, r.GPUs, r.ImagesPerSec, scaling.Efficiency(r, base),
					r.StepSec*1000, float64(r.Messages)/float64(*steps), r.RegCacheHitRate(), wireX)
			}
			if *profile {
				fmt.Println(sess.Timeline().HvprofReport().String())
			}
			if traceFile != nil {
				err := sess.Timeline().WriteChromeTrace(traceFile)
				if cerr := traceFile.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				traceFile = nil // only the first run is traced
			}
		}
		fmt.Println()
	}
}

func parseBackend(name string) (collective.Backend, error) {
	switch strings.ToUpper(name) {
	case "MPI":
		return collective.BackendMPI, nil
	case "MPI-REG", "MPIREG":
		return collective.BackendMPIReg, nil
	case "MPI-OPT", "MPIOPT":
		return collective.BackendMPIOpt, nil
	case "NCCL":
		return collective.BackendNCCL, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (want MPI, MPI-Reg, MPI-Opt, or NCCL)", name)
	}
}
