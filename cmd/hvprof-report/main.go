// Command hvprof-report reproduces the paper's profiling workflow
// (Section III-B): trace a simulated EDSR training job for N steps under
// the default and the optimized MPI configuration, and print the
// allreduce profile organized by message size — the paper's Fig. 14 —
// plus the default-vs-optimized comparison of Table I.
//
// Usage:
//
//	hvprof-report [-nodes 1] [-steps 100] [-compare]
//	hvprof-report -spans out.jsonl
//
// With -spans the report is built from a recorded span stream (the
// JSONL file written by edsr-train -trace-jsonl) instead of a simulated
// profile: the same Table-I bucket breakdown, computed from real
// measured collectives, plus each rank's backward/allreduce overlap.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/collective"
	"repro/internal/scaling"
	"repro/internal/trace"
)

// reportSpans renders the bucket report and overlap verdicts from a
// JSONL span stream recorded by a traced training run.
func reportSpans(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tl, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	rep := tl.HvprofReport()
	fmt.Printf("hvprof: %d spans from %d rank(s) in %s\n\n", tl.NumSpans(), len(tl.Ranks), path)
	fmt.Println(rep.String())
	for _, rt := range tl.Ranks {
		fmt.Println(trace.FormatOverlap(tl.Overlap(rt.Rank)))
	}
	return nil
}

func main() {
	nodes := flag.Int("nodes", 1, "simulated nodes (4 GPUs each); paper profiles 1 node")
	steps := flag.Int("steps", 100, "training steps to profile (paper: 100)")
	compare := flag.Bool("compare", true, "profile both default and optimized tunings")
	spans := flag.String("spans", "", "build the report from a recorded JSONL span stream (edsr-train -trace-jsonl) instead of simulating")
	flag.Parse()

	if *spans != "" {
		if err := reportSpans(*spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	profile := func(b collective.Backend) (trace.Report, scaling.Result) {
		s := trace.NewSession(0)
		res := scaling.Run(scaling.Options{Nodes: *nodes, Backend: b, Steps: *steps, Trace: s.Recorder(0)})
		return s.Timeline().HvprofReport(), res
	}

	fmt.Printf("hvprof: EDSR, %d node(s) x 4 GPUs, %d steps\n\n", *nodes, *steps)
	defRep, defRes := profile(collective.BackendMPI)
	fmt.Printf("== default MPI (CUDA_VISIBLE_DEVICES pinned, no reg cache) ==\n")
	fmt.Printf("throughput: %.1f img/s\n%s\n", defRes.ImagesPerSec, defRep.String())

	if !*compare {
		return
	}
	optRep, optRes := profile(collective.BackendMPIOpt)
	fmt.Printf("== MPI-Opt (MV2_VISIBLE_DEVICES split + reg cache) ==\n")
	fmt.Printf("throughput: %.1f img/s\n%s\n", optRes.ImagesPerSec, optRep.String())

	rows := trace.Compare(defRep, optRep, "allreduce")
	fmt.Println(trace.FormatCompare(rows, "MPI_Allreduce"))
	fmt.Println("(compare with the paper's Table I: 53.1% / 49.7% on the large buckets, 45.4% total)")
}
