// Command edsr-train trains an EDSR super-resolution model for real on
// the CPU — single-process or data-parallel across in-process MPI ranks —
// on the synthetic DIV2K-like dataset, then evaluates PSNR against the
// bicubic baseline and optionally saves a checkpoint.
//
// Usage:
//
//	edsr-train [-ranks N] [-steps N] [-batch N] [-patch N] [-scale 2|3|4]
//	           [-blocks N] [-feats N] [-lr 1e-3] [-checkpoint path] [-eval N]
//
// Fault-tolerant multi-rank runs (crash-safe checkpoints, elastic
// restart) add:
//
//	edsr-train -ranks 4 -checkpoint ck.gob -ckpt-every 10 \
//	           [-inject-fault rank@step] [-recv-timeout 2s] [-resume ck.gob]
//
// Observability (tracing and live metrics):
//
//	edsr-train -ranks 4 -trace out.json -trace-jsonl out.jsonl \
//	           -metrics-addr :9090
//
// -trace writes a Chrome trace_event timeline (open in Perfetto);
// -trace-jsonl the same spans as JSONL for hvprof-report -spans;
// -metrics-addr serves Prometheus /metrics plus /debug/pprof live.
// Every mode runs the same traced step loop (trainer.Session.RunSteps),
// so the three flags also work with -state/-resume (resumable single-rank
// runs) and -arch srcnn|srresnet|fsrcnn (the model zoo). -state,
// -checkpoint with -ckpt-every, and -resume read and write one
// training-state format; sr-serve loads any of them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/trainer"
)

// exportTrace writes one trace artifact via the given timeline encoder.
func exportTrace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseFaultSpec parses "rank@step" into a crash-injection plan.
func parseFaultSpec(s string) (mpi.FaultPlan, error) {
	plan := mpi.NoFaults()
	rankStr, stepStr, ok := strings.Cut(s, "@")
	if !ok {
		return plan, fmt.Errorf("bad -inject-fault %q: want rank@step", s)
	}
	rank, err1 := strconv.Atoi(rankStr)
	step, err2 := strconv.Atoi(stepStr)
	if err1 != nil || err2 != nil || rank < 0 || step < 0 {
		return plan, fmt.Errorf("bad -inject-fault %q: want rank@step", s)
	}
	plan.CrashRank, plan.CrashStep = rank, step
	return plan, nil
}

func main() {
	arch := flag.String("arch", "edsr", "architecture: edsr, srcnn, srresnet, or fsrcnn (non-edsr train single-process)")
	ranks := flag.Int("ranks", 1, "data-parallel worker count")
	steps := flag.Int("steps", 200, "training steps")
	batch := flag.Int("batch", 4, "batch size per rank (paper: 4)")
	patch := flag.Int("patch", 12, "LR patch size in pixels")
	scale := flag.Int("scale", 2, "super-resolution factor (paper: 2)")
	blocks := flag.Int("blocks", 4, "EDSR residual blocks (paper: 32)")
	feats := flag.Int("feats", 16, "EDSR feature maps (paper config: 256)")
	lr := flag.Float64("lr", 2e-3, "base learning rate (scaled by ranks)")
	images := flag.Int("images", 64, "synthetic dataset size (DIV2K: 800)")
	size := flag.Int("size", 48, "synthetic HR image edge in pixels")
	evalN := flag.Int("eval", 4, "held-out images for PSNR evaluation")
	checkpoint := flag.String("checkpoint", "", "path to save the trained model")
	state := flag.String("state", "", "path to save full training state (resumable; single-rank EDSR only)")
	resume := flag.String("resume", "", "resume from a training state saved with -state")
	benchsets := flag.Bool("benchsets", false, "evaluate on the standard benchmark sets after training")
	logEvery := flag.Int("log", 20, "log every N steps")
	ckptEvery := flag.Int("ckpt-every", 0, "multi-rank: write a distributed checkpoint to -checkpoint every N steps")
	injectFault := flag.String("inject-fault", "", "multi-rank: crash injection \"rank@step\" (fault-tolerance experiments)")
	recvTimeout := flag.Duration("recv-timeout", 0, "multi-rank: failure-detection deadline for receives (0 disables)")
	maxRestarts := flag.Int("max-restarts", 2, "multi-rank: elastic restarts allowed after rank failures")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline here at run end (open at https://ui.perfetto.dev)")
	traceJSONL := flag.String("trace-jsonl", "", "write the span timeline as JSONL (input for hvprof-report -spans)")
	metricsAddr := flag.String("metrics-addr", "", "serve live Prometheus /metrics and /debug/pprof on this address (e.g. :9090)")
	compress := flag.String("compress", "", "multi-rank gradient compression: none, fp16, topk, hier, or hier-fp16")
	topkRatio := flag.Int("topk-ratio", 0, "top-k compression ratio (0 = default 32)")
	gpusPerNode := flag.Int("gpus-per-node", 0, "ranks per simulated node for hierarchical allreduce (0 = flat)")
	flag.Parse()

	cfg := trainer.Config{
		Model: models.EDSRConfig{
			NumBlocks: *blocks, NumFeats: *feats, Scale: *scale,
			ResScale: 0.1, Colors: 3,
		},
		Data: data.SyntheticConfig{
			Images: *images, Height: *size, Width: *size, Channels: 3, Seed: 7,
		},
		Steps:       *steps,
		BatchSize:   *batch,
		PatchSize:   *patch,
		LR:          *lr,
		Seed:        1,
		LogEvery:    *logEvery,
		Log:         os.Stdout,
		Compression: *compress,
		TopKRatio:   *topkRatio,
		GPUsPerNode: *gpusPerNode,
	}
	if err := cfg.Model.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *tracePath != "" || *traceJSONL != "" {
		cfg.Trace = trace.NewSession(0)
	}
	var reg *trace.Metrics // nil without -metrics: the bundle's instruments are no-ops
	if *metricsAddr != "" {
		reg = trace.NewMetrics()
		srv, err := trace.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}
	cfg.Metrics = trace.NewTrainMetrics(reg)
	// writeTrace exports the merged timeline after a traced run and
	// prints rank 0's backward/allreduce overlap verdict.
	writeTrace := func() {
		if cfg.Trace == nil {
			return
		}
		tl := cfg.Trace.Timeline()
		if *tracePath != "" {
			if err := exportTrace(*tracePath, tl.WriteChromeTrace); err != nil {
				fmt.Fprintln(os.Stderr, "trace export failed:", err)
				os.Exit(1)
			}
			fmt.Printf("trace: %d spans from %d rank(s) -> %s (open at https://ui.perfetto.dev)\n",
				tl.NumSpans(), len(tl.Ranks), *tracePath)
		}
		if *traceJSONL != "" {
			if err := exportTrace(*traceJSONL, tl.WriteJSONL); err != nil {
				fmt.Fprintln(os.Stderr, "trace export failed:", err)
				os.Exit(1)
			}
			fmt.Printf("spans: %s (analyze with hvprof-report -spans %s)\n", *traceJSONL, *traceJSONL)
		}
		fmt.Println(trace.FormatOverlap(tl.Overlap(0)))
	}

	a, err := trainer.ParseArch(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if a != trainer.ArchEDSR {
		// Baseline architectures run through the model zoo (single rank).
		res, err := trainer.TrainZoo(trainer.ZooConfig{
			Arch: a, Scale: *scale, Blocks: *blocks, Feats: *feats, Train: cfg,
		}, *evalN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "training failed:", err)
			os.Exit(1)
		}
		fmt.Printf("trained %s (%d params): final L1 %.5f\n", res.Arch, res.Params, res.FinalLoss)
		writeTrace()
		if *evalN > 0 {
			fmt.Printf("held-out PSNR: %s %.2f dB vs bicubic %.2f dB (Δ %+.2f dB)\n",
				res.Arch, res.PSNR, res.PSNRBicubic, res.PSNR-res.PSNRBicubic)
		}
		return
	}

	if *state != "" && *ranks != 1 {
		fmt.Fprintln(os.Stderr, "-state supports single-rank training only (multi-rank: -checkpoint with -ckpt-every)")
		os.Exit(2)
	}

	// Resumable single-rank path: session-based training with full-state
	// checkpoints. Multi-rank -resume falls through to the elastic path.
	if *ranks == 1 && (*state != "" || *resume != "") {
		var sess *trainer.Session
		if *resume != "" {
			sess, err = trainer.ResumeSession(*resume)
			if err == nil {
				fmt.Printf("resumed from %s at step %d\n", *resume, sess.Step)
			}
		} else {
			sess, err = trainer.NewSession(cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The runtime-only fields are not part of a saved state.
		sess.Cfg.Log, sess.Cfg.LogEvery = os.Stdout, *logEvery
		sess.Cfg.Trace, sess.Cfg.Metrics = cfg.Trace, cfg.Metrics
		loss, err := sess.RunSteps(*steps)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("done: step %d, final L1 loss %.5f, %.1f images/sec\n",
			sess.Step, loss, sess.ImagesPerSec())
		writeTrace()
		if *state != "" {
			if err := sess.Save(*state); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("training state saved to %s\n", *state)
		}
		if *evalN > 0 {
			pm, pb := trainer.Evaluate(sess.Model, sess.Cfg, *evalN)
			fmt.Printf("held-out PSNR: EDSR %.2f dB vs bicubic %.2f dB (Δ %+.2f dB)\n", pm, pb, pm-pb)
		}
		return
	}

	// Fault-tolerant multi-rank path: periodic distributed checkpoints,
	// optional crash injection, elastic restart with the survivors.
	if *ranks > 1 && (*ckptEvery > 0 || *injectFault != "" || *recvTimeout > 0 || *resume != "") {
		ckptPath := *checkpoint
		if *resume != "" {
			ckptPath = *resume
		}
		if ckptPath == "" && *ckptEvery > 0 {
			fmt.Fprintln(os.Stderr, "-ckpt-every needs -checkpoint (or -resume) to name the state file")
			os.Exit(2)
		}
		fault := mpi.NoFaults()
		if *injectFault != "" {
			fault, err = parseFaultSpec(*injectFault)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		if *resume != "" {
			step, ws, err := trainer.LoadElasticState(ckptPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "resume failed:", err)
				os.Exit(1)
			}
			fmt.Printf("resuming from %s (step %d, saved by a %d-rank world)\n", ckptPath, step, ws)
		}
		fmt.Printf("Training EDSR (B=%d, F=%d, x%d) on %d rank(s), batch %d, %d steps (elastic)\n",
			*blocks, *feats, *scale, *ranks, *batch, *steps)
		model, stats, err := trainer.TrainElastic(trainer.ElasticConfig{
			Train:           cfg,
			WorldSize:       *ranks,
			CheckpointPath:  ckptPath,
			CheckpointEvery: *ckptEvery,
			RecvTimeout:     *recvTimeout,
			Fault:           fault,
			MaxRestarts:     *maxRestarts,
		})
		for i, a := range stats.Attempts {
			status := "ok"
			if a.Err != "" {
				// errors.Join output is one line per failed rank; the first
				// line carries the root cause.
				status, _, _ = strings.Cut(a.Err, "\n")
			}
			fmt.Printf("attempt %d: world %d, steps %d..%d, avg loss %.5f — %s\n",
				i+1, a.WorldSize, a.StartStep, a.EndStep, a.AvgLoss, status)
		}
		writeTrace() // a trace of a failed run is still evidence
		if err != nil {
			fmt.Fprintln(os.Stderr, "training failed:", err)
			os.Exit(1)
		}
		if stats.Restarts > 0 {
			fmt.Printf("recovered from %d rank failure(s) via elastic restart\n", stats.Restarts)
		}
		if *evalN > 0 {
			pm, pb := trainer.Evaluate(model, cfg, *evalN)
			fmt.Printf("held-out PSNR: EDSR %.2f dB vs bicubic %.2f dB (Δ %+.2f dB)\n", pm, pb, pm-pb)
		}
		return
	}

	fmt.Printf("Training EDSR (B=%d, F=%d, x%d) on %d rank(s), batch %d, %d steps\n",
		*blocks, *feats, *scale, *ranks, *batch, *steps)
	model, st, err := trainer.TrainDistributed(cfg, *ranks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "training failed:", err)
		os.Exit(1)
	}
	fmt.Printf("done: final L1 loss %.5f, avg %.5f, %.1f images/sec, %.1fs wall\n",
		st.FinalLoss, st.AvgLoss, st.ImagesPerSec, st.WallSeconds)
	if st.DrainMsPerStep > 0 {
		fmt.Printf("communication wait: %.2f ms/step exposed in Drain\n", st.DrainMsPerStep)
	}
	writeTrace()

	if *evalN > 0 {
		pm, pb := trainer.Evaluate(model, cfg, *evalN)
		fmt.Printf("held-out PSNR: EDSR %.2f dB vs bicubic %.2f dB (Δ %+.2f dB)\n", pm, pb, pm-pb)
	}
	if *checkpoint != "" {
		if err := trainer.SaveCheckpoint(*checkpoint, model, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint failed:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint saved to %s\n", *checkpoint)
	}
	if *benchsets {
		scores := trainer.EvaluateOnBenchmarks(model, nil, *scale, *size, 99)
		fmt.Print(trainer.FormatBenchmarkScores("edsr", scores))
	}
}
