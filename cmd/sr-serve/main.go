// Command sr-serve runs the batched super-resolution inference server:
// POST a PNG to /v1/upscale and get the super-resolved PNG back.
//
// Concurrent requests are coalesced into micro-batches (the serving-side
// analogue of the paper's batched training forward), large images are
// split into halo tiles to bound activation memory, and the process
// exposes the same observability surface as training: Prometheus
// counters on /metrics, per-request stage traces (decode, queue,
// batch-wait, forward, cache, encode) on /debug/traces and, with
// -trace, the retained traces as one Chrome trace_event file on
// shutdown.
//
// SIGINT/SIGTERM drains gracefully: /healthz flips to 503, new requests
// are rejected, in-flight requests and queued batches complete, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/trace"
	"repro/internal/trace/request"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	checkpoint := flag.String("checkpoint", "", "serve a trained EDSR checkpoint (weights-only or full training state) as model \"edsr\"")
	builtins := flag.String("models", "bicubic", "comma-separated built-in models to also serve (bicubic, edsr-tiny, srcnn)")
	variant := flag.String("variant", "float32", "serving variant for network models: float32 (training graph), fused (prepacked weights + fused conv+bias+ReLU), int8 (quantized conv); compiled variants must pass the golden-set PSNR gate or the server refuses to start")
	maxBatch := flag.Int("max-batch", 8, "largest coalesced micro-batch")
	maxDelay := flag.Duration("max-delay", 2*time.Millisecond, "how long a worker holds an open batch for same-shaped followers")
	queue := flag.Int("queue", 64, "pending-request queue bound (full queue returns 429)")
	workers := flag.Int("workers", 1, "model replicas running batches concurrently")
	tile := flag.Int("tile", 48, "LR tile edge for splitting large images (<0 disables tiling)")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "largest accepted PNG upload in bytes")
	cacheMB := flag.Int("cache-mb", 256, "content-addressed result-cache budget in MiB (repeat requests skip the forward; concurrent identical requests collapse into one)")
	cacheOff := flag.Bool("cache-off", false, "disable the result cache regardless of -cache-mb")
	tracePath := flag.String("trace", "", "on shutdown, write the retained request traces (see -trace-sample, -trace-retain) here as Chrome trace_event JSON (open at https://ui.perfetto.dev)")
	traceRetain := flag.Int("trace-retain", 256, "retained request traces served from /debug/traces (bounded ring)")
	traceSample := flag.Float64("trace-sample", 0.01, "probabilistic keep rate for unremarkable requests (<0 disables; errors and the slow tail are always kept)")
	traceSlowPct := flag.Float64("trace-slow-pct", 90, "always retain requests slower than this percentile of recent latency (<0 disables)")
	drainWait := flag.Duration("drain-wait", 10*time.Second, "how long to wait for in-flight requests on shutdown")
	drainGrace := flag.Duration("drain-grace", 3*time.Second, "lame-duck delay between flipping /healthz to 503 and closing the listener, so load balancers observe the drain and stop routing here before connections are refused (rolling restarts lose zero requests)")
	flag.Parse()

	reg := trace.NewMetrics()
	trace.RegisterBuildInfo(reg, trace.BuildVersion, "serve")
	trace.RegisterRuntimeMetrics(reg)
	met := serve.NewMetrics(reg)
	traces := request.NewStore(request.Config{
		Capacity:   *traceRetain,
		SampleRate: *traceSample,
		SlowPct:    *traceSlowPct,
	})

	cacheBytes := int64(*cacheMB) << 20
	if *cacheOff {
		cacheBytes = 0
	}
	engine := serve.NewEngine(serve.EngineConfig{
		Batch: serve.BatcherConfig{
			MaxBatch: *maxBatch,
			MaxDelay: *maxDelay,
			Queue:    *queue,
			Workers:  *workers,
		},
		TileSize: *tile,
		Cache:    cache.Config{MaxBytes: cacheBytes},
	}, met, traces)

	vr, err := serve.ParseVariant(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// gated registers a candidate factory under name. Compiled variants
	// must first clear the golden-set PSNR gate against ref (the float32
	// path over the same weights) — a failing gate aborts startup, so an
	// optimized server can never silently serve degraded images.
	gated := func(name string, cand, ref serve.Factory) {
		if ref == nil {
			if err := engine.Register(name, cand); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			return
		}
		g := serve.RunGate(name, vr, cand, ref)
		fmt.Println(g.Transcript())
		if !g.Pass {
			fmt.Fprintf(os.Stderr, "variant %s failed the PSNR gate for %s; refusing to serve\n", vr, name)
			os.Exit(1)
		}
		delta := g.DeltaDB
		if err := engine.RegisterInfo(name, cand, vr, &delta); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *checkpoint != "" {
		master, cfg, err := serve.LoadEDSRMaster(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cand, err := serve.EDSRVariantFactory(master, vr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var ref serve.Factory
		if vr != serve.VariantFloat32 {
			ref = serve.EDSRFactory(master)
		}
		gated("edsr", cand, ref)
		fmt.Printf("model edsr: x%d, %d blocks, %d feats (from %s)\n",
			cfg.Scale, cfg.NumBlocks, cfg.NumFeats, *checkpoint)
	}
	for _, name := range strings.Split(*builtins, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		useVr := vr
		if name == "bicubic" {
			// The classical baseline has no network to compile; it always
			// serves as-is regardless of -variant.
			useVr = serve.VariantFloat32
		}
		cand, ref, err := serve.BuiltinVariantFactory(name, useVr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		gated(name, cand, ref)
	}
	models := engine.Models()
	if len(models) == 0 {
		fmt.Fprintln(os.Stderr, "no models to serve: pass -checkpoint and/or -models")
		os.Exit(2)
	}
	for _, m := range models {
		fmt.Printf("serving %-10s x%d (halo %d, variant %s)\n", m.Name, m.Scale, m.Halo, m.Variant)
	}
	if engine.Cache().Enabled() {
		fmt.Printf("result cache: %d MiB (content-addressed, singleflight; -cache-off to disable)\n", *cacheMB)
	} else {
		fmt.Println("result cache: off")
	}

	srv := serve.NewServer(engine, reg, met, *maxBody)
	fmt.Printf("request tracing: /debug/traces (retain %d, slow-pct %g, sample %g)\n",
		*traceRetain, *traceSlowPct, *traceSample)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	done := make(chan error, 1)
	go func() {
		err := httpSrv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()
	fmt.Printf("listening on %s (default model %q; POST PNGs to /v1/upscale)\n", *addr, models[0].Name)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		// The listener died on its own; still run the batcher queues dry
		// so queued requests complete instead of being abandoned.
		engine.Shutdown()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Printf("\n%s: draining...\n", s)
		// Drain order: flip /healthz to 503 and reject new upscales, then
		// hold the listener open for the lame-duck window so load
		// balancers observe the drain and stop routing here — shutting
		// down immediately would reset the requests they route in the
		// meantime. Only then close the listener, let in-flight handlers
		// finish, and run the batcher queues dry.
		srv.StartDrain()
		if *drainGrace > 0 {
			fmt.Printf("lame duck for %s (healthz now 503)...\n", *drainGrace)
			time.Sleep(*drainGrace)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "HTTP shutdown:", err)
		}
		cancel()
		engine.Shutdown()
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err == nil {
			err = traces.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace export failed:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s (open at https://ui.perfetto.dev)\n", *tracePath)
	}
}
