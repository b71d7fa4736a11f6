// Command sr-router fronts a fleet of sr-serve replicas: POST a PNG to
// its /v1/upscale and it places the request on a healthy replica,
// retries replicas that drain or die mid-request, and (optionally)
// hedges tail-slow requests onto a second replica.
//
// The router is what makes rolling restarts of the fleet invisible: a
// replica entering its lame-duck window (healthz 503) is ejected from
// rotation before its listener closes, requests already routed there
// are replayed elsewhere from the buffered body, and the replica is
// readmitted once its health checks pass again.
//
// Observability mirrors sr-serve: sr_router_* counters on /metrics,
// per-request stage traces (limiter, read-body, placement, attempts,
// write) on /debug/traces and, with -trace, the retained traces as one
// Chrome trace_event file on shutdown.
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

	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/trace/request"
)

func main() {
	addr := flag.String("addr", ":8090", "HTTP listen address")
	backends := flag.String("backends", "", "comma-separated sr-serve base URLs (http://host:port), required")
	placement := flag.String("placement", "least-loaded", "replica placement: least-loaded (fewest in-flight) or hash (consistent hashing on request content — repeat images hit the replica that cached them)")
	rate := flag.Float64("rate", 0, "per-client request rate limit in req/s (<=0 disables)")
	burst := flag.Float64("burst", 0, "per-client burst allowance (defaults to the rate)")
	maxInflight := flag.Int("max-inflight", 32, "in-flight requests admitted per replica; a fully saturated fleet sheds with 429")
	hedge := flag.Bool("hedge", false, "hedge slow requests onto a second replica (first response wins, loser cancelled)")
	hedgeFloor := flag.Duration("hedge-floor", 25*time.Millisecond, "minimum hedge delay; raised to the observed p95 as latency samples accumulate")
	healthInterval := flag.Duration("health-interval", 250*time.Millisecond, "replica /healthz poll interval")
	maxBody := flag.Int64("max-body", router.DefaultMaxBodyBytes, "largest accepted upload in bytes (buffered for replay)")
	timeout := flag.Duration("timeout", 120*time.Second, "end-to-end bound on one proxy attempt")
	tracePath := flag.String("trace", "", "on shutdown, write the retained request traces (see -trace-sample, -trace-retain) here as Chrome trace_event JSON (open at https://ui.perfetto.dev)")
	traceRetain := flag.Int("trace-retain", 256, "retained request traces served from /debug/traces (bounded ring)")
	traceSample := flag.Float64("trace-sample", 0.01, "probabilistic keep rate for unremarkable requests (<0 disables; errors and the slow tail are always kept)")
	traceSlowPct := flag.Float64("trace-slow-pct", 90, "always retain requests slower than this percentile of recent latency (<0 disables)")
	drainGrace := flag.Duration("drain-grace", 3*time.Second, "lame-duck delay between flipping /healthz to 503 and closing the listener")
	drainWait := flag.Duration("drain-wait", 10*time.Second, "how long to wait for in-flight proxied requests on shutdown")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "no backends: pass -backends http://host:port[,http://host:port...]")
		os.Exit(2)
	}

	reg := trace.NewMetrics()
	trace.RegisterBuildInfo(reg, trace.BuildVersion, "router")
	trace.RegisterRuntimeMetrics(reg)
	traces := request.NewStore(request.Config{
		Capacity:   *traceRetain,
		SampleRate: *traceSample,
		SlowPct:    *traceSlowPct,
	})

	rt, err := router.New(router.Config{
		Backends:   urls,
		Placement:  *placement,
		RatePerSec: *rate,
		Burst:      *burst,
		MaxBody:    *maxBody,
		Hedge:      *hedge,
		HedgeFloor: *hedgeFloor,
		Timeout:    *timeout,
		Pool: router.PoolConfig{
			HealthInterval: *healthInterval,
			MaxInflight:    *maxInflight,
		},
	}, reg, traces)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer rt.Close()
	fmt.Printf("request tracing: /debug/traces (retain %d, slow-pct %g, sample %g)\n",
		*traceRetain, *traceSlowPct, *traceSample)

	httpSrv := &http.Server{Addr: *addr, Handler: rt}
	done := make(chan error, 1)
	go func() {
		err := httpSrv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()
	fmt.Printf("routing %d replicas (%s placement, hedge=%v) on %s\n",
		len(urls), *placement, *hedge, *addr)
	fmt.Printf("fleet health: %d/%d replicas up\n", rt.Pool().NumHealthy(), len(urls))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case s := <-sig:
		// Same drain order as sr-serve: advertise the drain first so
		// whatever fronts the router stops sending traffic, then close
		// the listener and let in-flight proxied requests finish.
		fmt.Printf("\n%s: draining...\n", s)
		rt.StartDrain()
		if *drainGrace > 0 {
			fmt.Printf("lame duck for %s (healthz now 503)...\n", *drainGrace)
			time.Sleep(*drainGrace)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "HTTP shutdown:", err)
		}
		cancel()
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
