// Package router is the fleet layer of the serving stack: a reverse
// proxy that fans /v1/upscale traffic across N sr-serve replicas. One
// internal/serve process is the scaling unit — the paper's thesis is
// that SR throughput comes from scaling out, not from one fast worker,
// and this is the serving-side analogue of its multi-node training
// runs.
//
// The router composes five mechanisms, each independently testable:
//
//   - Pool: a health-checked backend set. Each replica's /healthz is
//     polled; a failing or draining (503) probe ejects it from
//     rotation, consecutive passes re-admit it. The proxy also ejects
//     passively on transport errors and drain 503s, so reaction to a
//     killed replica is bounded by the in-flight request, not the poll
//     interval.
//   - Placement: consistent hashing on the request content key (repeat
//     traffic for a scene lands on the replica that already cached its
//     result) or least-loaded by in-flight count (best tail latency
//     under heterogeneous load).
//   - Limiter: per-client token buckets; a denied request gets 429
//     with Retry-After set to the time until its next token.
//   - Admission control: bounded in-flight per backend. When every
//     healthy backend is at its cap the router sheds with 429 +
//     Retry-After instead of queueing unboundedly.
//   - Hedged retries: upscales are pure functions of their body, so a
//     request stuck on a slow replica is hedged to a second one after
//     a p95-tracking delay; the first response wins and the loser is
//     cancelled. Bodies are buffered under a size cap, so retries and
//     hedges replay the identical bytes.
//
// Drain integration: a replica that calls serve.Server.StartDrain
// flips its /healthz to 503 and answers in-flight-era upscales with
// 503 + Retry-After. The router treats both as the drain signal —
// eject, retry elsewhere — so a rolling restart with a lame-duck delay
// (sr-serve -drain-grace) loses zero requests.
package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	rtrace "repro/internal/trace/request"
)

// statusClientClosedRequest is the conventional (nginx) status for a
// request abandoned by its client; it only feeds metrics.
const statusClientClosedRequest = 499

// DefaultMaxBodyBytes caps a buffered upload, mirroring the replicas'
// own limit (16 MB): the router must hold the body for replay, so it
// enforces the cap before placement.
const DefaultMaxBodyBytes = 16 << 20

// DefaultMaxRespBytes caps a buffered backend response (64 MB covers a
// 16 MB upload at scale 2× with PNG overhead). Buffering the response
// is what lets the router retry a replica killed mid-reply without the
// client ever seeing a broken body.
const DefaultMaxRespBytes = 64 << 20

// Config assembles the router.
type Config struct {
	// Backends are the replica base URLs (http://host:port).
	Backends []string
	// Placement selects the strategy: "least-loaded" (default) or
	// "hash".
	Placement string
	// Pool tunes health checking and per-backend admission.
	Pool PoolConfig
	// RatePerSec and Burst configure the per-client token bucket;
	// RatePerSec <= 0 disables rate limiting.
	RatePerSec float64
	Burst      float64
	// MaxBody caps a buffered request body (default 16 MB);
	// MaxRespBytes caps a buffered backend response (default 64 MB).
	MaxBody      int64
	MaxRespBytes int64
	// Hedge enables hedged retries; HedgeFloor is the minimum hedge
	// delay (default 25ms), raised to the tracked p95 as samples
	// accumulate. Hedging needs at least two backends.
	Hedge      bool
	HedgeFloor time.Duration
	// Timeout bounds one proxy attempt end to end (default 120s).
	Timeout time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Placement == "" {
		c.Placement = "least-loaded"
	}
	if c.MaxBody <= 0 {
		c.MaxBody = DefaultMaxBodyBytes
	}
	if c.MaxRespBytes <= 0 {
		c.MaxRespBytes = DefaultMaxRespBytes
	}
	if c.HedgeFloor <= 0 {
		c.HedgeFloor = 25 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	return c
}

// Router is the fleet front end: an http.Handler exposing /v1/upscale
// (routed), /v1/models (proxied), /healthz (fleet health), and
// /metrics (the router's own sr_router_* instruments).
type Router struct {
	cfg     Config
	pool    *Pool
	place   Placement
	limiter *Limiter
	lat     *latencyTracker
	client  *http.Client
	met     *Metrics
	traces  *rtrace.Store
	mux     *http.ServeMux

	draining atomic.Bool
}

// New builds a router over cfg.Backends, probing each synchronously
// and starting the health loops. reg may be nil (metrics off). traces
// is the request-trace store the router records into and serves from
// /debug/traces; nil selects the default tail-sampled store. Callers
// must Close the router to stop the health loops.
func New(cfg Config, reg *trace.Metrics, traces *rtrace.Store) (*Router, error) {
	cfg = cfg.withDefaults()
	if traces == nil {
		traces = rtrace.NewStore(rtrace.Config{})
	}
	met := NewMetrics(reg, len(cfg.Backends))
	pool, err := NewPool(cfg.Backends, cfg.Pool, met)
	if err != nil {
		return nil, err
	}
	place, err := NewPlacement(cfg.Placement, pool.Backends())
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:     cfg,
		pool:    pool,
		place:   place,
		limiter: NewLimiter(cfg.RatePerSec, cfg.Burst),
		lat:     &latencyTracker{},
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: pool.cfg.MaxInflight + 2,
			},
		},
		met:    met,
		traces: traces,
		mux:    http.NewServeMux(),
	}
	rt.mux.HandleFunc("/v1/upscale", rt.handleUpscale)
	rt.mux.HandleFunc("/v1/models", rt.handleModels)
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.Handle("/debug/traces", rt.traces.Handler())
	if reg != nil {
		rt.mux.Handle("/metrics", reg.Handler())
	}
	pool.Start()
	return rt, nil
}

// TraceStore returns the router's request-trace store.
func (rt *Router) TraceStore() *rtrace.Store { return rt.traces }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Pool exposes the backend pool for introspection (tests, benches).
func (rt *Router) Pool() *Pool { return rt.pool }

// Metrics exposes the router's instrument bundle for introspection
// (tests, benches).
func (rt *Router) Metrics() *Metrics { return rt.met }

// StartDrain flips the router into draining mode: its own /healthz
// reports 503 and new routed requests are rejected, while requests
// already being proxied finish normally.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Close stops the health loops and releases idle connections.
func (rt *Router) Close() {
	rt.pool.Close()
	rt.client.CloseIdleConnections()
}

// fail writes a plain-text error and records the outcome, mirroring
// the replica-side contract: 429 and 503 both carry Retry-After so
// callers back off instead of hot-retrying.
func (rt *Router) fail(w http.ResponseWriter, code int, msg string) {
	rt.met.Outcome(code)
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	http.Error(w, msg, code)
}

// clientKey identifies a client for rate limiting: an explicit
// X-Client-Id header when present (trusted deployments, tests), else
// the connection's remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Routing failures distinct from a backend's own response.
var (
	// errNoHealthy: the rotation is empty (every backend ejected).
	errNoHealthy = errors.New("router: no healthy backends")
	// errSaturated: healthy backends exist but all are at MaxInflight.
	errSaturated = errors.New("router: fleet saturated")
)

// handleUpscale is POST /v1/upscale: admission, placement, proxy with
// retries and hedging, response copy-out. The router is the fleet edge,
// so this is where the request's trace is minted (or adopted from an
// incoming traceparent), returned as X-Trace-Id, and tail-sampled.
func (rt *Router) handleUpscale(w http.ResponseWriter, r *http.Request) {
	rt.met.Requests.Inc()
	a := rt.traces.Start(r.Header.Get("traceparent"))
	began := rtrace.Now()
	if a != nil {
		w.Header().Set("X-Trace-Id", a.TraceID().String())
	}
	status := rt.doUpscale(w, r, a)
	if id, kept := rt.traces.Finish(a, status); kept {
		rt.met.ProxySeconds.Exemplar(float64(rtrace.Now()-began)/1e9, id.String())
	}
}

// emitTiled closes one tiled stage span [from, now) as a child of the
// root and returns its end — the next stage's start. Returns 0 (and
// records nothing) for an untraced request.
func emitTiled(a *rtrace.Active, stage rtrace.Stage, from, bytes int64) int64 {
	if a == nil {
		return 0
	}
	now := a.Now()
	a.Emit(stage, rtrace.NewSpanID(), a.Root(), from, now, bytes, 0, -1, 0)
	return now
}

// doUpscale runs the routed exchange and returns the HTTP status it
// accounted for (499 when the client vanished mid-route).
func (rt *Router) doUpscale(w http.ResponseWriter, r *http.Request, a *rtrace.Active) int {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rt.fail(w, http.StatusMethodNotAllowed, "POST a PNG body")
		return http.StatusMethodNotAllowed
	}
	if rt.draining.Load() {
		rt.fail(w, http.StatusServiceUnavailable, "router draining")
		return http.StatusServiceUnavailable
	}
	// Stage spans tile: each starts where the previous ended (the first
	// at t=0), so dispatch overhead between stages is attributed to the
	// stage that follows it rather than silently unaccounted — the
	// attribution view can then explain ~all of a request's wall time.
	cur := a.T0()
	ok, wait := rt.limiter.Allow(clientKey(r))
	cur = emitTiled(a, rtrace.StageRouterLimiter, cur, 0)
	if !ok {
		secs := int(wait/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		rt.met.RateLimited.Inc()
		rt.fail(w, http.StatusTooManyRequests, "rate limit exceeded")
		return http.StatusTooManyRequests
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.fail(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body over %d bytes", rt.cfg.MaxBody))
			return http.StatusRequestEntityTooLarge
		}
		rt.fail(w, http.StatusBadRequest, "reading body: "+err.Error())
		return http.StatusBadRequest
	}
	cur = emitTiled(a, rtrace.StageRouterReadBody, cur, int64(len(body)))
	model := r.URL.Query().Get("model")

	began := rtrace.Now()
	res, err := rt.route(r.Context(), a, model, body, cur)
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client gone mid-route: nothing to write, account like the
		// replicas do (nginx's 499).
		rt.met.Outcome(statusClientClosedRequest)
		return statusClientClosedRequest
	case errors.Is(err, errNoHealthy):
		rt.fail(w, http.StatusServiceUnavailable, err.Error())
		return http.StatusServiceUnavailable
	case errors.Is(err, errSaturated):
		rt.met.Sheds.Inc()
		rt.fail(w, http.StatusTooManyRequests, err.Error())
		return http.StatusTooManyRequests
	case err != nil:
		rt.fail(w, http.StatusBadGateway, "all attempts failed: "+err.Error())
		return http.StatusBadGateway
	}
	// Pass the backend's response through, whatever it was: the router
	// is transparent for statuses it does not itself produce.
	for _, h := range []string{"Content-Type", "Retry-After", "Allow"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	rt.met.Outcome(res.status)
	// The write span picks up where the winning attempt span closed, so
	// header copy-out and the response write tile with the attempts.
	wstart := res.closed
	if wstart == 0 {
		wstart = a.Now()
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
	a.EmitStage(rtrace.StageRouterWrite, a.Root(), wstart, int64(len(res.body)))
	rt.met.ProxySeconds.Observe(float64(rtrace.Now()-began) / 1e9)
	return res.status
}

// backendResult is one completed proxy attempt.
type backendResult struct {
	backend *Backend
	attempt int // index into route's attempt table
	status  int
	header  http.Header
	body    []byte
	dur     time.Duration
	hedged  bool
	closed  int64 // span-clock time the winning attempt span closed
	err     error // transport-level failure (no HTTP response)
}

// retryable reports whether the attempt should be replayed on another
// backend: transport errors (replica killed), 503 (replica draining),
// and 429 (replica saturated — another may have room). The body was
// buffered, so replay is exact.
func (r *backendResult) retryable() bool {
	return r.err != nil || r.status == http.StatusServiceUnavailable || r.status == http.StatusTooManyRequests
}

// route proxies one upscale across the fleet: place, attempt, and on
// retryable failure or hedge timeout, attempt again on a backend not
// yet tried. The first acceptable response wins; other in-flight
// attempts are cancelled. Returns errNoHealthy/errSaturated when no
// attempt could even be placed, or the last transport error when every
// placed attempt failed without an HTTP response.
func (rt *Router) route(ctx context.Context, a *rtrace.Active, model string, body []byte, cur int64) (*backendResult, error) {
	key := hashKey(model, body)
	tried := make(map[*Backend]bool, 2)
	// Buffered to the fleet size so straggler attempts never block
	// sending their (discarded) results after the winner returns.
	results := make(chan *backendResult, len(rt.pool.Backends()))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// attState tracks one launched attempt's span: attempt spans are
	// minted here (their IDs travel to the replica in traceparent, so
	// the replica's whole tree parents under the attempt that carried
	// it) and emitted on this goroutine when the attempt resolves —
	// losers as cancelled in the defer below, never silently absent.
	type attState struct {
		id     uint64
		bidx   int16
		start  int64
		hedged bool
		open   bool
	}
	var atts []attState
	winner := -1
	closeAttempt := func(i int, flags uint8, status int) int64 {
		at := &atts[i]
		if !at.open {
			return 0
		}
		at.open = false
		if at.hedged {
			flags |= rtrace.FlagHedge
		}
		end := a.Now()
		a.Emit(rtrace.StageRouterAttempt, at.id, a.Root(), at.start, end, 0, flags, at.bidx, int32(status))
		return end
	}
	defer func() {
		for i := range atts {
			if atts[i].open {
				closeAttempt(i, rtrace.FlagCancelled, 0)
			}
			if atts[i].hedged && i != winner {
				rt.met.HedgeWasted.Inc()
			}
		}
	}()

	// launch places and dispatches one attempt. The placement span tiles
	// from cur (the previous stage's end at first launch, the failed
	// attempt's close on retries) and the attempt span tiles from the
	// placement span's end, so route-internal bookkeeping stays
	// attributed.
	launch := func(hedged bool) bool {
		pstart := cur
		if pstart == 0 {
			pstart = a.Now()
		}
		b := rt.place.Pick(rt.pool, key, tried)
		if b == nil {
			return false
		}
		cur = emitTiled(a, rtrace.StageRouterPlacement, pstart, 0)
		tried[b] = true
		rt.pool.acquire(b)
		rt.met.backendReqs[b.Index].Inc()
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		idx := len(atts)
		atts = append(atts, attState{
			id: rtrace.NewSpanID(), bidx: int16(b.Index),
			start: cur, hedged: hedged, open: true,
		})
		tp := a.Traceparent(atts[idx].id)
		go func() {
			defer rt.pool.release(b)
			res := rt.attempt(actx, b, tp, model, body)
			res.hedged = hedged
			res.attempt = idx
			results <- res
		}()
		return true
	}

	if !launch(false) {
		if rt.pool.NumHealthy() == 0 {
			return nil, errNoHealthy
		}
		return nil, errSaturated
	}

	// One hedge per request, armed only when a second backend could
	// take it. The timer tracks the fleet's p95 so hedges target the
	// tail, not the median.
	var hedgeC <-chan time.Time
	if rt.cfg.Hedge && len(rt.pool.Backends()) > 1 {
		t := time.NewTimer(rt.lat.hedgeDelay(rt.cfg.HedgeFloor))
		defer t.Stop()
		hedgeC = t.C
	}

	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if res.err != nil {
				// No HTTP response: the replica is gone (killed, reset).
				// Eject so placement stops offering it before the next
				// health probe.
				rt.pool.eject(res.backend)
				lastErr = res.err
				cur = closeAttempt(res.attempt, rtrace.FlagError, 0)
			} else if res.status == http.StatusServiceUnavailable {
				// Drain signal: out of rotation until its healthz
				// passes again post-restart.
				rt.pool.eject(res.backend)
			}
			if res.retryable() {
				if res.err == nil {
					cur = closeAttempt(res.attempt, rtrace.FlagError, res.status)
				}
				if launch(false) {
					rt.met.Retries.Inc()
					// A replayed request is always worth retaining: the
					// trace is the forensic record of what the retry
					// recovered from.
					a.ForceKeep()
					pending++
					continue
				}
				if pending > 0 {
					continue // a hedge may still answer
				}
				if res.err != nil {
					return nil, lastErr
				}
				return res, nil // pass the terminal 429/503 through
			}
			rt.lat.observe(res.dur)
			winner = res.attempt
			res.closed = closeAttempt(res.attempt, rtrace.FlagWinner, res.status)
			if res.hedged {
				rt.met.HedgeWins.Inc()
			}
			return res, nil
		case <-hedgeC:
			hedgeC = nil
			cur = 0 // hedge placement starts at its own now, not the last stage end
			if launch(true) {
				rt.met.HedgesLaunched.Inc()
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = errors.New("router: no attempt completed")
	}
	return nil, lastErr
}

// attempt performs one full proxied exchange against b: POST the
// buffered body, read the capped response. The response is consumed
// entirely here so a replica killed mid-reply surfaces as a retryable
// transport error instead of a broken body half-written to the client.
func (rt *Router) attempt(ctx context.Context, b *Backend, traceparent, model string, body []byte) *backendResult {
	began := time.Now()
	u := *b.URL
	u.Path = "/v1/upscale"
	if model != "" {
		u.RawQuery = "model=" + url.QueryEscape(model)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), bytes.NewReader(body))
	if err != nil {
		return &backendResult{backend: b, err: err}
	}
	req.Header.Set("Content-Type", "image/png")
	if traceparent != "" {
		// The attempt's span ID is the parent: the replica's whole span
		// tree hangs off the attempt that carried it, including replays
		// after a SIGKILL — same trace ID, new attempt span.
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return &backendResult{backend: b, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxRespBytes+1))
	if err != nil {
		return &backendResult{backend: b, err: err}
	}
	if int64(len(data)) > rt.cfg.MaxRespBytes {
		return &backendResult{backend: b, err: fmt.Errorf("response over %d bytes", rt.cfg.MaxRespBytes)}
	}
	return &backendResult{
		backend: b,
		status:  resp.StatusCode,
		header:  resp.Header.Clone(),
		body:    data,
		dur:     time.Since(began),
	}
}

// handleModels is GET /v1/models, proxied to the first healthy backend
// that answers — every replica serves the same registry, so any one
// speaks for the fleet.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	rt.met.Requests.Inc()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		rt.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, b := range rt.pool.Backends() {
		if !b.Healthy() {
			continue
		}
		resp, err := rt.client.Get(b.URL.JoinPath("/v1/models").String())
		if err != nil {
			rt.pool.eject(b)
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxRespBytes))
		resp.Body.Close()
		if err != nil {
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		rt.met.Outcome(resp.StatusCode)
		w.WriteHeader(resp.StatusCode)
		w.Write(data)
		return
	}
	rt.fail(w, http.StatusServiceUnavailable, errNoHealthy.Error())
}

// handleHealth is GET /healthz: 200 while at least one backend is in
// rotation, 503 (with Retry-After) while draining or with an empty
// rotation — the same contract the replicas expose, so routers stack.
func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rt.met.Requests.Inc()
	if rt.draining.Load() {
		rt.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if n := rt.pool.NumHealthy(); n == 0 {
		rt.fail(w, http.StatusServiceUnavailable, errNoHealthy.Error())
		return
	}
	fmt.Fprintln(w, "ok")
	rt.met.Outcome(http.StatusOK)
}
