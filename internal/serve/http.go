package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/imageio"
	"repro/internal/trace"
	rtrace "repro/internal/trace/request"
)

// DefaultMaxBodyBytes bounds an uploaded PNG (16 MB).
const DefaultMaxBodyBytes = 16 << 20

// statusClientClosedRequest is the conventional (nginx) status for a
// request abandoned by its client; it only feeds metrics — the
// connection is already gone, so no response is written.
const statusClientClosedRequest = 499

// Server is the HTTP front end: POST a PNG to /v1/upscale and get the
// super-resolved PNG back. It adds transport concerns on top of the
// engine — body limits, content negotiation, error mapping (backpressure
// → 429, drain → 503), health, model listing, and the shared /metrics
// endpoint.
type Server struct {
	e        *Engine
	reg      *trace.Metrics
	met      *Metrics
	traces   *rtrace.Store
	maxBody  int64
	mux      *http.ServeMux
	draining atomic.Bool
}

// NewServer wires the engine into an http.Handler. reg and met may be
// nil (no /metrics endpoint, no counters); maxBody <= 0 selects
// DefaultMaxBodyBytes. Requests are traced into the engine's store
// (tail-sampled, bounded memory), served from /debug/traces.
func NewServer(e *Engine, reg *trace.Metrics, met *Metrics, maxBody int64) *Server {
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	if met == nil {
		met = NewMetrics(nil)
	}
	s := &Server{
		e: e, reg: reg, met: met, maxBody: maxBody,
		traces: e.TraceStore(),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/upscale", s.handleUpscale)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/debug/traces", s.traces.Handler())
	if reg != nil {
		s.mux.Handle("/metrics", reg.Handler())
	}
	return s
}

// TraceStore returns the server's request-trace store.
func (s *Server) TraceStore() *rtrace.Store { return s.traces }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain flips the server into draining mode: /healthz reports 503
// (so load balancers stop routing here) and new upscale requests are
// rejected with 503, while requests already inside a handler finish
// normally. Call Engine.Shutdown after the HTTP server has finished its
// in-flight handlers to complete the drain.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// fail writes a plain-text error response and records the outcome.
// Both 429 (saturated) and 503 (draining) carry Retry-After: a load
// balancer that sees a bare 503 from a draining replica hot-retries
// it, while Retry-After tells it to back off for the drain window.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.met.Outcome(code)
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, code)
}

// handleUpscale is POST /v1/upscale?model=NAME with a PNG body. It
// brackets the whole exchange in a request trace: the trace ID comes in
// on `traceparent` (or is minted here), rides the context through the
// engine, goes back to the client as X-Trace-Id, and — when the tail
// sampler keeps the trace — is linked from the latency histogram as an
// exemplar.
func (s *Server) handleUpscale(w http.ResponseWriter, r *http.Request) {
	s.met.Requests.Inc()
	a := s.traces.Start(r.Header.Get("traceparent"))
	began := rtrace.Now()
	if a != nil {
		w.Header().Set("X-Trace-Id", a.TraceID().String())
		r = r.WithContext(rtrace.NewContext(r.Context(), a))
	}
	status := s.doUpscale(w, r, a)
	if id, kept := s.traces.Finish(a, status); kept {
		s.met.RequestSeconds.Exemplar(float64(rtrace.Now()-began)/1e9, id.String())
	}
}

// doUpscale runs the upscale exchange and returns the HTTP status it
// accounted for (499 when the client vanished mid-request).
func (s *Server) doUpscale(w http.ResponseWriter, r *http.Request, a *rtrace.Active) int {
	if r.Method != http.MethodPost {
		// RFC 9110 §15.5.6: a 405 MUST name the allowed methods.
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST a PNG body")
		return http.StatusMethodNotAllowed
	}
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return http.StatusServiceUnavailable
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dstart := a.Now()
	x, err := imageio.ReadPNG(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body over %d bytes", s.maxBody))
			return http.StatusRequestEntityTooLarge
		}
		s.fail(w, http.StatusBadRequest, "bad PNG: "+err.Error())
		return http.StatusBadRequest
	}
	a.EmitStage(rtrace.StageServeDecode, a.Root(), dstart, x.Bytes())
	// The request context rides into the engine so a client that
	// disconnects while parked on another request's in-flight forward
	// unblocks immediately (the shared forward keeps running).
	out, err := s.e.UpscaleCtx(r.Context(), r.URL.Query().Get("model"), x)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client gone: nothing to write, just account for it.
		s.met.Outcome(statusClientClosedRequest)
		return statusClientClosedRequest
	case errors.Is(err, ErrOverloaded):
		s.fail(w, http.StatusTooManyRequests, err.Error())
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		s.fail(w, http.StatusServiceUnavailable, err.Error())
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownModel):
		s.fail(w, http.StatusNotFound, err.Error())
		return http.StatusNotFound
	case errors.Is(err, ErrBadInput):
		s.fail(w, http.StatusBadRequest, err.Error())
		return http.StatusBadRequest
	default:
		s.fail(w, http.StatusInternalServerError, err.Error())
		return http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "image/png")
	estart := a.Now()
	if err := imageio.WritePNG(w, out); err != nil {
		// Headers are gone; all we can do is count it.
		s.met.Outcome(http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	a.EmitStage(rtrace.StageServeEncode, a.Root(), estart, out.Bytes())
	s.met.Outcome(http.StatusOK)
	return http.StatusOK
}

// handleModels is GET /v1/models. It feeds the same request/outcome
// accounting as upscale so the sr_requests_total partition covers
// every endpoint.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.met.Requests.Inc()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.e.Models()); err != nil {
		// Headers are gone; all we can do is count it.
		s.met.Outcome(http.StatusInternalServerError)
		return
	}
	s.met.Outcome(http.StatusOK)
}

// handleHealth is GET /healthz: 200 while serving, 503 while draining.
// The draining 503 goes through fail so it carries Retry-After — load
// balancers poll this endpoint and must back off, not hot-retry, a
// replica in its lame-duck window.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.met.Requests.Inc()
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
	s.met.Outcome(http.StatusOK)
}
