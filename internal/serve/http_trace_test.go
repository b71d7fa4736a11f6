package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/trace"
	rtrace "repro/internal/trace/request"
)

// TestUpscaleTraceHeaders pins the tracing HTTP contract: every upscale
// response carries X-Trace-Id, a valid incoming traceparent is adopted
// (same trace ID echoed back), and a malformed one degrades to a fresh
// mint — never an error.
func TestUpscaleTraceHeaders(t *testing.T) {
	master := models.NewEDSR(models.EDSRTiny(), tensor.NewRNG(11))
	e := NewEngine(EngineConfig{Batch: BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond}, TileSize: 64},
		nil, rtrace.NewStore(rtrace.Config{Capacity: 8, SampleRate: 1}))
	if err := e.Register("edsr", EDSRFactory(master)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(e.Shutdown)
	s := NewServer(e, nil, nil, 0)
	png := encodePNG(t, randImage(tensor.NewRNG(31), 3, 9, 9))

	rr := postPNG(s, "/v1/upscale?model=edsr", png)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	fresh := rr.Header().Get("X-Trace-Id")
	if len(fresh) != 32 {
		t.Fatalf("X-Trace-Id %q, want 32 hex digits", fresh)
	}

	// A valid traceparent is adopted: the response echoes its trace ID.
	id, span := rtrace.NewTraceID(), rtrace.NewSpanID()
	req := httptest.NewRequest(http.MethodPost, "/v1/upscale?model=edsr", strings.NewReader(string(png)))
	req.Header.Set("traceparent", rtrace.Traceparent(id, span))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Trace-Id") != id.String() {
		t.Fatalf("valid traceparent: status %d X-Trace-Id %q, want 200 with %s",
			rec.Code, rec.Header().Get("X-Trace-Id"), id)
	}

	// A malformed traceparent must not 4xx — fresh trace, request served.
	req = httptest.NewRequest(http.MethodPost, "/v1/upscale?model=edsr", strings.NewReader(string(png)))
	req.Header.Set("traceparent", "00-zzzz-bogus-01")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	got := rec.Header().Get("X-Trace-Id")
	if rec.Code != http.StatusOK || len(got) != 32 || got == id.String() {
		t.Fatalf("malformed traceparent: status %d X-Trace-Id %q, want 200 with a fresh ID",
			rec.Code, got)
	}

	// All three requests were retained (SampleRate 1) and /debug/traces
	// serves them with serving-stage attribution.
	if n := len(s.TraceStore().Retained()); n != 3 {
		t.Fatalf("retained %d traces, want 3", n)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "serve/forward") {
		t.Fatalf("/debug/traces: %d, body lacks stage attribution:\n%s", rec.Code, rec.Body.String())
	}
}

// TestMetricsEndpointContract pins the /metrics surface other tooling
// scrapes: the Prometheus 0.0.4 Content-Type, the sr_build_info gauge
// with version and variant labels, the runtime gauges, and a histogram
// exemplar linking a latency bucket to a retained trace ID.
func TestMetricsEndpointContract(t *testing.T) {
	reg := trace.NewMetrics()
	trace.RegisterBuildInfo(reg, trace.BuildVersion, "serve")
	trace.RegisterRuntimeMetrics(reg)
	met := NewMetrics(reg)
	master := models.NewEDSR(models.EDSRTiny(), tensor.NewRNG(11))
	e := NewEngine(EngineConfig{Batch: BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond}},
		met, rtrace.NewStore(rtrace.Config{Capacity: 8, SampleRate: 1}))
	if err := e.Register("edsr", EDSRFactory(master)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(e.Shutdown)
	s := NewServer(e, reg, met, 0)

	png := encodePNG(t, randImage(tensor.NewRNG(37), 3, 9, 9))
	if rr := postPNG(s, "/v1/upscale?model=edsr", png); rr.Code != http.StatusOK {
		t.Fatalf("upscale: %d %s", rr.Code, rr.Body.String())
	}
	traceID := s.TraceStore().Retained()[0].ID.String()

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics Content-Type %q, want the Prometheus 0.0.4 pin", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`sr_build_info{version="` + trace.BuildVersion + `",variant="serve"} 1`,
		"go_goroutines ",
		"go_heap_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, `# {trace_id="`+traceID+`"}`) {
		t.Fatalf("/metrics lacks an exemplar for retained trace %s:\n%s", traceID, body)
	}
}
