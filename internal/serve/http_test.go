package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/imageio"
	"repro/internal/models"
	"repro/internal/serve/cache"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// encodePNG renders a tensor to PNG bytes.
func encodePNG(t *testing.T, x *tensor.Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := imageio.WritePNG(&buf, x); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
	return buf.Bytes()
}

// newTestServer builds an engine+server around one EDSRTiny master.
func newTestServer(t *testing.T, tile int, batch BatcherConfig) (*Server, *models.EDSR) {
	t.Helper()
	master := models.NewEDSR(models.EDSRTiny(), tensor.NewRNG(11))
	e := NewEngine(EngineConfig{Batch: batch, TileSize: tile}, nil, nil)
	if err := e.Register("edsr", EDSRFactory(master)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(e.Shutdown)
	return NewServer(e, nil, nil, 0), master
}

// postPNG POSTs body to the server and returns the recorded response.
func postPNG(s *Server, url string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	return rr
}

// TestServerGoldenBitIdentical is the end-to-end golden: a PNG posted to
// /v1/upscale must come back bit-identical to encoding the model's
// direct forward of the same decoded image. The image fits in one tile,
// so this pins the whole-image batcher path with zero numeric drift
// through HTTP, decode, batching, and re-encode.
func TestServerGoldenBitIdentical(t *testing.T) {
	s, master := newTestServer(t, 64, BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond})
	rng := tensor.NewRNG(23)
	pngBytes := encodePNG(t, randImage(rng, 3, 14, 17))

	// Golden path: decode the same PNG (uint8-quantized, like the server
	// sees it) and run the master model directly.
	x, err := imageio.ReadPNG(bytes.NewReader(pngBytes))
	if err != nil {
		t.Fatalf("ReadPNG: %v", err)
	}
	want := encodePNG(t, master.Forward(x).Clone())

	rr := postPNG(s, "/v1/upscale?model=edsr", pngBytes)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "image/png" {
		t.Fatalf("Content-Type %q, want image/png", ct)
	}
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("HTTP response PNG (%d bytes) differs from direct forward PNG (%d bytes)",
			rr.Body.Len(), len(want))
	}

	// The default model (no ?model=) is the first registered one.
	rr = postPNG(s, "/v1/upscale", pngBytes)
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("default-model response differs (status %d)", rr.Code)
	}
}

// TestServerGoldenTiled runs the same golden through the tiling path: an
// image larger than the tile size is split, batched per tile, stitched,
// and must still encode to the same PNG as the direct whole-image
// forward.
func TestServerGoldenTiled(t *testing.T) {
	s, master := newTestServer(t, 8, BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond})
	rng := tensor.NewRNG(29)
	pngBytes := encodePNG(t, randImage(rng, 3, 21, 26))

	x, err := imageio.ReadPNG(bytes.NewReader(pngBytes))
	if err != nil {
		t.Fatalf("ReadPNG: %v", err)
	}
	want := encodePNG(t, master.Forward(x).Clone())

	rr := postPNG(s, "/v1/upscale?model=edsr", pngBytes)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("tiled HTTP response differs from whole-image forward PNG")
	}
}

// TestServerErrorMapping pins the HTTP status for each failure class.
func TestServerErrorMapping(t *testing.T) {
	s, _ := newTestServer(t, 64, BatcherConfig{MaxBatch: 1})
	rng := tensor.NewRNG(31)
	goodPNG := encodePNG(t, randImage(rng, 3, 8, 8))

	t.Run("method not allowed", func(t *testing.T) {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/upscale", nil))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", rr.Code)
		}
	})
	t.Run("garbage body", func(t *testing.T) {
		if rr := postPNG(s, "/v1/upscale", []byte("not a png")); rr.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", rr.Code)
		}
	})
	t.Run("truncated png", func(t *testing.T) {
		if rr := postPNG(s, "/v1/upscale", goodPNG[:len(goodPNG)/2]); rr.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", rr.Code)
		}
	})
	t.Run("unknown model", func(t *testing.T) {
		if rr := postPNG(s, "/v1/upscale?model=nope", goodPNG); rr.Code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", rr.Code)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		small := NewServer(s.e, nil, nil, 64) // 64-byte cap
		if rr := postPNG(small, "/v1/upscale", goodPNG); rr.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", rr.Code)
		}
	})
}

// TestServerModelsAndHealth checks the introspection endpoints.
func TestServerModelsAndHealth(t *testing.T) {
	s, _ := newTestServer(t, 64, BatcherConfig{})

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/models status %d", rr.Code)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(rr.Body).Decode(&infos); err != nil {
		t.Fatalf("decoding /v1/models: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "edsr" || infos[0].Scale != 2 || infos[0].Halo < 1 {
		t.Fatalf("unexpected model listing: %+v", infos)
	}

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200", rr.Code)
	}
}

// TestServerBackpressure checks that a saturated queue surfaces as 429
// with a Retry-After header rather than unbounded queueing.
func TestServerBackpressure(t *testing.T) {
	e := NewEngine(EngineConfig{Batch: BatcherConfig{
		MaxBatch: 1, Queue: 1, Workers: 1,
	}, TileSize: 64}, nil, nil)
	if err := e.Register("slow", fakeFactory(2, 20*time.Millisecond, &batchLog{})); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(e.Shutdown)
	s := NewServer(e, nil, nil, 0)
	rng := tensor.NewRNG(37)
	pngBytes := encodePNG(t, randImage(rng, 3, 6, 6))

	const N = 12
	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := postPNG(s, "/v1/upscale", pngBytes)
			switch rr.Code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if rr.Header().Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				rejected.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", rr.Code, rr.Body.String())
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("want both successes and rejections, got ok %d rejected %d", ok.Load(), rejected.Load())
	}
}

// TestServerDrain checks graceful-drain semantics: after StartDrain the
// health check flips to 503 so load balancers stop routing here, new
// upscales are rejected with 503, and requests already in flight still
// complete successfully.
func TestServerDrain(t *testing.T) {
	e := NewEngine(EngineConfig{Batch: BatcherConfig{
		MaxBatch: 1, Queue: 8, Workers: 1,
	}, TileSize: 64}, nil, nil)
	if err := e.Register("slow", fakeFactory(2, 30*time.Millisecond, &batchLog{})); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(e.Shutdown)
	s := NewServer(e, nil, nil, 0)
	rng := tensor.NewRNG(41)
	pngBytes := encodePNG(t, randImage(rng, 3, 6, 6))

	// Put one request in flight, then drain while it runs.
	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() { inflight <- postPNG(s, "/v1/upscale", pngBytes) }()
	time.Sleep(10 * time.Millisecond) // let it reach the model
	s.StartDrain()

	if rr := postPNG(s, "/v1/upscale", pngBytes); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain upscale status %d, want 503", rr.Code)
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status %d, want 503", rr.Code)
	}
	if rr := <-inflight; rr.Code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", rr.Code)
	}
}

// TestServerMetricsEndpoint checks the serving counters reach the shared
// /metrics endpoint in Prometheus text format.
func TestServerMetricsEndpoint(t *testing.T) {
	reg := trace.NewMetrics()
	met := NewMetrics(reg)
	e := NewEngine(EngineConfig{Batch: BatcherConfig{MaxBatch: 2}, TileSize: 8}, met, nil)
	master := models.NewEDSR(models.EDSRTiny(), tensor.NewRNG(11))
	if err := e.Register("edsr", EDSRFactory(master)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(e.Shutdown)
	s := NewServer(e, reg, met, 0)
	rng := tensor.NewRNG(43)

	// One small request and one tiled request.
	if rr := postPNG(s, "/v1/upscale", encodePNG(t, randImage(rng, 3, 6, 6))); rr.Code != http.StatusOK {
		t.Fatalf("small upscale: %d", rr.Code)
	}
	if rr := postPNG(s, "/v1/upscale", encodePNG(t, randImage(rng, 3, 20, 20))); rr.Code != http.StatusOK {
		t.Fatalf("tiled upscale: %d", rr.Code)
	}
	postPNG(s, "/v1/upscale", []byte("junk")) // one error outcome

	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	body, _ := io.ReadAll(rr.Body)
	text := string(body)
	for _, want := range []string{
		"sr_requests_total 3",
		"sr_responses_total 2",
		"sr_errors_total 1",
		"sr_batches_total",
		"sr_tiles_total",
		"sr_queue_seconds",
		"sr_request_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", text)
	}
}

// gateModel blocks every Forward until the test releases it: entered
// gets one tick when a forward begins, release lets it finish. It
// makes occupancy (worker busy, queue full) and singleflight parking
// fully deterministic in the contract test below.
type gateModel struct {
	scale   int
	entered chan struct{}
	release chan struct{}
	out     *tensor.Tensor
}

func (g *gateModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	g.entered <- struct{}{}
	<-g.release
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.out = tensor.Ensure(g.out, n, c, h*g.scale, w*g.scale)
	return g.out
}
func (g *gateModel) Scale() int  { return g.scale }
func (g *gateModel) Halo() int   { return 1 }
func (g *gateModel) Colors() int { return 3 }

// TestServerStatusHeaderContract pins the full status/header contract
// the fleet router depends on: 405 with Allow, 413, 429 with
// Retry-After, draining 503s with Retry-After on both /v1/upscale and
// /healthz, 404 for unknown models, and 499 (client disconnect)
// accounting — plus the requirement that every endpoint routes through
// the same sr_requests_total outcome partition.
func TestServerStatusHeaderContract(t *testing.T) {
	reg := trace.NewMetrics()
	met := NewMetrics(reg)
	gate := &gateModel{scale: 2, entered: make(chan struct{}, 4), release: make(chan struct{})}
	e := NewEngine(EngineConfig{
		Batch:    BatcherConfig{MaxBatch: 1, Queue: 1, Workers: 1},
		TileSize: 64,
		Cache:    cache.Config{MaxBytes: 1 << 20},
	}, met, nil)
	if err := e.Register("gate", func() Model { return gate }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(func() {
		close(gate.release) // unblock any stragglers so Shutdown returns
		e.Shutdown()
	})
	s := NewServer(e, reg, met, 0)
	rng := tensor.NewRNG(53)
	img := func() []byte { return encodePNG(t, randImage(rng, 3, 6, 6)) }

	do := func(method, url string, body []byte) *httptest.ResponseRecorder {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(method, url, rd))
		return rr
	}
	expect := func(rr *httptest.ResponseRecorder, code int, headers map[string]string, label string) {
		t.Helper()
		if rr.Code != code {
			t.Fatalf("%s: status %d, want %d (%s)", label, rr.Code, code, rr.Body.String())
		}
		for h, want := range headers {
			if got := rr.Header().Get(h); got != want {
				t.Errorf("%s: header %s = %q, want %q", label, h, got, want)
			}
		}
	}

	// RFC 9110: 405 responses must name the allowed methods.
	expect(do(http.MethodGet, "/v1/upscale", nil), http.StatusMethodNotAllowed,
		map[string]string{"Allow": "POST"}, "GET upscale")
	expect(do(http.MethodPost, "/v1/models", img()), http.StatusMethodNotAllowed,
		map[string]string{"Allow": "GET"}, "POST models")

	// 404 for an unregistered model, 400 for a body that is not a PNG.
	expect(do(http.MethodPost, "/v1/upscale?model=nope", img()), http.StatusNotFound, nil, "unknown model")
	expect(do(http.MethodPost, "/v1/upscale", []byte("not a png")), http.StatusBadRequest, nil, "garbage body")

	// 413 when the body exceeds the configured cap.
	tiny := NewServer(e, reg, met, 64)
	rr := httptest.NewRecorder()
	tiny.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/upscale", bytes.NewReader(img())))
	expect(rr, http.StatusRequestEntityTooLarge, nil, "oversized body")

	// 429 + Retry-After when the queue is full: A occupies the worker,
	// B fills the 1-slot queue, C is shed.
	bodyA, bodyB := img(), img()
	respA := make(chan *httptest.ResponseRecorder, 1)
	go func() { respA <- do(http.MethodPost, "/v1/upscale", bodyA) }()
	<-gate.entered // A is inside Forward
	respB := make(chan *httptest.ResponseRecorder, 1)
	go func() { respB <- do(http.MethodPost, "/v1/upscale", bodyB) }()
	waitFor(t, func() bool { return e.mods["gate"].b.QueueLen() == 1 }, "request B queued")
	expect(do(http.MethodPost, "/v1/upscale", img()), http.StatusTooManyRequests,
		map[string]string{"Retry-After": "1"}, "shed request")
	gate.release <- struct{}{} // finish A
	<-gate.entered             // B inside Forward
	gate.release <- struct{}{} // finish B
	expect(<-respA, http.StatusOK, nil, "request A")
	expect(<-respB, http.StatusOK, nil, "request B")

	// 499 accounting: leader D blocks in Forward, waiter E parks on
	// D's singleflight and is cancelled; E must be counted as an error
	// outcome with nothing written.
	shared := img()
	respD := make(chan *httptest.ResponseRecorder, 1)
	go func() { respD <- do(http.MethodPost, "/v1/upscale", shared) }()
	<-gate.entered // D inside Forward
	errsBefore := met.Errors.Value()
	ctx, cancel := context.WithCancel(context.Background())
	respE := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/upscale", bytes.NewReader(shared)).WithContext(ctx)
		s.ServeHTTP(rr, req)
		respE <- rr
	}()
	waitFor(t, func() bool { return met.Cache.InflightWaits.Value() >= 1 }, "waiter E parked")
	cancel()
	rrE := <-respE
	if rrE.Body.Len() != 0 {
		t.Errorf("cancelled waiter wrote a body: %q", rrE.Body.String())
	}
	if got := met.Errors.Value(); got != errsBefore+1 {
		t.Errorf("499 accounting: errors %d, want %d", got, errsBefore+1)
	}
	gate.release <- struct{}{} // finish D
	expect(<-respD, http.StatusOK, nil, "leader D")

	// Accounted introspection endpoints.
	expect(do(http.MethodGet, "/v1/models", nil), http.StatusOK, nil, "models")
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	expect(rr, http.StatusOK, nil, "healthz")

	// Draining: both the upscale path and the health check answer 503
	// with Retry-After so a load balancer backs off for the lame-duck
	// window instead of hot-retrying.
	s.StartDrain()
	expect(do(http.MethodPost, "/v1/upscale", img()), http.StatusServiceUnavailable,
		map[string]string{"Retry-After": "1"}, "draining upscale")
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	expect(rr, http.StatusServiceUnavailable, map[string]string{"Retry-After": "1"}, "draining healthz")

	// Every request above lands in exactly one outcome bucket, read
	// from the scrape itself (the /metrics request is not counted).
	m := scrapeMetrics(t, s)
	total := m["sr_requests_total"]
	parts := m["sr_responses_total"] + m["sr_rejected_total"] + m["sr_errors_total"]
	if total == 0 || total != parts {
		t.Errorf("outcome partition: %g requests vs %g outcomes (responses %g, rejected %g, errors %g)",
			total, parts, m["sr_responses_total"], m["sr_rejected_total"], m["sr_errors_total"])
	}
	// Five requests reached the result cache (A, B, shed C, leader D,
	// cancelled waiter E); each is one lookup, a hit or a miss.
	if got := m["sr_cache_hit_total"] + m["sr_cache_miss_total"]; got != 5 {
		t.Errorf("cache lookups: hit %g + miss %g, want 5", m["sr_cache_hit_total"], m["sr_cache_miss_total"])
	}
}

// scrapeMetrics GETs /metrics from h and parses the Prometheus text
// exposition into sample → value; a sample keeps its labels and
// histogram suffix in its name, and exemplars are dropped.
func scrapeMetrics(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rr.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		line, _, _ = strings.Cut(line, " # ")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("/metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics: sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
