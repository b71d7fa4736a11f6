package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

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

// bodyOn returns a request body the hash ring places on backend idx.
func bodyOn(rt *Router, idx int) string {
	for i := 0; ; i++ {
		body := fmt.Sprintf("img-%d", i)
		if rt.place.Pick(rt.pool, hashKey("", []byte(body)), nil).Index == idx {
			return body
		}
	}
}

// TestRouterNilRegistry pins the one metrics idiom: a router built
// without a registry runs its rate-limit, retry and hedge paths on the
// no-op bundle instead of dereferencing a nil one.
func TestRouterNilRegistry(t *testing.T) {
	newRouter := func(t *testing.T, cfg Config, ups ...*upstream) *Router {
		t.Helper()
		for _, u := range ups {
			cfg.Backends = append(cfg.Backends, u.srv.URL)
		}
		cfg.Pool.HealthInterval = time.Hour
		rt, err := New(cfg, nil, nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	t.Run("ratelimit", func(t *testing.T) {
		rt := newRouter(t, Config{RatePerSec: 0.1, Burst: 1}, newUpstream(t, "X"))
		if rr := post(rt, "/v1/upscale", "img", nil); rr.Code != http.StatusOK {
			t.Fatalf("first request %d", rr.Code)
		}
		if rr := post(rt, "/v1/upscale", "img", nil); rr.Code != http.StatusTooManyRequests {
			t.Fatalf("second request %d, want 429", rr.Code)
		}
	})
	t.Run("retry", func(t *testing.T) {
		a, b := newUpstream(t, "FROM-A"), newUpstream(t, "FROM-B")
		rt := newRouter(t, Config{Placement: "hash"}, a, b)
		a.status.Store(http.StatusServiceUnavailable)
		if rr := post(rt, "/v1/upscale", bodyOn(rt, 0), nil); rr.Code != http.StatusOK || rr.Body.String() != "FROM-B" {
			t.Fatalf("retried request: %d %q, want 200 FROM-B", rr.Code, rr.Body.String())
		}
	})
	t.Run("hedge", func(t *testing.T) {
		slow, fast := newUpstream(t, "FROM-SLOW"), newUpstream(t, "FROM-FAST")
		slow.delay.Store(int64(2 * time.Second))
		rt := newRouter(t, Config{Placement: "hash", Hedge: true, HedgeFloor: 20 * time.Millisecond}, slow, fast)
		if rr := post(rt, "/v1/upscale", bodyOn(rt, 0), nil); rr.Code != http.StatusOK || rr.Body.String() != "FROM-FAST" {
			t.Fatalf("hedged request: %d %q, want 200 FROM-FAST", rr.Code, rr.Body.String())
		}
	})
}

// TestRouterPartitionsFromScrape drives the router through every
// outcome class — 2xx, 405, 413, rate-limit 429, a backend 404 passed
// through, a client that disconnects mid-route (499), and the models
// and health endpoints — and checks the sr_router_* outcome partition
// on the scraped text: requests = responses + rejected + errors.
func TestRouterPartitionsFromScrape(t *testing.T) {
	up := newUpstream(t, "X")
	rt, _ := newTestRouter(t, Config{
		RatePerSec: 0.1, Burst: 1, MaxBody: 64,
		Pool: PoolConfig{HealthInterval: time.Hour},
	}, up)
	client := func(id string) map[string]string { return map[string]string{"X-Client-Id": id} }

	if rr := post(rt, "/v1/upscale", "img", client("a")); rr.Code != http.StatusOK {
		t.Fatalf("2xx: %d", rr.Code)
	}
	if rr := post(rt, "/v1/upscale", "img", client("a")); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("rate limit: %d", rr.Code)
	}
	rr := httptest.NewRecorder()
	rt.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/upscale", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("405: %d", rr.Code)
	}
	if rr := post(rt, "/v1/upscale", strings.Repeat("x", 65), client("b")); rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("413: %d", rr.Code)
	}
	up.status.Store(http.StatusNotFound)
	if rr := post(rt, "/v1/upscale", "img", client("c")); rr.Code != http.StatusNotFound {
		t.Fatalf("404 pass-through: %d", rr.Code)
	}
	up.status.Store(http.StatusOK)

	// 499: the client leaves while its attempt is parked upstream.
	up.delay.Store(int64(time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/upscale", strings.NewReader("img")).WithContext(ctx)
		req.Header.Set("X-Client-Id", "d")
		rr := httptest.NewRecorder()
		rt.ServeHTTP(rr, req)
		done <- rr.Code
	}()
	waitFor(t, func() bool { return rt.Pool().Backends()[0].Inflight() == 1 }, "attempt in flight")
	cancel()
	<-done
	up.delay.Store(0)

	// The fake replica has no /v1/models: the proxied 404 is an error.
	for path, want := range map[string]int{"/v1/models": http.StatusNotFound, "/healthz": http.StatusOK} {
		rr := httptest.NewRecorder()
		rt.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != want {
			t.Fatalf("%s: %d, want %d", path, rr.Code, want)
		}
	}

	m := scrapeMetrics(t, rt)
	total := m["sr_router_requests_total"]
	parts := m["sr_router_responses_total"] + m["sr_router_rejected_total"] + m["sr_router_errors_total"]
	if total != 8 || total != parts {
		t.Fatalf("outcome partition: %g requests (want 8) vs %g outcomes (responses %g, rejected %g, errors %g)",
			total, parts, m["sr_router_responses_total"], m["sr_router_rejected_total"], m["sr_router_errors_total"])
	}
	if m["sr_router_ratelimited_total"]+m["sr_router_sheds_total"] > m["sr_router_rejected_total"] {
		t.Fatalf("rate-limit and shed 429s (%g + %g) exceed rejected %g",
			m["sr_router_ratelimited_total"], m["sr_router_sheds_total"], m["sr_router_rejected_total"])
	}
}

// TestRouterHedgeIdentityFromScrape runs hedged traffic over a 60 ms
// and a 200 ms replica, so hedges both win (primary on the slow one)
// and are wasted (primary on the fast one), and checks on the scraped
// text that every launched hedge is counted exactly once:
// launched = won + wasted.
func TestRouterHedgeIdentityFromScrape(t *testing.T) {
	fast, slow := newUpstream(t, "FAST"), newUpstream(t, "SLOW")
	fast.delay.Store(int64(60 * time.Millisecond))
	slow.delay.Store(int64(200 * time.Millisecond))
	rt, _ := newTestRouter(t, Config{
		Placement: "hash", Hedge: true, HedgeFloor: 20 * time.Millisecond,
		Pool: PoolConfig{HealthInterval: time.Hour},
	}, fast, slow)
	for i := 0; i < 3; i++ {
		for idx := 0; idx < 2; idx++ {
			if rr := post(rt, "/v1/upscale", bodyOn(rt, idx), nil); rr.Code != http.StatusOK {
				t.Fatalf("hedged request: %d", rr.Code)
			}
		}
	}
	m := scrapeMetrics(t, rt)
	launched := m["sr_router_hedge_launched_total"]
	won, wasted := m["sr_router_hedge_won_total"], m["sr_router_hedge_wasted_total"]
	if launched == 0 || launched != won+wasted {
		t.Fatalf("hedges launched %g, won %g + wasted %g", launched, won, wasted)
	}
}
