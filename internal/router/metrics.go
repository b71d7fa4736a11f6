package router

import (
	"fmt"

	"repro/internal/trace"
)

// Metrics bundles the router's instruments, registered on the same
// trace.Metrics registry the trainer and replicas use. NewMetrics(nil,
// n) returns a bundle of no-op instruments, which the router and pool
// substitute for a nil bundle, so the proxy hot path needs no
// enabled-checks. The trace registry has no label support, so
// per-backend series carry the backend index in the metric name
// (sr_router_backend_up_0, ...), fixed at pool construction.
type Metrics struct {
	// Requests counts requests received; the embedded Outcomes
	// (Responses, Rejected, Errors) partition their outcomes like the
	// replica-side sr_requests family (2xx / 429+503 / other).
	Requests *trace.Counter
	trace.Outcomes
	// RateLimited counts 429s from the per-client token bucket; Sheds
	// counts 429s from fleet-saturation admission control. Both are
	// also in Rejected.
	RateLimited *trace.Counter
	Sheds       *trace.Counter
	// Retries counts replayed attempts after a retryable backend
	// failure (transport error, drain 503, backend 429).
	Retries *trace.Counter
	// HedgesLaunched counts hedge attempts launched after the p95
	// delay; HedgeWins counts the subset that beat the primary, and
	// HedgeWasted the losers whose work was cancelled or discarded —
	// launched = won + wasted, so wasted/launched is the misfire rate
	// the hedge delay should be tuned against.
	HedgesLaunched *trace.Counter
	HedgeWins      *trace.Counter
	HedgeWasted    *trace.Counter
	// Ejections and Readmits count backend rotation transitions;
	// BackendsHealthy gauges the current rotation size.
	Ejections       *trace.Counter
	Readmits        *trace.Counter
	BackendsHealthy *trace.Gauge
	// ProxySeconds histograms end-to-end routed latency (placement,
	// all attempts, response copy-out).
	ProxySeconds *trace.Histogram

	backendUp   []*trace.Gauge
	backendLoad []*trace.Gauge
	backendReqs []*trace.Counter
}

// NewMetrics registers the router instruments for n backends on m
// (nil m → a bundle of no-op instruments).
func NewMetrics(m *trace.Metrics, n int) *Metrics {
	r := &Metrics{
		Requests: m.Counter("sr_router_requests_total", "Requests received by the router (upscale, models, healthz)."),
		Outcomes: trace.Outcomes{
			Responses: m.Counter("sr_router_responses_total", "Router requests answered 2xx."),
			Rejected:  m.Counter("sr_router_rejected_total", "Requests rejected with 429 or 503 at the router."),
			Errors:    m.Counter("sr_router_errors_total", "Router requests that failed with another error."),
		},
		RateLimited:     m.Counter("sr_router_ratelimited_total", "429s from the per-client token bucket."),
		Sheds:           m.Counter("sr_router_sheds_total", "429s from fleet-saturation admission control."),
		Retries:         m.Counter("sr_router_retries_total", "Attempts replayed on another backend after a retryable failure."),
		HedgesLaunched:  m.Counter("sr_router_hedge_launched_total", "Hedge attempts launched after the p95 delay."),
		HedgeWins:       m.Counter("sr_router_hedge_won_total", "Hedge attempts that beat the primary."),
		HedgeWasted:     m.Counter("sr_router_hedge_wasted_total", "Hedge attempts that lost (cancelled or their result discarded)."),
		Ejections:       m.Counter("sr_router_ejections_total", "Backends removed from rotation (probe failure, transport error, or drain)."),
		Readmits:        m.Counter("sr_router_readmits_total", "Backends re-admitted after consecutive probe passes."),
		BackendsHealthy: m.Gauge("sr_router_backends_healthy", "Backends currently in rotation."),
		ProxySeconds:    m.Histogram("sr_router_proxy_seconds", "End-to-end routed request latency.", trace.DurationBuckets),
	}
	for i := 0; i < n; i++ {
		r.backendUp = append(r.backendUp,
			m.Gauge(fmt.Sprintf("sr_router_backend_up_%d", i), fmt.Sprintf("Backend %d is in rotation (1) or ejected (0).", i)))
		r.backendLoad = append(r.backendLoad,
			m.Gauge(fmt.Sprintf("sr_router_backend_inflight_%d", i), fmt.Sprintf("Requests in flight against backend %d.", i)))
		r.backendReqs = append(r.backendReqs,
			m.Counter(fmt.Sprintf("sr_router_backend_requests_total_%d", i), fmt.Sprintf("Attempts sent to backend %d.", i)))
	}
	return r
}
