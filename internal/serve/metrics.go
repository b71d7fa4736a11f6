package serve

import (
	"repro/internal/serve/cache"
	"repro/internal/trace"
)

// BatchBuckets histogram the coalesced batch sizes.
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32}

// Metrics bundles the serving instruments, registered on a trace.Metrics
// registry and scraped from the same /metrics endpoint the trainer uses.
// NewMetrics(nil) returns a bundle of nil instruments, each a no-op; the
// engine, batcher and server substitute it for a nil bundle once, at
// construction, and use the instruments directly after that.
type Metrics struct {
	// Requests counts HTTP requests received; the embedded Outcomes
	// (Responses, Rejected, Errors) partition their outcomes (2xx /
	// 429+503 / other).
	Requests *trace.Counter
	trace.Outcomes
	// Submits counts batcher submissions (a tiled request submits once
	// per tile); Batches counts coalesced forwards, and BatchSize
	// histograms how full they were.
	Submits   *trace.Counter
	Batches   *trace.Counter
	BatchSize *trace.Histogram
	// Tiles counts tile submissions from split requests.
	Tiles *trace.Counter
	// BatchCloseFull/Timeout/Shape/Drain partition sr_batches_total by
	// why the worker stopped collecting: capacity reached, MaxDelay
	// expired, a different-shaped follower arrived, or shutdown drain.
	// A healthy saturated server closes on full; a mostly-idle one on
	// timeout.
	BatchCloseFull    *trace.Counter
	BatchCloseTimeout *trace.Counter
	BatchCloseShape   *trace.Counter
	BatchCloseDrain   *trace.Counter
	// QueueDepth is the live pending-request queue length;
	// QueueSeconds histograms how long requests waited in it.
	QueueDepth   *trace.Gauge
	QueueSeconds *trace.Histogram
	// RequestSeconds histograms end-to-end upscale latency (decode and
	// encode excluded; queue, batching, and forward included).
	RequestSeconds *trace.Histogram
	// Cache bundles the sr_cache_* result-cache instruments.
	Cache *cache.Metrics
}

// NewMetrics registers the serving instruments on m (nil m → a bundle
// of no-op instruments).
func NewMetrics(m *trace.Metrics) *Metrics {
	return &Metrics{
		Requests: m.Counter("sr_requests_total", "HTTP requests received (upscale, models, healthz)."),
		Outcomes: trace.Outcomes{
			Responses: m.Counter("sr_responses_total", "Requests answered 2xx."),
			Rejected:  m.Counter("sr_rejected_total", "Requests rejected by backpressure (429) or drain (503)."),
			Errors:    m.Counter("sr_errors_total", "Requests failed with a client or server error."),
		},
		Submits:           m.Counter("sr_submits_total", "Batcher submissions (tiles submit individually)."),
		Batches:           m.Counter("sr_batches_total", "Coalesced micro-batch forwards."),
		BatchSize:         m.Histogram("sr_batch_size", "Images per coalesced forward.", BatchBuckets),
		Tiles:             m.Counter("sr_tiles_total", "Tiles produced by splitting large images."),
		BatchCloseFull:    m.Counter("sr_batch_close_full_total", "Batches closed by reaching MaxBatch."),
		BatchCloseTimeout: m.Counter("sr_batch_close_timeout_total", "Batches closed by the MaxDelay timer."),
		BatchCloseShape:   m.Counter("sr_batch_close_shape_total", "Batches closed by a different-shaped follower."),
		BatchCloseDrain:   m.Counter("sr_batch_close_drain_total", "Batches closed by shutdown drain."),
		QueueDepth:        m.Gauge("sr_queue_depth", "Pending requests in the batching queue."),
		QueueSeconds:      m.Histogram("sr_queue_seconds", "Time requests spent queued before a worker picked them up.", trace.DurationBuckets),
		RequestSeconds:    m.Histogram("sr_request_seconds", "End-to-end upscale latency (queue + batching + forward).", trace.DurationBuckets),
		Cache:             cache.NewMetrics(m),
	}
}
