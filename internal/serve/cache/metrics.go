package cache

import "repro/internal/trace"

// Metrics bundles the result-cache instruments, registered on the same
// trace.Metrics registry as the sr_* serving counters and scraped from
// the shared /metrics endpoint. NewMetrics(nil) returns a bundle of
// no-op instruments, which New substitutes for a nil bundle, so the
// lookup hot path needs no enabled-checks.
type Metrics struct {
	// Hits and Misses partition lookups: a hit copies a stored result
	// out without touching the batcher; a miss falls through to the
	// singleflight compute path.
	Hits   *trace.Counter
	Misses *trace.Counter
	// Evictions counts entries dropped to stay inside the byte budget.
	Evictions *trace.Counter
	// InflightWaits counts requests that parked on another request's
	// in-flight forward instead of computing their own; InflightCancels
	// counts waiters that gave up early because their request context
	// was cancelled (the shared forward keeps running).
	InflightWaits   *trace.Counter
	InflightCancels *trace.Counter
	// Bytes and Entries gauge the live cache footprint.
	Bytes   *trace.Gauge
	Entries *trace.Gauge
}

// NewMetrics registers the cache instruments on m (nil m → a bundle of
// no-op instruments).
func NewMetrics(m *trace.Metrics) *Metrics {
	return &Metrics{
		Hits:            m.Counter("sr_cache_hit_total", "Result-cache hits (forward skipped, stored tensor copied out)."),
		Misses:          m.Counter("sr_cache_miss_total", "Result-cache lookups that found nothing (the request computes or joins an in-flight forward)."),
		Evictions:       m.Counter("sr_cache_evict_total", "Entries evicted to stay inside the byte budget."),
		InflightWaits:   m.Counter("sr_cache_inflight_wait_total", "Requests collapsed onto another request's in-flight forward."),
		InflightCancels: m.Counter("sr_cache_inflight_cancel_total", "Singleflight waiters cancelled by their request context."),
		Bytes:           m.Gauge("sr_cache_bytes", "Bytes of upscaled tensors currently cached."),
		Entries:         m.Gauge("sr_cache_entries", "Entries currently cached."),
	}
}
