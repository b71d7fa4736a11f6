package request

import (
	"sync"
	"sync/atomic"
	"time"

	"slices"
)

// Config tunes a Store's tail sampler and retention bound.
type Config struct {
	// Capacity is the retained-trace ring size (default 256). Memory is
	// bounded by Capacity × the per-trace span count — there is no
	// unbounded accumulation however interesting the traffic gets.
	Capacity int
	// SampleRate is the probabilistic keep rate for unremarkable
	// requests (fast, successful). 0 selects the default 0.01; negative
	// disables probabilistic sampling entirely. The decision is
	// deterministic in the trace ID, so the router and every replica
	// keep the *same* unremarkable traces and a cross-process tree can
	// be assembled after the fact.
	SampleRate float64
	// SlowPct keeps every request slower than this percentile of the
	// recent-latency window (default 90 — the slowest decile is always
	// retained). Negative disables the slow class.
	SlowPct float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SampleRate == 0 {
		c.SampleRate = 0.01
	}
	if c.SlowPct == 0 {
		c.SlowPct = 90
	}
	return c
}

// Keep reasons, in decision order.
const (
	KeptError   = "error"
	KeptForced  = "retry"
	KeptSlow    = "slow"
	KeptSampled = "sampled"
)

// Trace is one retained request: the span tree (root first) plus the
// verdict that retained it.
type Trace struct {
	ID TraceID
	// RemoteParent is the caller's span ID from the incoming
	// traceparent (0 when this process was the trace's edge).
	RemoteParent uint64
	// RootID is the root span's ID (Spans[0].ID).
	RootID uint64
	// Wall anchors the trace to the wall clock for export.
	Wall time.Time
	// Dur is the request's total wall time in nanoseconds.
	Dur int64
	// Status is the HTTP status written (0 for a transport-level loss).
	Status int
	// KeptFor is the sampling verdict: error, retry, slow, or sampled.
	KeptFor string
	// Dropped counts spans lost to collector overflow.
	Dropped uint32
	// Spans is the recorded tree, root first, in emission order.
	Spans []SpanRec
}

// latencyWindow sizes the recent-duration ring the slow threshold is
// computed from; thresholdEvery is how often (in finishes) it is
// recomputed; thresholdWarm is the minimum sample count before the
// slow class arms (a cold window would retain everything).
const (
	latencyWindow  = 512
	thresholdEvery = 32
	thresholdWarm  = 64
)

// Store owns the request-tracing state of one process: the collector
// pool, the tail sampler, and the bounded ring of retained traces. The
// sampled-out fast path — Start, a handful of Emits, Finish — performs
// zero heap allocations (enforced by TestSampledOutFastPathNoAllocs);
// retention cost is paid only for traces worth keeping.
type Store struct {
	cfg  Config
	pool sync.Pool

	// Finished-request accounting.
	total, droppedSpans                     atomic.Int64
	keptErr, keptForced, keptSlow, keptSamp atomic.Int64
	thresh                                  atomic.Int64 // current slow threshold, ns

	mu       sync.Mutex
	retained []*Trace // ring, nil until first keep
	next     int
	window   [latencyWindow]int64
	wn       int // filled entries
	wnext    int // ring cursor
	scratch  [latencyWindow]int64
	finishes int
}

// NewStore builds a store; the zero Config selects the defaults
// (capacity 256, slowest decile + 1% sampled).
func NewStore(cfg Config) *Store {
	s := &Store{cfg: cfg.withDefaults()}
	s.pool.New = func() any { return new(Active) }
	return s
}

// Config returns the store's resolved configuration.
func (s *Store) Config() Config {
	if s == nil {
		return Config{}
	}
	return s.cfg
}

// Start begins collecting one request's trace. traceparent is the
// incoming W3C header ("" at the edge): a valid header joins the
// existing trace as a child of its parent span; anything malformed,
// all-zero, or future-versioned falls back to a freshly minted trace ID
// — propagation problems degrade to a trace restart, never a 4xx. A nil
// store returns a nil Active, which every method tolerates.
func (s *Store) Start(traceparent string) *Active {
	if s == nil {
		return nil
	}
	id, parent, ok := ParseTraceparent(traceparent)
	if !ok {
		id, parent = NewTraceID(), 0
	}
	a := s.pool.Get().(*Active)
	a.store = s
	a.reset(id, parent)
	return a
}

// sampleHit is the deterministic probabilistic decision: a pure
// function of the trace ID, so every process along the request's path
// reaches the same verdict for the "unremarkable" class. The ID is
// hashed first: a client may send traceparent IDs whose halves are
// counters or zero, and raw bits of those would keep all or none.
func (s *Store) sampleHit(id TraceID) bool {
	rate := s.cfg.SampleRate
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return mix64(mix64(id.Hi)+id.Lo)>>11 < uint64(rate*(1<<53))
}

// mix64 is the Murmur3 finalizer: every input bit reaches every output
// bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Finish completes the request: the root span is sealed with status,
// the tail sampler decides whether the trace is retained, and the
// collector returns to the pool. It reports the trace ID and whether
// the trace was kept (so the caller can link a histogram exemplar to
// it). a must not be used after Finish.
func (s *Store) Finish(a *Active, status int) (TraceID, bool) {
	if s == nil || a == nil {
		return TraceID{}, false
	}
	end := pkgNow()
	dur := end - a.t0
	id := a.id
	s.total.Add(1)
	if d := a.dropped.Load(); d > 0 {
		s.droppedSpans.Add(int64(d))
	}

	// Feed the latency window and periodically recompute the slow
	// threshold from a sorted copy (preallocated scratch, no allocs).
	s.mu.Lock()
	s.window[s.wnext] = dur
	s.wnext = (s.wnext + 1) % latencyWindow
	if s.wn < latencyWindow {
		s.wn++
	}
	s.finishes++
	if s.cfg.SlowPct > 0 && s.wn >= thresholdWarm && s.finishes%thresholdEvery == 0 {
		w := s.scratch[:s.wn]
		copy(w, s.window[:s.wn])
		slices.Sort(w)
		i := int(float64(s.wn) * s.cfg.SlowPct / 100)
		if i >= s.wn {
			i = s.wn - 1
		}
		s.thresh.Store(w[i])
	}
	s.mu.Unlock()

	reason := ""
	thresh := s.thresh.Load()
	switch {
	case status == 0 || status == 499 || status >= 500:
		reason = KeptError
	case a.force.Load():
		reason = KeptForced
	case s.cfg.SlowPct > 0 && thresh > 0 && dur >= thresh:
		reason = KeptSlow
	case s.sampleHit(id):
		reason = KeptSampled
	}
	if reason == "" {
		s.pool.Put(a)
		return id, false
	}

	switch reason {
	case KeptError:
		s.keptErr.Add(1)
	case KeptForced:
		s.keptForced.Add(1)
	case KeptSlow:
		s.keptSlow.Add(1)
	case KeptSampled:
		s.keptSamp.Add(1)
	}
	n := int(a.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	t := &Trace{
		ID:           id,
		RemoteParent: a.remoteParent,
		RootID:       a.rootID,
		Wall:         a.wall,
		Dur:          dur,
		Status:       status,
		KeptFor:      reason,
		Dropped:      a.dropped.Load(),
		Spans:        make([]SpanRec, 0, n+1),
	}
	t.Spans = append(t.Spans, SpanRec{
		ID: a.rootID, Parent: a.remoteParent,
		Start: 0, Dur: dur,
		Stage: StageRoot, Backend: -1, Extra: int32(status),
	})
	t.Spans = append(t.Spans, a.spans[:n]...)
	s.pool.Put(a)

	s.mu.Lock()
	if s.retained == nil {
		s.retained = make([]*Trace, 0, s.cfg.Capacity)
	}
	if len(s.retained) < s.cfg.Capacity {
		s.retained = append(s.retained, t)
	} else {
		s.retained[s.next] = t
		s.next = (s.next + 1) % s.cfg.Capacity
	}
	s.mu.Unlock()
	return id, true
}

// Retained snapshots the retained traces, oldest first.
func (s *Store) Retained() []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Trace, 0, len(s.retained))
	out = append(out, s.retained[s.next:]...)
	out = append(out, s.retained[:s.next]...)
	return out
}

// Stats is a point-in-time summary of the store's sampling activity.
type Stats struct {
	Finished     int64
	KeptErrors   int64
	KeptRetried  int64
	KeptSlow     int64
	KeptSampled  int64
	DroppedSpans int64
	// SlowThreshold is the current slow-class cutoff in nanoseconds
	// (0 until the window warms up).
	SlowThreshold int64
}

// Kept totals the retained-trace count across classes.
func (st Stats) Kept() int64 {
	return st.KeptErrors + st.KeptRetried + st.KeptSlow + st.KeptSampled
}

// Stats snapshots the sampling counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Finished:      s.total.Load(),
		KeptErrors:    s.keptErr.Load(),
		KeptRetried:   s.keptForced.Load(),
		KeptSlow:      s.keptSlow.Load(),
		KeptSampled:   s.keptSamp.Load(),
		DroppedSpans:  s.droppedSpans.Load(),
		SlowThreshold: s.thresh.Load(),
	}
}
