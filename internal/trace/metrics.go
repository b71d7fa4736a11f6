package trace

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a registry of counters, gauges, and histograms rendered in
// Prometheus text exposition format. Registration takes a lock; the
// instruments themselves are single atomics (or atomic arrays), so
// updating them from the training hot path is lock-free and
// allocation-free.
type Metrics struct {
	mu   sync.Mutex
	fams []*family
}

type family struct {
	name, help, typ string
	// labels is the pre-rendered label set ({k="v",...}) for labeled
	// gauges such as sr_build_info; empty for plain instruments.
	labels string
	c      *Counter
	g      *Gauge
	// gf, when set, is sampled at render time (live runtime gauges).
	gf func() float64
	h  *Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// exemplar links one observed value in a histogram bucket to the trace
// that produced it (OpenMetrics exemplar semantics).
type exemplar struct {
	traceID string
	value   float64
	tsMilli int64
}

// Histogram counts observations into cumulative buckets (Prometheus
// histogram semantics: bucket i counts observations ≤ edges[i], plus an
// implicit +Inf bucket) and tracks the sum of observed values.
type Histogram struct {
	edges   []float64
	counts  []atomic.Int64 // len(edges)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
	// exemplars holds the latest retained-trace exemplar per bucket,
	// written only by Exemplar (the tail sampler's kept path), so the
	// Observe hot path never touches them.
	exemplars []atomic.Pointer[exemplar]
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.edges) && v > h.edges[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Exemplar attaches traceID as the exemplar of the bucket v falls in,
// so a scrape can jump from a latency bucket straight to a retained
// trace in /debug/traces. Call it only for traces the tail sampler
// kept — it allocates, and an exemplar pointing at an unretained trace
// would dangle.
func (h *Histogram) Exemplar(v float64, traceID string) {
	if h == nil || traceID == "" {
		return
	}
	i := 0
	for i < len(h.edges) && v > h.edges[i] {
		i++
	}
	h.exemplars[i].Store(&exemplar{traceID: traceID, value: v, tsMilli: time.Now().UnixMilli()})
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Counter registers (or returns the existing) counter with this name.
func (m *Metrics) Counter(name, help string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.find(name); f != nil {
		return f.c
	}
	f := &family{name: name, help: help, typ: "counter", c: &Counter{}}
	m.fams = append(m.fams, f)
	return f.c
}

// Gauge registers (or returns the existing) gauge with this name.
func (m *Metrics) Gauge(name, help string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.find(name); f != nil {
		return f.g
	}
	f := &family{name: name, help: help, typ: "gauge", g: &Gauge{}}
	m.fams = append(m.fams, f)
	return f.g
}

// Histogram registers (or returns the existing) histogram with the
// given ascending bucket upper bounds.
func (m *Metrics) Histogram(name, help string, buckets []float64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.find(name); f != nil {
		return f.h
	}
	edges := append([]float64(nil), buckets...)
	sort.Float64s(edges)
	f := &family{name: name, help: help, typ: "histogram",
		h: &Histogram{edges: edges,
			counts:    make([]atomic.Int64, len(edges)+1),
			exemplars: make([]atomic.Pointer[exemplar], len(edges)+1)}}
	m.fams = append(m.fams, f)
	return f.h
}

// GaugeWithLabels registers a gauge carrying a fixed label set (e.g.
// sr_build_info{version="...",variant="..."}). Labels are rendered in
// the order given; the (name, label set) pair is the identity.
func (m *Metrics) GaugeWithLabels(name, help string, labels [][2]string) *Gauge {
	if m == nil {
		return nil
	}
	var b []byte
	b = append(b, '{')
	for i, kv := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[0]...)
		b = append(b, '=', '"')
		b = append(b, kv[1]...)
		b = append(b, '"')
	}
	b = append(b, '}')
	ls := string(b)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.fams {
		if f.name == name && f.labels == ls {
			return f.g
		}
	}
	f := &family{name: name, help: help, typ: "gauge", labels: ls, g: &Gauge{}}
	m.fams = append(m.fams, f)
	return f.g
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time — for live process state (goroutine count, heap bytes) that
// would otherwise need a background updater.
func (m *Metrics) GaugeFunc(name, help string, fn func() float64) {
	if m == nil || fn == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(name) != nil {
		return
	}
	m.fams = append(m.fams, &family{name: name, help: help, typ: "gauge", gf: fn})
}

// find returns the family with the given name; caller holds m.mu.
func (m *Metrics) find(name string) *family {
	for _, f := range m.fams {
		if f.name == name {
			return f
		}
	}
	return nil
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (the format scraped from /metrics).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	fams := append([]*family(nil), m.fams...)
	m.mu.Unlock()
	seen := make(map[string]bool, len(fams))
	for _, f := range fams {
		if !seen[f.name] {
			seen[f.name] = true
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
				return err
			}
		}
		var err error
		switch f.typ {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", f.name, f.c.Value())
		case "gauge":
			v := f.g.Value()
			if f.gf != nil {
				v = f.gf()
			}
			_, err = fmt.Fprintf(w, "%s%s %g\n", f.name, f.labels, v)
		case "histogram":
			var cum int64
			for i, edge := range f.h.edges {
				cum += f.h.counts[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d%s\n", f.name, edge, cum, exemplarSuffix(f.h, i)); err != nil {
					return err
				}
			}
			cum += f.h.counts[len(f.h.edges)].Load()
			_, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n%s_sum %g\n%s_count %d\n",
				f.name, cum, exemplarSuffix(f.h, len(f.h.edges)), f.name, f.h.Sum(), f.name, f.h.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// exemplarSuffix renders bucket i's exemplar in OpenMetrics style
// (" # {trace_id=\"...\"} value timestamp") — an extension to the 0.0.4
// text format understood by OpenMetrics-aware scrapers and ignored as a
// comment by plain ones.
func exemplarSuffix(h *Histogram, i int) string {
	if i >= len(h.exemplars) {
		return ""
	}
	e := h.exemplars[i].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %g %.3f", e.traceID, e.value, float64(e.tsMilli)/1e3)
}

// Handler serves the registry at any path (mount it at /metrics).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = m.WritePrometheus(w)
	})
}

// MetricsServer is a live observability endpoint: /metrics in
// Prometheus format plus the full /debug/pprof suite.
type MetricsServer struct {
	srv *http.Server
	ln  net.Listener
}

// ServeMetrics starts the endpoint on addr (e.g. ":9090"; ":0" picks a
// free port) and serves in a background goroutine until Close.
func ServeMetrics(addr string, m *Metrics) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("trace: metrics endpoint: %w", err)
	}
	s := &MetricsServer{srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// BuildVersion identifies this build in sr_build_info. Bump per release
// tag; binaries carry it so a scrape can tell which code a replica runs.
const BuildVersion = "0.9.0"

// RegisterBuildInfo registers the constant-1 sr_build_info gauge whose
// labels identify the running build (version + variant, e.g. "serve" or
// "router").
func RegisterBuildInfo(m *Metrics, version, variant string) {
	m.GaugeWithLabels("sr_build_info",
		"Build identity of this process; constant 1, labels carry the information.",
		[][2]string{{"version", version}, {"variant", variant}}).Set(1)
}

// RegisterRuntimeMetrics registers live process gauges (goroutine count
// and heap bytes), sampled at scrape time.
func RegisterRuntimeMetrics(m *Metrics) {
	m.GaugeFunc("go_goroutines", "Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	m.GaugeFunc("go_heap_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// DurationBuckets are generic latency bucket bounds in seconds
// (100 µs … 30 s).
var DurationBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// TrainMetrics bundles the live training instruments the trainer, the
// Horovod engine, and the elastic driver update. NewTrainMetrics(nil)
// returns a bundle of nil instruments, each a no-op, so instrumented
// code substitutes it once for a missing bundle and needs no
// enabled-checks after that.
type TrainMetrics struct {
	// Steps and Images count completed optimization steps and globally
	// processed images (rank 0 updates them).
	Steps  *Counter
	Images *Counter
	// BytesReduced totals gradient bytes through the engine's allreduce;
	// AllreduceBytes histograms the fusion-group message sizes into the
	// hvprof size classes.
	BytesReduced   *Counter
	AllreduceBytes *Histogram
	// StepSeconds and DrainSeconds histogram the step latency and the
	// exposed communication wait per step.
	StepSeconds  *Histogram
	DrainSeconds *Histogram
	// Restarts and FailedRanks count elastic-recovery events.
	Restarts    *Counter
	FailedRanks *Counter
	// ImagesPerSec and WorldSize are live gauges.
	ImagesPerSec *Gauge
	WorldSize    *Gauge
	// Checkpoints counts distributed checkpoints written.
	Checkpoints *Counter
}

// NewTrainMetrics registers the standard training instruments on m.
func NewTrainMetrics(m *Metrics) *TrainMetrics {
	return &TrainMetrics{
		Steps:          m.Counter("edsr_steps_total", "Completed optimization steps."),
		Images:         m.Counter("edsr_images_total", "Images processed across all ranks."),
		BytesReduced:   m.Counter("edsr_bytes_reduced_total", "Gradient bytes allreduced by the Horovod engine."),
		AllreduceBytes: m.Histogram("edsr_allreduce_message_bytes", "Fusion-group allreduce message sizes (hvprof size classes).", MessageBuckets),
		StepSeconds:    m.Histogram("edsr_step_seconds", "Training step latency.", DurationBuckets),
		DrainSeconds:   m.Histogram("edsr_drain_seconds", "Exposed communication wait per step (DistributedOptimizer.Drain).", DurationBuckets),
		Restarts:       m.Counter("edsr_restarts_total", "Elastic restarts after rank failures."),
		FailedRanks:    m.Counter("edsr_failed_ranks_total", "Ranks lost to crashes or timeouts."),
		ImagesPerSec:   m.Gauge("edsr_images_per_second", "Current training throughput."),
		WorldSize:      m.Gauge("edsr_world_size", "Live data-parallel world size."),
		Checkpoints:    m.Counter("edsr_checkpoints_total", "Distributed checkpoints written."),
	}
}

// GobEncode and GobDecode make TrainMetrics gob-inert, like
// trace.Session: it travels in trainer.Config, whose checkpoint
// serialization must tolerate the field type even though the value is
// stripped first. Live metrics are runtime-only by design.
func (t *TrainMetrics) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode implements gob.GobDecoder as a no-op (see GobEncode).
func (t *TrainMetrics) GobDecode([]byte) error { return nil }

// ObserveStep records one completed step: n images in d, at the given
// running throughput.
func (t *TrainMetrics) ObserveStep(n int, d time.Duration, imgPerSec float64) {
	t.Steps.Inc()
	t.Images.Add(int64(n))
	t.StepSeconds.Observe(d.Seconds())
	if imgPerSec > 0 {
		t.ImagesPerSec.Set(imgPerSec)
	}
}

// Outcomes partitions HTTP responses the way every serving tier counts
// them: 2xx → Responses, 429 or 503 (backpressure, drain) → Rejected,
// anything else → Errors. With a requests counter beside it,
// requests = Responses + Rejected + Errors is a tested identity.
type Outcomes struct {
	Responses *Counter
	Rejected  *Counter
	Errors    *Counter
}

// Outcome counts one response status in its partition.
func (o *Outcomes) Outcome(code int) {
	switch {
	case code >= 200 && code < 300:
		o.Responses.Inc()
	case code == 429 || code == 503:
		o.Rejected.Inc()
	default:
		o.Errors.Inc()
	}
}
