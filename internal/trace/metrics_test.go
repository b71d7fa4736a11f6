package trace

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d", c.Value())
	}
	if m.Counter("c_total", "dup") != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := m.Gauge("g", "help")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge %g", g.Value())
	}
	h := m.Histogram("h_seconds", "help", []float64{1, 10})
	for _, v := range []float64{0.5, 1.0, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("count %d sum %g", h.Count(), h.Sum())
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.Counter("x", "").Inc()
	m.Gauge("y", "").Set(1)
	m.Histogram("z", "", DurationBuckets).Observe(1)
	if err := m.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	// A nil registry yields a bundle of no-op instruments, not a nil
	// bundle: consumers substitute it once and never check again.
	tm := NewTrainMetrics(nil)
	tm.ObserveStep(4, time.Second, 10)
	if tm.Steps != nil || tm.Steps.Value() != 0 {
		t.Fatal("NewTrainMetrics(nil) instruments should be nil no-ops")
	}
}

func TestPrometheusExposition(t *testing.T) {
	m := NewMetrics()
	m.Counter("steps_total", "Completed steps.").Add(7)
	m.Gauge("world_size", "Ranks.").Set(4)
	h := m.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP steps_total Completed steps.",
		"# TYPE steps_total counter",
		"steps_total 7",
		"# TYPE world_size gauge",
		"world_size 4",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewMetrics().Histogram("h", "", []float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 4000 {
		t.Fatalf("count %d sum %g", h.Count(), h.Sum())
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	m := NewMetrics()
	m.Counter("edsr_steps_total", "Steps.").Add(3)
	srv, err := ServeMetrics("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "edsr_steps_total 3") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}

func TestTrainMetricsObserveStep(t *testing.T) {
	m := NewMetrics()
	tm := NewTrainMetrics(m)
	tm.WorldSize.Set(4)
	tm.ObserveStep(16, 100*time.Millisecond, 160)
	tm.ObserveStep(16, 100*time.Millisecond, 0) // 0 throughput must not clobber the gauge
	if tm.Steps.Value() != 2 || tm.Images.Value() != 32 {
		t.Fatalf("steps %d images %d", tm.Steps.Value(), tm.Images.Value())
	}
	if tm.StepSeconds.Count() != 2 {
		t.Fatalf("step histogram count %d", tm.StepSeconds.Count())
	}
	if tm.ImagesPerSec.Value() != 160 {
		t.Fatalf("throughput gauge %g", tm.ImagesPerSec.Value())
	}
}
