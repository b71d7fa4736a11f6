package request

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// finishOne runs one Start → spans → Finish cycle against s and returns
// the keep verdict.
func finishOne(s *Store, status int, force bool, spanCount int) (TraceID, bool) {
	a := s.Start("")
	for i := 0; i < spanCount; i++ {
		start := a.Now()
		a.EmitStage(StageServeDecode, a.Root(), start, 64)
	}
	if force {
		a.ForceKeep()
	}
	return s.Finish(a, status)
}

// TestTailSamplingKeepClasses pins the verdict ladder: errors always
// kept, forced (retried) requests always kept, everything else dropped
// when sampling and the slow class are disabled.
func TestTailSamplingKeepClasses(t *testing.T) {
	s := NewStore(Config{Capacity: 16, SampleRate: -1, SlowPct: -1})

	if _, kept := finishOne(s, 200, false, 2); kept {
		t.Fatal("unremarkable 200 kept with sampling disabled")
	}
	for _, status := range []int{0, 499, 500, 503} {
		if _, kept := finishOne(s, status, false, 2); !kept {
			t.Fatalf("status %d not kept as an error", status)
		}
	}
	if _, kept := finishOne(s, 200, true, 2); !kept {
		t.Fatal("ForceKeep (retried request) not retained")
	}

	st := s.Stats()
	if st.Finished != 6 || st.KeptErrors != 4 || st.KeptRetried != 1 || st.KeptSampled != 0 || st.KeptSlow != 0 {
		t.Fatalf("stats %+v, want 6 finished / 4 errors / 1 retried", st)
	}
	for _, tr := range s.Retained() {
		if tr.KeptFor != KeptError && tr.KeptFor != KeptForced {
			t.Fatalf("retained trace kept for %q", tr.KeptFor)
		}
		if tr.Spans[0].Stage != StageRoot || tr.Spans[0].Extra != int32(tr.Status) {
			t.Fatalf("root span not sealed with status: %+v", tr.Spans[0])
		}
	}

	// SampleRate 1 keeps everything, deterministically in the trace ID.
	all := NewStore(Config{Capacity: 16, SampleRate: 1, SlowPct: -1})
	id, kept := finishOne(all, 200, false, 1)
	if !kept {
		t.Fatal("SampleRate 1 dropped a request")
	}
	if !all.sampleHit(id) {
		t.Fatal("sampleHit disagrees with the keep decision")
	}
	if s.sampleHit(id) {
		t.Fatal("sampleHit fired with probabilistic sampling disabled")
	}
}

// TestSampleRateHoldsForStructuredIDs: the probabilistic class keeps its
// configured share of traces whatever shape the client's IDs have. Raw
// low bits of a counter or a zero half would keep every trace.
func TestSampleRateHoldsForStructuredIDs(t *testing.T) {
	const n, rate = 20000, 0.01
	s := NewStore(Config{SampleRate: rate, SlowPct: -1})
	for _, tc := range []struct {
		name string
		id   func(i uint64) TraceID
	}{
		{"sequential", func(i uint64) TraceID { return TraceID{Hi: 1, Lo: i + 1} }},
		{"all-zero-low", func(i uint64) TraceID { return TraceID{Hi: i + 1} }},
		{"high-bits-only", func(i uint64) TraceID { return TraceID{Hi: (i + 1) << 40, Lo: (i + 1) << 40} }},
	} {
		kept := 0
		for i := uint64(0); i < n; i++ {
			if s.sampleHit(tc.id(i)) {
				kept++
			}
		}
		if share := float64(kept) / n; share < rate/2 || share > rate*2 {
			t.Errorf("%s ids: kept %d of %d (%.2f%%), want 0.5-2%%", tc.name, kept, n, 100*share)
		}
	}
}

// TestSlowClassRetainsTail warms the latency window with fast requests,
// then checks that an order-of-magnitude straggler is retained as
// "slow" once the threshold arms.
func TestSlowClassRetainsTail(t *testing.T) {
	s := NewStore(Config{Capacity: 512, SampleRate: -1, SlowPct: 90})

	// Warm the window past thresholdWarm with fast requests so the
	// threshold recompute arms.
	for i := 0; i < thresholdWarm+thresholdEvery; i++ {
		a := s.Start("")
		s.Finish(a, 200)
	}
	if s.Stats().SlowThreshold <= 0 {
		t.Fatal("slow threshold did not arm after warmup")
	}

	a := s.Start("")
	time.Sleep(20 * time.Millisecond) // ≫ any warmup request's wall time
	if _, kept := s.Finish(a, 200); !kept {
		t.Fatal("20ms straggler not retained above a microsecond-scale threshold")
	}
	traces := s.Retained()
	last := traces[len(traces)-1]
	if last.KeptFor != KeptSlow {
		t.Fatalf("straggler kept for %q, want %q", last.KeptFor, KeptSlow)
	}
}

// TestRetentionBounded pins the memory bound: the ring holds exactly
// Capacity traces, oldest evicted first.
func TestRetentionBounded(t *testing.T) {
	s := NewStore(Config{Capacity: 4, SampleRate: -1, SlowPct: -1})
	var ids []TraceID
	for i := 0; i < 10; i++ {
		id, kept := finishOne(s, 500, false, 1)
		if !kept {
			t.Fatal("error trace dropped")
		}
		ids = append(ids, id)
	}
	got := s.Retained()
	if len(got) != 4 {
		t.Fatalf("retained %d traces with capacity 4", len(got))
	}
	for i, tr := range got {
		if want := ids[len(ids)-4+i]; tr.ID != want {
			t.Fatalf("ring slot %d holds %s, want %s (oldest-first order)", i, tr.ID, want)
		}
	}
}

// TestSpanOverflowCountsDropped pins the fixed-size collector: spans
// past MaxSpans are counted, not stored, and nothing crashes.
func TestSpanOverflowCountsDropped(t *testing.T) {
	s := NewStore(Config{Capacity: 4, SampleRate: -1, SlowPct: -1})
	a := s.Start("")
	for i := 0; i < MaxSpans+10; i++ {
		a.EmitStage(StageServeForward, a.Root(), a.Now(), 0)
	}
	if _, kept := s.Finish(a, 500); !kept {
		t.Fatal("error trace dropped")
	}
	tr := s.Retained()[0]
	if tr.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped)
	}
	if len(tr.Spans) != MaxSpans+1 { // +1 root
		t.Fatalf("stored %d spans, want %d", len(tr.Spans), MaxSpans+1)
	}
}

// TestAttributionMergesIntervals checks the attribution math on a
// hand-built trace: concurrent same-label spans merge (no double
// counting), cancelled hedges get their own label, covered is the
// union fraction.
func TestAttributionMergesIntervals(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := &Trace{
		Dur: 100 * ms,
		Spans: []SpanRec{
			{Stage: StageRoot, Dur: 100 * ms},
			// Two overlapping forwards: [0,60) ∪ [40,80) = 80ms, not 100.
			{Stage: StageServeForward, Start: 0, Dur: 60 * ms},
			{Stage: StageServeForward, Start: 40 * ms, Dur: 40 * ms},
			// A cancelled hedge attempt gets its own label.
			{Stage: StageRouterAttempt, Start: 10 * ms, Dur: 30 * ms, Flags: FlagHedge | FlagCancelled},
			// A span leaking past the root is clamped to the wall time.
			{Stage: StageServeEncode, Start: 90 * ms, Dur: 20 * ms},
		},
	}
	rows, covered := tr.Attribution()
	byLabel := map[string]AttrRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if r := byLabel["serve/forward"]; r.Dur != 80*ms {
		t.Fatalf("overlapping forwards attributed %v, want 80ms (merged union)", time.Duration(r.Dur))
	}
	if r := byLabel["router/attempt (cancelled)"]; r.Dur != 30*ms {
		t.Fatalf("cancelled hedge attributed %v, want 30ms under its own label", time.Duration(r.Dur))
	}
	if r := byLabel["serve/encode"]; r.Dur != 10*ms {
		t.Fatalf("overflowing span attributed %v, want clamped 10ms", time.Duration(r.Dur))
	}
	// Union: [0,80) ∪ [90,100) = 90ms of 100ms.
	if covered < 0.899 || covered > 0.901 {
		t.Fatalf("covered %.3f, want 0.9", covered)
	}
	if rows[0].Label != "serve/forward" {
		t.Fatalf("rows not sorted by duration: first is %q", rows[0].Label)
	}
}

// TestDebugHandler exercises /debug/traces in both formats plus the
// method guard.
func TestDebugHandler(t *testing.T) {
	s := NewStore(Config{Capacity: 8, SampleRate: -1, SlowPct: -1})
	id, _ := finishOne(s, 500, false, 3)
	h := s.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), id.String()) {
		t.Fatalf("text view %d, missing trace %s:\n%s", rr.Code, id, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "serve/decode") {
		t.Fatalf("text view lacks per-stage attribution:\n%s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces?format=perfetto", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("perfetto view Content-Type %q", ct)
	}
	var payload struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("perfetto output is not JSON: %v", err)
	}
	// Spans are complete events, or instants when they took no
	// measurable time; the Chrome schema itself is checked by
	// trace:TestRequestTracesChromeSchema.
	var spans, meta int
	for _, e := range payload.TraceEvents {
		switch e.Ph {
		case "X", "i":
			spans++
		case "M":
			meta++
		}
	}
	if spans != 4 || meta == 0 { // root + 3 decode spans
		t.Fatalf("perfetto events: %d spans / %d metadata, want 4 / >0", spans, meta)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rr.Code != http.StatusMethodNotAllowed || rr.Header().Get("Allow") != http.MethodGet {
		t.Fatalf("POST /debug/traces: %d Allow=%q", rr.Code, rr.Header().Get("Allow"))
	}
}

// TestSampledOutFastPathNoAllocs enforces the package's core
// performance contract: a request that the tail sampler drops — the
// overwhelming majority in production — must complete its entire
// Start → Emit×N → Finish cycle without a single heap allocation.
func TestSampledOutFastPathNoAllocs(t *testing.T) {
	s := NewStore(Config{Capacity: 16, SampleRate: -1, SlowPct: -1})
	allocs := testing.AllocsPerRun(200, func() {
		a := s.Start("")
		root := a.Root()
		start := a.Now()
		a.Emit(StageServeDecode, NewSpanID(), root, start, a.Now(), 4096, 0, -1, 0)
		a.Emit(StageServeQueue, NewSpanID(), root, start, a.Now(), 0, 0, -1, 0)
		a.Emit(StageServeForward, NewSpanID(), root, start, a.Now(), 4096, 0, -1, 4)
		a.Emit(StageServeEncode, NewSpanID(), root, start, a.Now(), 8192, 0, -1, 0)
		if _, kept := s.Finish(a, 200); kept {
			t.Fatal("fast-path request unexpectedly retained")
		}
	})
	if allocs != 0 {
		t.Fatalf("sampled-out fast path allocates %.1f times per request, want 0", allocs)
	}

	// The same holds when joining an existing trace from a header.
	tp := Traceparent(NewTraceID(), NewSpanID())
	allocs = testing.AllocsPerRun(200, func() {
		a := s.Start(tp)
		a.EmitStage(StageServeDecode, a.Root(), a.Now(), 64)
		s.Finish(a, 200)
	})
	if allocs != 0 {
		t.Fatalf("joined-trace fast path allocates %.1f times per request, want 0", allocs)
	}
}
