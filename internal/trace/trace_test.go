package trace

import (
	"sync"
	"testing"
	"time"
)

func TestCategoryNamesRoundTrip(t *testing.T) {
	for c := Category(0); c < numCategories; c++ {
		if got := CategoryOf(c.String()); got != c {
			t.Errorf("CategoryOf(%q) = %v, want %v", c.String(), got, c)
		}
	}
	if got := CategoryOf("no-such-op"); got != CatOther {
		t.Errorf("unknown op -> %v, want CatOther", got)
	}
}

func TestHvprofOpFolding(t *testing.T) {
	for _, c := range []Category{CatAllreduceRing, CatAllreduceRecDbl, CatAllreduceNaive,
		CatAllreduceFP16, CatAllreduceTopK, CatAllreduceHier, CatNegotiate} {
		op, ok := c.HvprofOp()
		if !ok || op != "allreduce" {
			t.Errorf("%v -> (%q, %v), want (allreduce, true)", c, op, ok)
		}
	}
	for _, c := range []Category{CatStep, CatForward, CatBackward, CatDrain, CatFusedReduce, CatCheckpoint} {
		if _, ok := c.HvprofOp(); ok {
			t.Errorf("%v should not be an hvprof collective", c)
		}
	}
}

func TestRecorderEmit(t *testing.T) {
	r := NewRecorder(3, 16)
	start := r.Now()
	time.Sleep(time.Millisecond)
	r.Emit(CatForward, TrackMain, start, 42)
	r.EmitInstant(CatGradHook, TrackMain, 7)
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
	spans := r.Spans()
	if spans[0].Cat != CatForward || spans[0].Bytes != 42 || spans[0].Dur <= 0 {
		t.Fatalf("span 0: %+v", spans[0])
	}
	if spans[1].Cat != CatGradHook || spans[1].Dur != 0 {
		t.Fatalf("span 1: %+v", spans[1])
	}
	if r.Rank() != 3 {
		t.Fatalf("rank %d", r.Rank())
	}
}

func TestRecorderDropsWhenFull(t *testing.T) {
	r := NewRecorder(0, 4)
	for i := 0; i < 10; i++ {
		r.EmitInstant(CatGradHook, TrackMain, int64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", r.Dropped())
	}
	// The first four spans survive untouched (drop-new, never overwrite).
	for i, s := range r.Spans() {
		if s.Bytes != int64(i) {
			t.Fatalf("span %d clobbered: %+v", i, s)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 || r.Len() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder accessors not zero")
	}
	r.Emit(CatStep, TrackMain, 0, 0)
	r.EmitInstant(CatStep, TrackMain, 0)
	r.Sink(TrackMain).RecordSpan("allreduce/ring", 1, time.Millisecond)
	var s *Session
	s.Recorder(0).Emit(CatStep, TrackMain, 0, 0)
	s.Gather(nil, 0)
	if s.Timeline().NumSpans() != 0 {
		t.Fatal("nil session timeline not empty")
	}
}

func TestSinkBackdatesSpans(t *testing.T) {
	r := NewRecorder(0, 8)
	sink := r.Sink(TrackEngine)
	dur := 5 * time.Millisecond
	sink.RecordSpan("allreduce/ring", 1024, dur)
	sp := r.Spans()[0]
	if sp.Cat != CatAllreduceRing || sp.Track != TrackEngine || sp.Bytes != 1024 {
		t.Fatalf("span %+v", sp)
	}
	if sp.Dur != int64(dur) {
		t.Fatalf("dur %d, want %d", sp.Dur, int64(dur))
	}
	// The span ends at the RecordSpan call and extends dur into the past.
	if end := sp.Start + sp.Dur; end > r.Now() {
		t.Fatalf("span ends in the future: start %d end %d now %d", sp.Start, end, r.Now())
	}
}

// TestEmitNoAllocs is the tracing-overhead gate (also run by
// scripts/check.sh): recording spans with tracing enabled must not
// allocate on the hot path.
func TestEmitNoAllocs(t *testing.T) {
	r := NewRecorder(0, 1<<16)
	sink := r.Sink(TrackEngine)
	allocs := testing.AllocsPerRun(1000, func() {
		start := r.Now()
		r.Emit(CatForward, TrackMain, start, 64)
		r.EmitInstant(CatGradHook, TrackMain, 64)
		sink.RecordSpan("allreduce/ring", 1024, time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f times per op, want 0", allocs)
	}
	// The full-buffer path must not allocate either.
	full := NewRecorder(0, 1)
	full.EmitInstant(CatStep, TrackMain, 0)
	allocs = testing.AllocsPerRun(1000, func() {
		full.EmitInstant(CatStep, TrackMain, 0)
	})
	if allocs != 0 {
		t.Fatalf("drop path allocates %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentRecording drives one recorder from many goroutines —
// the trainer and engine tracks emit concurrently in real runs — and
// is meaningful under -race (scripts/check.sh runs it so).
func TestConcurrentRecording(t *testing.T) {
	const goroutines, per = 8, 500
	r := NewRecorder(0, goroutines*per/2) // force the drop path too
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(track Track) {
			defer wg.Done()
			sink := r.Sink(track)
			for i := 0; i < per; i++ {
				start := r.Now()
				r.Emit(CatForward, track, start, int64(i))
				sink.RecordSpan("negotiate", 4, time.Microsecond)
			}
		}(Track(g % 2))
	}
	wg.Wait()
	total := uint64(r.Len()) + r.Dropped()
	if want := uint64(goroutines * per * 2); total != want {
		t.Fatalf("recorded+dropped = %d, want %d", total, want)
	}
	for _, s := range r.Spans() {
		if s.Cat != CatForward && s.Cat != CatNegotiate {
			t.Fatalf("torn span: %+v", s)
		}
	}
}

func TestSessionSharedEpoch(t *testing.T) {
	s := NewSession(8)
	r0, r1 := s.Recorder(0), s.Recorder(1)
	if r0 == r1 {
		t.Fatal("ranks share a recorder")
	}
	if s.Recorder(0) != r0 {
		t.Fatal("recorder not cached per rank")
	}
	if r0.epoch != r1.epoch {
		t.Fatal("ranks do not share the session epoch")
	}
	r0.EmitInstant(CatStep, TrackMain, 0)
	r1.EmitInstant(CatStep, TrackMain, 0)
	tl := s.Timeline()
	if len(tl.Ranks) != 2 || tl.NumSpans() != 2 {
		t.Fatalf("timeline %+v", tl)
	}
	if tl.Ranks[0].Rank != 0 || tl.Ranks[1].Rank != 1 {
		t.Fatalf("ranks unsorted: %+v", tl.Ranks)
	}
}
