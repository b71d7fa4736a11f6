package trace

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mpi"
)

func TestSpanWireRoundTrip(t *testing.T) {
	spans := []Span{
		{Cat: CatStep, Track: TrackMain, Start: 0, Dur: 1, Bytes: 0},
		{Cat: CatAllreduceRing, Track: TrackEngine, Start: 123456789012345, Dur: 987654321, Bytes: 64 << 20},
		{Cat: CatRestart, Track: TrackMain, Start: -5, Dur: 0, Bytes: -1},
		{Cat: numCategories - 1, Track: TrackEngine, Start: math.MaxInt64, Dur: math.MinInt64, Bytes: math.MaxInt64},
	}
	wire := encodeSpans(spans, nil)
	if len(wire) != len(spans)*spanFloats {
		t.Fatalf("wire length %d", len(wire))
	}
	back := decodeSpans(wire)
	if !reflect.DeepEqual(spans, back) {
		t.Fatalf("round trip:\nout: %+v\nin:  %+v", spans, back)
	}
}

func TestGatherMergesAllRanks(t *testing.T) {
	const world = 4
	s := NewSession(64)
	w := mpi.NewWorld(world)
	if err := w.Run(func(c *mpi.Comm) {
		rec := s.Recorder(c.Rank())
		for i := 0; i <= c.Rank(); i++ { // rank r records r+1 spans
			rec.EmitInstant(CatGradHook, TrackMain, int64(c.Rank()*100+i))
		}
		s.Gather(c, 0)
	}); err != nil {
		t.Fatal(err)
	}
	tl := s.Timeline()
	if len(tl.Ranks) != world {
		t.Fatalf("ranks %d", len(tl.Ranks))
	}
	for r, rt := range tl.Ranks {
		if rt.Rank != r || len(rt.Spans) != r+1 {
			t.Fatalf("rank %d: %d spans (%+v)", r, len(rt.Spans), rt)
		}
		for i, sp := range rt.Spans {
			if sp.Bytes != int64(r*100+i) {
				t.Fatalf("rank %d span %d corrupted: %+v", r, i, sp)
			}
		}
	}
}

func TestGatherReportsDrops(t *testing.T) {
	s := NewSession(2)
	w := mpi.NewWorld(2)
	if err := w.Run(func(c *mpi.Comm) {
		rec := s.Recorder(c.Rank())
		for i := 0; i < 5; i++ {
			rec.EmitInstant(CatGradHook, TrackMain, 0)
		}
		s.Gather(c, 0)
	}); err != nil {
		t.Fatal(err)
	}
	for _, rt := range s.Timeline().Ranks {
		if rt.Dropped != 3 || len(rt.Spans) != 2 {
			t.Fatalf("rank %d: %d spans, %d dropped", rt.Rank, len(rt.Spans), rt.Dropped)
		}
	}
}
