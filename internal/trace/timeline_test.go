package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// makeTimeline builds a deterministic two-rank timeline with spans on
// both tracks, an instant marker, and a known overlap structure.
func makeTimeline() *Timeline {
	ms := func(n int64) int64 { return n * 1e6 }
	return &Timeline{Ranks: []RankTrace{
		{Rank: 0, Spans: []Span{
			{Cat: CatStep, Track: TrackMain, Start: 0, Dur: ms(10)},
			{Cat: CatForward, Track: TrackMain, Start: 0, Dur: ms(3)},
			{Cat: CatBackward, Track: TrackMain, Start: ms(3), Dur: ms(5)},
			{Cat: CatGradHook, Track: TrackMain, Start: ms(4), Dur: 0, Bytes: 256},
			{Cat: CatAllreduceRing, Track: TrackEngine, Start: ms(4), Dur: ms(2), Bytes: 1 << 20},
			{Cat: CatAllreduceFP16, Track: TrackEngine, Start: ms(6), Dur: ms(1), Bytes: 1 << 19},
			{Cat: CatAllreduceRing, Track: TrackEngine, Start: ms(9), Dur: ms(2), Bytes: 2 << 20},
			{Cat: CatDrain, Track: TrackMain, Start: ms(8), Dur: ms(3)},
		}},
		{Rank: 1, Spans: []Span{
			{Cat: CatStep, Track: TrackMain, Start: 0, Dur: ms(10)},
			{Cat: CatNegotiate, Track: TrackEngine, Start: ms(1), Dur: ms(1), Bytes: 52},
			{Cat: CatBcast, Track: TrackMain, Start: ms(2), Dur: ms(1), Bytes: 4096},
		}},
	}}
}

// TestChromeTraceSchema validates the fixture's export against the
// trace_event contract (CheckChromeTrace).
func TestChromeTraceSchema(t *testing.T) {
	threads := CheckChromeTrace(t, makeTimeline())
	if len(threads) != 4 { // both ranks use both tracks
		t.Fatalf("thread names %v", threads)
	}
}

// CheckChromeTrace exports tl and validates it with CheckChromeJSON,
// requiring a named process carrying events for every rank. It returns
// the thread names keyed by (pid, tid). Exported for the external e2e
// tests, which hold real and simulated runs to the same rules.
func CheckChromeTrace(t *testing.T, tl *Timeline) map[[2]int]string {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	threads, pids := CheckChromeJSON(t, buf.Bytes())
	for _, rt := range tl.Ranks {
		if !pids[rt.Rank] {
			t.Fatalf("rank %d: no events under a named process", rt.Rank)
		}
	}
	return threads
}

// CheckChromeJSON validates a Chrome trace payload against the
// trace_event contract Perfetto expects: a traceEvents array whose
// entries carry name/ph/pid/tid/ts (dur for complete events, s for
// instants), non-negative timestamps and durations, displayTimeUnit
// set, and metadata ahead of the events naming every process and every
// thread that carries events. It returns the thread names keyed by
// (pid, tid) and the pids that carry events. Exported so every tier's
// export — training, simulated, and request traces — meets one set of
// rules.
func CheckChromeJSON(t *testing.T, data []byte) (threads map[[2]int]string, pids map[int]bool) {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.Unit)
	}
	processNames := map[int]bool{}
	threads, pids = map[[2]int]string{}, map[int]bool{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		pid, pidOK := ev["pid"].(float64)
		tid, tidOK := ev["tid"].(float64)
		if name == "" || !pidOK || !tidOK {
			t.Fatalf("event %d missing name/pid/tid: %v", i, ev)
		}
		thread := [2]int{int(pid), int(tid)}
		switch ph {
		case "M":
			if len(pids) > 0 {
				t.Fatalf("metadata event %d after span events (viewers label tracks late)", i)
			}
			label, _ := ev["args"].(map[string]any)["name"].(string)
			switch name {
			case "process_name":
				processNames[int(pid)] = true
			case "thread_name":
				threads[thread] = label
			}
			continue
		case "X":
			dur, ok := ev["dur"].(float64)
			if !ok || dur <= 0 {
				t.Fatalf("complete event %d: dur %v", i, ev["dur"])
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("instant event %d missing thread scope: %v", i, ev)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
		if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
			t.Fatalf("event %d: ts %v", i, ev["ts"])
		}
		pids[int(pid)] = true
		if !processNames[int(pid)] || threads[thread] == "" {
			t.Fatalf("event %d on unnamed process or thread %v", i, thread)
		}
	}
	return threads, pids
}

func TestJSONLRoundTrip(t *testing.T) {
	tl := makeTimeline()
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tl.sort()
	if !reflect.DeepEqual(tl, back) {
		t.Fatalf("round trip mismatch:\nout: %+v\nin:  %+v", tl, back)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{\"rank\":0}\nnot json\n")); err == nil {
		t.Fatal("want error on malformed line")
	}
}

// TestHvprofCrossCheck verifies the acceptance criterion that the
// bucket report and the timeline come from the same records: per-op
// total seconds derived via Timeline.HvprofReport must equal the sum
// of the corresponding span durations.
func TestHvprofCrossCheck(t *testing.T) {
	tl := makeTimeline()
	rep := tl.HvprofReport()
	wantByOp := map[string]float64{}
	for _, rt := range tl.Ranks {
		for _, s := range rt.Spans {
			if op, ok := s.Cat.HvprofOp(); ok {
				wantByOp[op] += float64(s.Dur) / 1e9
			}
		}
	}
	if len(wantByOp) == 0 {
		t.Fatal("fixture has no collective spans")
	}
	for op, want := range wantByOp {
		if got := rep.TotalSeconds(op); math.Abs(got-want) > 1e-12 {
			t.Errorf("op %s: report %g s, spans %g s", op, got, want)
		}
	}
	// Compute-side spans must not leak into the bucket tables.
	for _, op := range []string{"step", "forward", "backward", "drain", "fused-reduce"} {
		if rep.TotalSeconds(op) != 0 {
			t.Errorf("non-collective op %s leaked into the hvprof report", op)
		}
	}
	// Ring and fp16 allreduces plus the negotiation round, which counts
	// as a small allreduce.
	if got := rep.TotalSeconds("allreduce"); math.Abs(got-6e-3) > 1e-12 {
		t.Errorf("allreduce total %g, want 6ms", got)
	}
}

func TestOverlapMath(t *testing.T) {
	tl := makeTimeline()
	st := tl.Overlap(0)
	// backward [3,8)ms; allreduce ring [4,6), fp16 [6,7) and ring [9,11)
	// → overlap [4,7) = 3ms of 5ms. Every allreduce algorithm counts,
	// compressed ones included.
	if math.Abs(st.BackwardSec-5e-3) > 1e-12 {
		t.Errorf("backward %g", st.BackwardSec)
	}
	if math.Abs(st.AllreduceSec-5e-3) > 1e-12 {
		t.Errorf("allreduce %g", st.AllreduceSec)
	}
	if math.Abs(st.OverlapSec-3e-3) > 1e-12 {
		t.Errorf("overlap %g", st.OverlapSec)
	}
	if math.Abs(st.HiddenFrac-0.6) > 1e-9 {
		t.Errorf("hidden frac %g", st.HiddenFrac)
	}
	if math.Abs(st.DrainSec-3e-3) > 1e-12 {
		t.Errorf("drain %g", st.DrainSec)
	}
	if s := FormatOverlap(st); s == "" {
		t.Fatal("empty format")
	}
	// Rank 1 ran only a negotiation, which is not gradient traffic: the
	// fraction must stay 0, not NaN.
	if st1 := tl.Overlap(1); st1.HiddenFrac != 0 || st1.AllreduceSec != 0 {
		t.Errorf("rank 1 overlap %+v", st1)
	}
}

func TestMergeAndIntersect(t *testing.T) {
	merged := mergeIntervals([][2]int64{{5, 7}, {0, 2}, {1, 3}, {7, 9}})
	want := [][2]int64{{0, 3}, {5, 9}}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merge %v, want %v", merged, want)
	}
	sec := intersectSec([][2]int64{{0, 3}, {5, 9}}, [][2]int64{{2, 6}})
	if math.Abs(sec-2e-9) > 1e-18 { // [2,3) + [5,6) = 2 ns
		t.Fatalf("intersect %g", sec)
	}
}
