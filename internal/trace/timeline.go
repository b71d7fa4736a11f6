package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RankTrace is one rank's portion of the merged timeline.
type RankTrace struct {
	Rank    int
	Dropped uint64
	Spans   []Span
}

// Timeline is the merged, per-rank view of a traced run.
type Timeline struct {
	Ranks []RankTrace
}

// sort orders ranks by id and each rank's spans by start time; spans
// that start together keep their recording order, so a timeline and its
// JSONL round trip sort identically.
func (t *Timeline) sort() {
	sort.Slice(t.Ranks, func(i, j int) bool { return t.Ranks[i].Rank < t.Ranks[j].Rank })
	for _, rt := range t.Ranks {
		spans := rt.Spans
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	}
}

// NumSpans counts spans across all ranks.
func (t *Timeline) NumSpans() int {
	n := 0
	for _, rt := range t.Ranks {
		n += len(rt.Spans)
	}
	return n
}

// ChromeEvent is one entry of the Chrome trace_event JSON format
// (loadable in Perfetto and chrome://tracing): ts and dur are
// microseconds, pid/tid name the process and thread lanes. It is the
// one event type every tier exports — training and simulated timelines
// here, retained request traces in trace/request.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes evs as a Chrome trace JSON object with
// displayTimeUnit "ms". Metadata ("M") events go first, so viewers
// label tracks before the first sample arrives; the rest follow in
// timestamp order, ties kept in the order given. evs is sorted in place.
func WriteChrome(w io.Writer, evs []ChromeEvent) error {
	if evs == nil {
		evs = []ChromeEvent{} // an empty trace is [], not null
	}
	sort.SliceStable(evs, func(i, j int) bool {
		mi, mj := evs[i].Ph == "M", evs[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return evs[i].Ts < evs[j].Ts
	})
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// WriteChromeTrace exports the timeline in Chrome trace_event JSON: one
// process per rank, one thread per goroutine track ("trainer" and
// "horovod-engine"), complete ("X") events for timed spans and instant
// ("i") events for zero-duration markers like grad-hook submissions.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	var evs []ChromeEvent
	for _, rt := range t.Ranks {
		evs = append(evs, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: rt.Rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rt.Rank)},
		})
		var tracks [256]bool
		for _, s := range rt.Spans {
			tracks[s.Track] = true
		}
		for track, used := range tracks {
			if used {
				evs = append(evs, ChromeEvent{
					Name: "thread_name", Ph: "M", Pid: rt.Rank, Tid: track,
					Args: map[string]any{"name": Track(track).String()},
				})
			}
		}
		for _, s := range rt.Spans {
			ev := ChromeEvent{
				Name: s.Cat.String(),
				Cat:  s.Cat.Group(),
				Pid:  rt.Rank,
				Tid:  int(s.Track),
				Ts:   float64(s.Start) / 1e3,
			}
			if s.Dur > 0 {
				ev.Ph = "X"
				ev.Dur = float64(s.Dur) / 1e3
			} else {
				ev.Ph = "i"
				ev.S = "t"
			}
			if s.Bytes > 0 {
				ev.Args = map[string]any{"bytes": s.Bytes}
			}
			evs = append(evs, ev)
		}
	}
	return WriteChrome(w, evs)
}

// jsonlSpan is the line format of the JSONL span stream consumed by
// cmd/hvprof-report.
type jsonlSpan struct {
	Rank    int    `json:"rank"`
	Track   uint8  `json:"track"`
	Cat     string `json:"cat"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// WriteJSONL exports every span as one JSON object per line
// (rank, track, cat, start_ns, dur_ns, bytes).
func (t *Timeline) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rt := range t.Ranks {
		for _, s := range rt.Spans {
			if err := enc.Encode(jsonlSpan{
				Rank:    rt.Rank,
				Track:   uint8(s.Track),
				Cat:     s.Cat.String(),
				StartNs: s.Start,
				DurNs:   s.Dur,
				Bytes:   s.Bytes,
			}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL span stream back into a timeline.
func ReadJSONL(r io.Reader) (*Timeline, error) {
	byRank := map[int]*RankTrace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var js jsonlSpan
		if err := json.Unmarshal(sc.Bytes(), &js); err != nil {
			return nil, fmt.Errorf("trace: JSONL line %d: %w", line, err)
		}
		rt, ok := byRank[js.Rank]
		if !ok {
			rt = &RankTrace{Rank: js.Rank}
			byRank[js.Rank] = rt
		}
		rt.Spans = append(rt.Spans, Span{
			Cat:   CategoryOf(js.Cat),
			Track: Track(js.Track),
			Start: js.StartNs,
			Dur:   js.DurNs,
			Bytes: js.Bytes,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t := &Timeline{}
	for _, rt := range byRank {
		t.Ranks = append(t.Ranks, *rt)
	}
	t.sort()
	return t, nil
}

// OverlapStats quantifies how much allreduce time the backward pass
// hides on one rank: the paper's overlap question ("does submitting
// gradients during backward actually overlap communication with
// compute?") answered from the trace itself.
type OverlapStats struct {
	Rank int
	// BackwardSec is total backward-phase time on the trainer track.
	BackwardSec float64
	// AllreduceSec is total allreduce time on the engine track.
	AllreduceSec float64
	// OverlapSec is the wall-clock intersection of the two.
	OverlapSec float64
	// HiddenFrac is OverlapSec / AllreduceSec (0 when no allreduce ran):
	// the fraction of communication hidden behind backward compute.
	HiddenFrac float64
	// DrainSec is total drain (exposed communication) time.
	DrainSec float64
}

// Overlap computes OverlapStats for one rank.
func (t *Timeline) Overlap(rank int) OverlapStats {
	st := OverlapStats{Rank: rank}
	var backward, allreduce [][2]int64
	for _, rt := range t.Ranks {
		if rt.Rank != rank {
			continue
		}
		for _, s := range rt.Spans {
			switch {
			case s.Cat == CatBackward && s.Track == TrackMain:
				backward = append(backward, [2]int64{s.Start, s.Start + s.Dur})
			case s.Track == TrackEngine && s.Cat.isAllreduce():
				allreduce = append(allreduce, [2]int64{s.Start, s.Start + s.Dur})
			case s.Cat == CatDrain:
				st.DrainSec += float64(s.Dur) / 1e9
			}
		}
	}
	backward = mergeIntervals(backward)
	allreduce = mergeIntervals(allreduce)
	st.BackwardSec = totalSec(backward)
	st.AllreduceSec = totalSec(allreduce)
	st.OverlapSec = intersectSec(backward, allreduce)
	if st.AllreduceSec > 0 {
		st.HiddenFrac = st.OverlapSec / st.AllreduceSec
	}
	return st
}

// FormatOverlap renders one rank's overlap verdict.
func FormatOverlap(st OverlapStats) string {
	return fmt.Sprintf(
		"rank %d: backward %.1fms, allreduce %.1fms, overlapped %.1fms (%.0f%% of comm hidden), drain %.1fms exposed",
		st.Rank, st.BackwardSec*1e3, st.AllreduceSec*1e3, st.OverlapSec*1e3,
		st.HiddenFrac*100, st.DrainSec*1e3)
}

// mergeIntervals sorts and coalesces overlapping [start, end) intervals.
func mergeIntervals(iv [][2]int64) [][2]int64 {
	if len(iv) == 0 {
		return iv
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x[0] <= last[1] {
			if x[1] > last[1] {
				last[1] = x[1]
			}
		} else {
			out = append(out, x)
		}
	}
	return out
}

func totalSec(iv [][2]int64) float64 {
	var ns int64
	for _, x := range iv {
		ns += x[1] - x[0]
	}
	return float64(ns) / 1e9
}

// intersectSec returns the total intersection of two merged interval
// sets in seconds.
func intersectSec(a, b [][2]int64) float64 {
	var ns int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max64(a[i][0], b[j][0])
		hi := min64(a[i][1], b[j][1])
		if hi > lo {
			ns += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return float64(ns) / 1e9
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
