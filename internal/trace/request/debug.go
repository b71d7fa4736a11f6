package request

import (
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/trace"
)

// AttrRow is one line of a trace's per-stage latency attribution.
type AttrRow struct {
	Label string  `json:"label"`
	Dur   int64   `json:"dur_ns"`
	Frac  float64 `json:"frac"` // of the request's wall time
}

// spanLabel groups spans for attribution: the stage name, annotated
// when the span was a hedge or was cancelled (cancelled spans still
// covered real wall time — a hedge loser that ran 40 ms explains 40 ms).
func spanLabel(s SpanRec) string {
	name := s.Stage.String()
	switch {
	case s.Flags&FlagCancelled != 0:
		return name + " (cancelled)"
	case s.Flags&FlagHedge != 0:
		return name + " (hedge)"
	}
	return name
}

// mergeLen returns the total length of the union of [start, end)
// intervals. ivs is sorted in place.
func mergeLen(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		if iv[1] > curE {
			curE = iv[1]
		}
	}
	return total + (curE - curS)
}

// Attribution decomposes the trace's wall time into per-stage rows
// (merged intervals per label, so ten concurrent tile forwards count
// once) plus the covered fraction: union of all non-root span time over
// the request's wall time. Rows are sorted by duration, largest first.
func (t *Trace) Attribution() (rows []AttrRow, covered float64) {
	if t == nil || t.Dur <= 0 {
		return nil, 0
	}
	perLabel := make(map[string][][2]int64)
	var all [][2]int64
	for _, s := range t.Spans {
		if s.Stage == StageRoot {
			continue
		}
		iv := [2]int64{s.Start, s.Start + s.Dur}
		if iv[1] > t.Dur {
			iv[1] = t.Dur
		}
		if iv[0] < 0 {
			iv[0] = 0
		}
		if iv[1] <= iv[0] {
			continue
		}
		l := spanLabel(s)
		perLabel[l] = append(perLabel[l], iv)
		all = append(all, iv)
	}
	for label, ivs := range perLabel {
		d := mergeLen(ivs)
		rows = append(rows, AttrRow{Label: label, Dur: d, Frac: float64(d) / float64(t.Dur)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Dur != rows[j].Dur {
			return rows[i].Dur > rows[j].Dur
		}
		return rows[i].Label < rows[j].Label
	})
	return rows, float64(mergeLen(all)) / float64(t.Dur)
}

// fmtMS renders nanoseconds as milliseconds with two decimals.
func fmtMS(ns int64) string { return fmt.Sprintf("%.2fms", float64(ns)/1e6) }

// Handler serves the store's retained traces: a plain-text "slowest
// requests with per-stage attribution" view by default, and
// Perfetto/Chrome-compatible trace JSON with ?format=perfetto (load the
// payload in ui.perfetto.dev or chrome://tracing).
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		switch r.URL.Query().Get("format") {
		case "perfetto", "json":
			w.Header().Set("Content-Type", "application/json")
			_ = s.WriteChromeTrace(w) // a failed write means the client left
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			s.writeText(w)
		}
	})
}

// writeText emits the sampling summary and the slowest ten retained
// requests, each decomposed into its per-stage attribution.
func (s *Store) writeText(w http.ResponseWriter) {
	st := s.Stats()
	cfg := s.Config()
	fmt.Fprintf(w, "request tracing: finished=%d kept=%d (error=%d retry=%d slow=%d sampled=%d) dropped_spans=%d\n",
		st.Finished, st.Kept(), st.KeptErrors, st.KeptRetried, st.KeptSlow, st.KeptSampled, st.DroppedSpans)
	fmt.Fprintf(w, "knobs: capacity=%d slow_pct=%g (threshold=%s) sample_rate=%g\n",
		cfg.Capacity, cfg.SlowPct, fmtMS(st.SlowThreshold), cfg.SampleRate)

	traces := s.Retained()
	fmt.Fprintf(w, "retained=%d\n", len(traces))
	sort.Slice(traces, func(i, j int) bool { return traces[i].Dur > traces[j].Dur })
	if len(traces) > 10 {
		traces = traces[:10]
	}
	if len(traces) > 0 {
		fmt.Fprintf(w, "\nslowest %d retained requests:\n", len(traces))
	}
	for _, t := range traces {
		fmt.Fprintf(w, "\ntrace %s status=%d kept=%s dur=%s spans=%d dropped=%d\n",
			t.ID, t.Status, t.KeptFor, fmtMS(t.Dur), len(t.Spans), t.Dropped)
		rows, covered := t.Attribution()
		for _, row := range rows {
			fmt.Fprintf(w, "  %-28s %10s %6.1f%%\n", row.Label, fmtMS(row.Dur), row.Frac*100)
		}
		fmt.Fprintf(w, "  %-28s %10s %6.1f%%\n", "(unattributed)", fmtMS(t.Dur-int64(covered*float64(t.Dur))), (1-covered)*100)
	}
}

// WriteChromeTrace exports every retained trace in Chrome trace_event
// JSON through the same writer as training timelines (trace.WriteChrome):
// one process per trace, slowest first, the root span on lane 0 and
// concurrent spans (hedge attempts, tile forwards) fanned out to the
// first free lane so overlap is visible. Load it in ui.perfetto.dev or
// chrome://tracing.
func (s *Store) WriteChromeTrace(w io.Writer) error {
	traces := s.Retained()
	sort.Slice(traces, func(i, j int) bool { return traces[i].Dur > traces[j].Dur })
	var evs []trace.ChromeEvent
	for pid, t := range traces {
		base := float64(t.Wall.UnixNano()) / 1e3
		evs = append(evs, trace.ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("trace %s · %d · kept=%s", t.ID, t.Status, t.KeptFor)},
		})

		// Greedy lane assignment: root pinned to lane 0, each other
		// span takes the first lane whose previous span has ended.
		spans := make([]SpanRec, len(t.Spans))
		copy(spans, t.Spans)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		laneEnd := []int64{t.Dur} // lane 0 reserved for the root
		for _, sp := range spans {
			lane := 0
			if sp.Stage != StageRoot {
				lane = -1
				for l := 1; l < len(laneEnd); l++ {
					if laneEnd[l] <= sp.Start {
						lane = l
						break
					}
				}
				if lane < 0 {
					lane = len(laneEnd)
					laneEnd = append(laneEnd, 0)
				}
				laneEnd[lane] = sp.Start + sp.Dur
			}
			args := map[string]any{
				"trace_id": t.ID.String(),
				"span":     fmt.Sprintf("%016x", sp.ID),
				"parent":   fmt.Sprintf("%016x", sp.Parent),
			}
			if sp.Bytes > 0 {
				args["bytes"] = sp.Bytes
			}
			if sp.Backend >= 0 {
				args["backend"] = sp.Backend
			}
			if sp.Extra != 0 {
				args["extra"] = sp.Extra
			}
			name := spanLabel(sp)
			if sp.Flags&FlagWinner != 0 {
				name += " ★"
			}
			ev := trace.ChromeEvent{
				Name: name, Cat: "request", Ph: "X", Pid: pid, Tid: lane,
				Ts: base + float64(sp.Start)/1e3, Dur: float64(sp.Dur) / 1e3, Args: args,
			}
			if sp.Dur <= 0 {
				ev.Ph, ev.S = "i", "t" // a zero-length stage is an instant
			}
			evs = append(evs, ev)
		}
		for l := range laneEnd {
			lname := "request"
			if l > 0 {
				lname = fmt.Sprintf("lane %d", l)
			}
			evs = append(evs, trace.ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: l,
				Args: map[string]any{"name": lname},
			})
		}
	}
	return trace.WriteChrome(w, evs)
}
