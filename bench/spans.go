package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark from outside the layer. Parent is the id of the span that
// caused it (0 for the root of an operation); Op is the index of the
// operation (training step, mix pass, request) the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op_index"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the traced and untraced passes share one code path and
// their difference is the cost of observing. Spans arrive from several
// goroutines (clients, replica handlers, the Horovod engine thread), so
// begin and end take a lock; the spans they guard last micro- to
// milliseconds.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the seconds of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// byOp sums the seconds of the named spans per operation index.
func (t *tracer) byOp(name string) map[int]float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += s.seconds()
		}
	}
	return sums
}

// perOp sums the seconds of the named spans within each operation whose
// root is named root, one value per operation (0 where none occurred).
func (t *tracer) perOp(root, name string) []float64 {
	sums := map[int]float64{}
	var ops []int
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			ops = append(ops, s.Op)
		}
	}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += s.seconds()
		}
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// selfSeconds returns, per span name, the total self time: each span's
// duration minus the part of its interval that its direct children cover
// (children may overlap one another — the engine thread reduces while
// backward still runs — so the cover is the union of their intervals).
func (t *tracer) selfSeconds() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// coverage is the share of the named root spans' time that their direct
// children cover — the closing check of a ledger: the rows must account
// for the whole.
func (t *tracer) coverage(root string) float64 {
	var total float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			total += s.seconds()
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - t.selfSeconds()[root]/total
}

// validate checks the recorded forest: every span is closed, every
// operation has exactly one root, and every non-root span's parent exists
// and belongs to the same operation (no orphans).
func (t *tracer) validate() error {
	roots := map[int]int{}
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Op]++
			continue
		}
		if s.Parent < 1 || s.Parent > len(t.spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p := t.spans[s.Parent-1]; p.Op != s.Op {
			return fmt.Errorf("span %d (%s, op %d) hangs under span %d of op %d", s.ID, s.Name, s.Op, p.ID, p.Op)
		}
		if _, ok := roots[s.Op]; !ok {
			roots[s.Op] = 0
		}
	}
	for op, n := range roots {
		if n != 1 {
			return fmt.Errorf("operation %d has %d root spans, want 1", op, n)
		}
	}
	return nil
}

// writeJSONL writes one span per line to path, creating its directory.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
