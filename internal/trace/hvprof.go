package trace

import (
	"fmt"
	"sort"
	"strings"
)

// The hvprof bucket tables: the paper's Horovod/MPI profiler (Awan et
// al., HotI'19) reports every collective by operation and message size,
// the view of Fig. 14 and Table I. Here the table is a report over
// recorded spans — Timeline.HvprofReport is its only builder — so the
// real in-process run and the simulated cluster, which both record
// spans, are bucketed by one rule.

// bucketEdges are the lower bounds of Table I's size classes in bytes.
var bucketEdges = [NumBuckets]int64{
	1,
	128 << 10, // 128 KB
	16 << 20,  // 16 MB
	32 << 20,  // 32 MB
	64 << 20,  // 64 MB
}

// BucketNames are the human-readable size classes from Table I.
var BucketNames = [NumBuckets]string{
	"1-128 KB",
	"128 KB - 16 MB",
	"16 MB - 32 MB",
	"32 MB - 64 MB",
	"> 64 MB",
}

// NumBuckets is the number of message-size classes.
const NumBuckets = 5

// BucketOf maps a message size in bytes to its bucket index. Zero and
// negative sizes (empty collectives, malformed records) clamp to the
// smallest class rather than underflowing the table.
func BucketOf(bytes int64) int {
	for i := NumBuckets - 1; i >= 1; i-- {
		if bytes >= bucketEdges[i] {
			return i
		}
	}
	return 0
}

// MessageBuckets are the size classes as histogram upper bounds (bytes)
// for the live allreduce-size histogram. Prometheus buckets include
// their bound, so a message of exactly an edge lands one histogram
// bucket below its hvprof class; every other size agrees.
var MessageBuckets = func() []float64 {
	b := make([]float64, 0, NumBuckets-1)
	for _, e := range bucketEdges[1:] {
		b = append(b, float64(e))
	}
	return b
}()

// BucketStat aggregates one (op, size-class) cell.
type BucketStat struct {
	Count   int
	Bytes   int64
	Seconds float64
}

// Report is the bucket table of a profiled run.
type Report struct {
	// PerOp maps operation → per-bucket stats (length NumBuckets).
	PerOp map[string][]BucketStat
	// Dropped counts spans lost to full recorders; the tables
	// under-count when it is non-zero.
	Dropped uint64
}

// HvprofReport builds the hvprof bucket report from the timeline's
// collective spans (all ranks merged). Categories fold into operations
// by Category.HvprofOp.
func (t *Timeline) HvprofReport() Report {
	rep := Report{PerOp: map[string][]BucketStat{}}
	for _, rt := range t.Ranks {
		rep.Dropped += rt.Dropped
		for _, s := range rt.Spans {
			op, ok := s.Cat.HvprofOp()
			if !ok {
				continue
			}
			row := rep.PerOp[op]
			if row == nil {
				row = make([]BucketStat, NumBuckets)
				rep.PerOp[op] = row
			}
			b := BucketOf(s.Bytes)
			row[b].Count++
			row[b].Bytes += s.Bytes
			row[b].Seconds += float64(s.Dur) / 1e9
		}
	}
	return rep
}

// TotalSeconds sums the time of one op across buckets (e.g. total
// MPI_Allreduce time, the quantity Table I improves by 45.4%).
func (r Report) TotalSeconds(op string) float64 {
	var s float64
	for _, b := range r.PerOp[op] {
		s += b.Seconds
	}
	return s
}

// Ops returns the recorded operation names, sorted.
func (r Report) Ops() []string {
	var ops []string
	for op := range r.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

// String renders the per-op bucket table (the Fig. 14 view).
func (r Report) String() string {
	var b strings.Builder
	for _, op := range r.Ops() {
		fmt.Fprintf(&b, "== %s ==\n", op)
		fmt.Fprintf(&b, "%-16s %10s %14s %12s\n", "Message Size", "Calls", "Bytes", "Time (ms)")
		for i, st := range r.PerOp[op] {
			if st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-16s %10d %14d %12.1f\n", BucketNames[i], st.Count, st.Bytes, st.Seconds*1000)
		}
		fmt.Fprintf(&b, "%-16s %10s %14s %12.1f\n", "Total", "", "", r.TotalSeconds(op)*1000)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped by full recorders: totals are low)\n", r.Dropped)
	}
	return b.String()
}

// CompareRow is one line of a default-vs-optimized comparison (Table I).
type CompareRow struct {
	Bucket             string
	DefaultMs, OptMs   float64
	ImprovementPercent float64
}

// Compare builds the Table I comparison for one op between two reports.
// Improvement is (default−opt)/default·100; buckets empty in both reports
// are omitted.
func Compare(def, opt Report, op string) []CompareRow {
	d, o := def.PerOp[op], opt.PerOp[op]
	var rows []CompareRow
	for i := 0; i < NumBuckets; i++ {
		var dm, om float64
		if d != nil {
			dm = d[i].Seconds * 1000
		}
		if o != nil {
			om = o[i].Seconds * 1000
		}
		if dm == 0 && om == 0 {
			continue
		}
		row := CompareRow{Bucket: BucketNames[i], DefaultMs: dm, OptMs: om}
		if dm > 0 {
			row.ImprovementPercent = (dm - om) / dm * 100
		}
		rows = append(rows, row)
	}
	dTot, oTot := def.TotalSeconds(op)*1000, opt.TotalSeconds(op)*1000
	total := CompareRow{Bucket: "Total Time", DefaultMs: dTot, OptMs: oTot}
	if dTot > 0 {
		total.ImprovementPercent = (dTot - oTot) / dTot * 100
	}
	return append(rows, total)
}

// FormatCompare renders rows in the paper's Table I layout.
func FormatCompare(rows []CompareRow, op string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s time by message size (default vs optimized)\n", op)
	fmt.Fprintf(&b, "%-16s %12s %12s %14s\n", "Message Size", "Default(ms)", "Opt(ms)", "Improvement %")
	for _, r := range rows {
		impr := fmt.Sprintf("%.1f", r.ImprovementPercent)
		if r.ImprovementPercent < 2 && r.ImprovementPercent > -2 {
			impr = "~0"
		}
		fmt.Fprintf(&b, "%-16s %12.1f %12.1f %14s\n", r.Bucket, r.DefaultMs, r.OptMs, impr)
	}
	return b.String()
}
