package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// reportOf builds the hvprof report of one rank's spans.
func reportOf(spans ...Span) Report {
	return (&Timeline{Ranks: []RankTrace{{Spans: spans}}}).HvprofReport()
}

// timed is a span of category cat carrying bytes that ran for the given
// milliseconds.
func timed(cat Category, bytes int64, millis float64) Span {
	return Span{Cat: cat, Track: TrackEngine, Dur: int64(math.Round(millis * 1e6)), Bytes: bytes}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{
		{1, 0},
		{1024, 0},
		{128<<10 - 1, 0},
		{128 << 10, 1},
		{1 << 20, 1},
		{16<<20 - 1, 1},
		{16 << 20, 2},
		{31 << 20, 2},
		{32 << 20, 3},
		{63 << 20, 3},
		{64 << 20, 4},
		{1 << 30, 4},
	}
	for _, c := range cases {
		if got := BucketOf(c.bytes); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// TestBucketOfBoundaries walks every bucket edge and checks the class
// assignment at edge−1, edge, and edge+1, plus the zero/negative clamp.
func TestBucketOfBoundaries(t *testing.T) {
	for _, bytes := range []int64{0, -1, -(64 << 20)} {
		if got := BucketOf(bytes); got != 0 {
			t.Errorf("BucketOf(%d) = %d, want clamp to 0", bytes, got)
		}
	}
	for i, edge := range bucketEdges {
		// Sizes below an edge belong to the previous class; the edge
		// itself opens class i. Edge 0 (1 byte) is the clamp floor.
		wantBelow := max(i-1, 0)
		if got := BucketOf(edge - 1); got != wantBelow {
			t.Errorf("BucketOf(%d) = %d, want %d (below edge %d)", edge-1, got, wantBelow, i)
		}
		if got := BucketOf(edge); got != i {
			t.Errorf("BucketOf(%d) = %d, want %d (at edge)", edge, got, i)
		}
		wantAbove := i
		if i+1 < len(bucketEdges) && edge+1 >= bucketEdges[i+1] {
			wantAbove = i + 1
		}
		if got := BucketOf(edge + 1); got != wantAbove {
			t.Errorf("BucketOf(%d) = %d, want %d (above edge)", edge+1, got, wantAbove)
		}
	}
}

// TestMessageBucketsMatchBucketOf: the live allreduce-size histogram and
// the hvprof tables share one edge table, so a byte either side of every
// edge lands in the same class under both.
func TestMessageBucketsMatchBucketOf(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("sizes", "", MessageBuckets)
	histClass := func(v int64) int {
		before := make([]int64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(float64(v))
		for i := range h.counts {
			if h.counts[i].Load() != before[i] {
				return i
			}
		}
		t.Fatalf("Observe(%d) touched no bucket", v)
		return -1
	}
	if len(MessageBuckets) != NumBuckets-1 {
		t.Fatalf("%d histogram bounds for %d classes", len(MessageBuckets), NumBuckets)
	}
	for _, edge := range bucketEdges {
		for _, v := range []int64{edge - 1, edge + 1} {
			if got, want := histClass(v), BucketOf(v); got != want {
				t.Errorf("%d bytes: histogram bucket %d, hvprof class %d", v, got, want)
			}
		}
	}
}

// Property: bucket index is monotone non-decreasing in message size.
func TestQuickBucketMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return BucketOf(x) <= BucketOf(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReportAggregation(t *testing.T) {
	rep := reportOf(
		timed(CatAllreduceRing, 64, 10),
		timed(CatNegotiate, 64, 20),
		timed(CatAllreduceHier, 20<<20, 500),
		timed(CatBcast, 1024, 1),
		timed(CatForward, 0, 7),
	)
	ar := rep.PerOp["allreduce"]
	if ar[0].Count != 2 || math.Abs(ar[0].Seconds-0.030) > 1e-12 {
		t.Fatalf("bucket 0: %+v", ar[0])
	}
	if ar[2].Count != 1 || ar[2].Bytes != 20<<20 {
		t.Fatalf("bucket 2: %+v", ar[2])
	}
	if math.Abs(rep.TotalSeconds("allreduce")-0.530) > 1e-12 {
		t.Fatalf("total %g", rep.TotalSeconds("allreduce"))
	}
	if ops := rep.Ops(); len(ops) != 2 || ops[0] != "allreduce" || ops[1] != "bcast" {
		t.Fatalf("ops %v", ops)
	}
}

func TestCompareTableI(t *testing.T) {
	// Reconstruct the paper's Table I numbers and verify the comparison
	// math reproduces its improvement column.
	def := reportOf(
		timed(CatAllreduceHier, 64<<10, 392.0),
		timed(CatAllreduceHier, 1<<20, 320.7),
		timed(CatAllreduceHier, 20<<20, 1321.6),
		timed(CatAllreduceHier, 40<<20, 5145.6),
	)
	opt := reportOf(
		timed(CatAllreduceHier, 64<<10, 391.2),
		timed(CatAllreduceHier, 1<<20, 342.4),
		timed(CatAllreduceHier, 20<<20, 619.6),
		timed(CatAllreduceHier, 40<<20, 2587.151),
	)
	rows := Compare(def, opt, "allreduce")
	if len(rows) != 5 { // 4 buckets + total
		t.Fatalf("rows: %d", len(rows))
	}
	byBucket := map[string]CompareRow{}
	for _, r := range rows {
		byBucket[r.Bucket] = r
	}
	if r := byBucket["16 MB - 32 MB"]; math.Abs(r.ImprovementPercent-53.1) > 0.2 {
		t.Fatalf("16-32MB improvement %g, paper says 53.1", r.ImprovementPercent)
	}
	if r := byBucket["32 MB - 64 MB"]; math.Abs(r.ImprovementPercent-49.7) > 0.2 {
		t.Fatalf("32-64MB improvement %g, paper says 49.7", r.ImprovementPercent)
	}
	// The paper reports 45.4% but its own per-bucket rows sum to 3940.4 ms
	// (not the printed 3918.5), which gives 45.1% — accept either.
	if r := byBucket["Total Time"]; math.Abs(r.ImprovementPercent-45.4) > 0.5 {
		t.Fatalf("total improvement %g, paper says 45.4", r.ImprovementPercent)
	}
}

func TestCompareHandlesMissingOp(t *testing.T) {
	rows := Compare(reportOf(timed(CatAllreduceRing, 1<<20, 100)), reportOf(), "allreduce")
	if len(rows) != 2 {
		t.Fatalf("rows %v", rows)
	}
	if rows[0].OptMs != 0 {
		t.Fatal("missing op should read as zero")
	}
}

// Golden renderings: the exact table layouts the paper-reproduction
// scripts parse. A formatting change must update these deliberately.
func TestReportStringGolden(t *testing.T) {
	rep := reportOf(
		timed(CatAllreduceRing, 64, 10),
		timed(CatAllreduceRing, 20<<20, 500),
		timed(CatBcast, 1024, 1),
	)
	want := "== allreduce ==\n" +
		"Message Size          Calls          Bytes    Time (ms)\n" +
		"1-128 KB                  1             64         10.0\n" +
		"16 MB - 32 MB             1       20971520        500.0\n" +
		"Total                                             510.0\n" +
		"== bcast ==\n" +
		"Message Size          Calls          Bytes    Time (ms)\n" +
		"1-128 KB                  1           1024          1.0\n" +
		"Total                                               1.0\n"
	if got := rep.String(); got != want {
		t.Fatalf("Report.String golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// A report over a lossy recording says so.
	tl := &Timeline{Ranks: []RankTrace{{Dropped: 3, Spans: []Span{timed(CatBcast, 1024, 1)}}}}
	if got := tl.HvprofReport().String(); !strings.HasSuffix(got, "(3 spans dropped by full recorders: totals are low)\n") {
		t.Fatalf("dropped spans not reported:\n%s", got)
	}
}

func TestCompareGolden(t *testing.T) {
	def := reportOf(timed(CatAllreduceRing, 64<<10, 392), timed(CatAllreduceRing, 20<<20, 1321.6))
	opt := reportOf(timed(CatAllreduceRing, 64<<10, 391.2), timed(CatAllreduceRing, 20<<20, 619.6))
	rows := Compare(def, opt, "allreduce")
	wantRows := []CompareRow{
		{Bucket: "1-128 KB", DefaultMs: 392.0, OptMs: 391.2},
		{Bucket: "16 MB - 32 MB", DefaultMs: 1321.6, OptMs: 619.6},
		{Bucket: "Total Time", DefaultMs: 1713.6, OptMs: 1010.8},
	}
	wantImpr := []float64{0.204, 53.117, 41.013}
	if len(rows) != len(wantRows) {
		t.Fatalf("rows %v", rows)
	}
	for i, r := range rows {
		w := wantRows[i]
		if r.Bucket != w.Bucket ||
			math.Abs(r.DefaultMs-w.DefaultMs) > 1e-9 ||
			math.Abs(r.OptMs-w.OptMs) > 1e-9 ||
			math.Abs(r.ImprovementPercent-wantImpr[i]) > 1e-3 {
			t.Errorf("row %d: got %+v, want %+v impr %.3f", i, r, w, wantImpr[i])
		}
	}
	want := "MPI_Allreduce time by message size (default vs optimized)\n" +
		"Message Size      Default(ms)      Opt(ms)  Improvement %\n" +
		"1-128 KB                392.0        391.2             ~0\n" +
		"16 MB - 32 MB          1321.6        619.6           53.1\n" +
		"Total Time             1713.6       1010.8           41.0\n"
	if got := FormatCompare(rows, "MPI_Allreduce"); got != want {
		t.Fatalf("FormatCompare golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFormatting(t *testing.T) {
	rep := reportOf(timed(CatAllreduceRing, 40<<20, 5145.6))
	s := rep.String()
	if !strings.Contains(s, "32 MB - 64 MB") || !strings.Contains(s, "allreduce") {
		t.Fatalf("report rendering missing fields:\n%s", s)
	}
	rows := Compare(rep, rep, "allreduce")
	out := FormatCompare(rows, "MPI_Allreduce")
	if !strings.Contains(out, "MPI_Allreduce") || !strings.Contains(out, "~0") {
		t.Fatalf("compare rendering:\n%s", out)
	}
}
