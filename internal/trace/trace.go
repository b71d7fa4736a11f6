// Package trace is the structured tracing and live-metrics subsystem:
// the measurement layer that spans trainer → horovod engine → mpi
// collectives. It is the in-repo analogue of Horovod's timeline and the
// paper's hvprof methodology (profile first, optimize second): every
// phase of a training step — forward, backward, per-parameter grad
// hooks, the engine's negotiate/allreduce rounds, drain, checkpoints,
// elastic restarts — is recorded as a fixed-size span in a per-rank
// ring buffer with zero heap allocations on the hot path.
//
// At run end the per-rank recorders are gathered over MPI (see Gather)
// and merged into one Timeline, exported as Chrome trace_event JSON
// (one track per rank plus one per engine background goroutine, viewable
// in Perfetto) and as JSONL for cmd/hvprof-report. The hvprof bucket
// tables are a report over the same spans (Timeline.HvprofReport), so
// the Table I report and the timeline can never diverge. The cluster
// simulator records into the same Recorder in virtual time (EmitAt), so
// a simulated run and a real one share one span model and one exporter.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Category classifies a span. The MPI-collective categories carry the
// allreduce algorithm so the timeline can distinguish ring from
// recursive-doubling rounds; Category.HvprofOp folds them back to the
// operation names the hvprof bucket tables use.
type Category uint8

// Span categories, trainer → engine → collectives.
const (
	// CatOther is the fallback for unrecognized op names.
	CatOther Category = iota
	// CatStep covers one full optimization step (data load excluded).
	CatStep
	// CatForward and CatBackward are the model's compute phases.
	CatForward
	CatBackward
	// CatGradHook marks the instant a parameter's gradient became final
	// and was submitted to the engine (zero-duration span).
	CatGradHook
	// CatNegotiate is the engine's readiness-mask min-allreduce.
	CatNegotiate
	// Allreduce spans, split by algorithm.
	CatAllreduceRing
	CatAllreduceRecDbl
	CatAllreduceNaive
	// Remaining MPI collectives.
	CatBcast
	CatBarrier
	CatGather
	CatAllgather
	// CatFusedReduce covers one engine fusion-group reduction (copy-in,
	// allreduce, average, scatter-back); the inner allreduce span nests
	// inside it on the engine track.
	CatFusedReduce
	// CatDrain is the optimizer's wait for outstanding reductions — the
	// exposed (non-overlapped) communication window of a step.
	CatDrain
	// CatCheckpoint covers writing a distributed checkpoint.
	CatCheckpoint
	// CatRestart marks an elastic restart boundary (state restore after
	// a rank failure).
	CatRestart
	// Compressed-allreduce spans: fp16-packed ring, top-k sparsified
	// ring with error feedback, and the two-level node-aware hierarchy.
	// Category values are not a persisted format (JSONL carries category
	// names, CategoryOf maps them back), so entries may go anywhere.
	CatAllreduceFP16
	CatAllreduceTopK
	CatAllreduceHier
	// CatData covers drawing one training batch from the data loader,
	// just before the step span it feeds.
	CatData

	numCategories
)

var catNames = [numCategories]string{
	"other",
	"step",
	"forward",
	"backward",
	"grad-hook",
	"negotiate",
	"allreduce/ring",
	"allreduce/recursive-doubling",
	"allreduce/naive",
	"bcast",
	"barrier",
	"gather",
	"allgather",
	"fused-reduce",
	"drain",
	"checkpoint",
	"restart",
	"allreduce/fp16",
	"allreduce/topk",
	"allreduce/hier",
	"data",
}

// String returns the category's canonical op name.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "other"
}

// catByName inverts catNames for CategoryOf.
var catByName = func() map[string]Category {
	m := make(map[string]Category, numCategories)
	for i, n := range catNames {
		m[n] = Category(i)
	}
	return m
}()

// CategoryOf maps an op name (the strings the mpi layer and the JSONL
// stream carry) to its category; unknown names map to CatOther.
func CategoryOf(op string) Category {
	if c, ok := catByName[op]; ok {
		return c
	}
	return CatOther
}

// isAllreduce reports whether c is an allreduce span of any algorithm
// (exact or compressed); the negotiation min-allreduce is not one.
func (c Category) isAllreduce() bool {
	switch c {
	case CatAllreduceRing, CatAllreduceRecDbl, CatAllreduceNaive,
		CatAllreduceFP16, CatAllreduceTopK, CatAllreduceHier:
		return true
	}
	return false
}

// HvprofOp returns the hvprof bucket-table operation a category feeds
// and whether it is an MPI collective at all. All allreduce algorithms
// fold into "allreduce", and so does the negotiation round: on the wire
// it is a small allreduce, and counting it as one is what fills Table
// I's 1–128 KB row. The timeline keeps it as its own "negotiate" span.
func (c Category) HvprofOp() (string, bool) {
	if c.isAllreduce() || c == CatNegotiate {
		return "allreduce", true
	}
	switch c {
	case CatBcast:
		return "bcast", true
	case CatBarrier:
		return "barrier", true
	case CatGather:
		return "gather", true
	case CatAllgather:
		return "allgather", true
	}
	return "", false
}

// Group returns the Chrome-trace "cat" grouping for the category.
func (c Category) Group() string {
	if _, ok := c.HvprofOp(); ok {
		return "mpi"
	}
	switch c {
	case CatStep, CatForward, CatBackward:
		return "compute"
	case CatGradHook, CatFusedReduce, CatDrain:
		return "engine"
	case CatCheckpoint, CatRestart:
		return "lifecycle"
	case CatData:
		return "data"
	}
	return "other"
}

// Track identifies the goroutine lane a span belongs to within a rank.
type Track uint8

const (
	// TrackMain is the rank's training-loop goroutine.
	TrackMain Track = 0
	// TrackEngine is the rank's Horovod background engine goroutine.
	TrackEngine Track = 1
)

// String names the track for trace viewers.
func (t Track) String() string {
	if t == TrackEngine {
		return "horovod-engine"
	}
	return "trainer"
}

// Span is one fixed-size timed record. Start is nanoseconds since the
// owning Session's epoch (a monotonic clock shared by all ranks of an
// in-process world, so merged timelines are aligned without skew
// correction).
type Span struct {
	Cat   Category
	Track Track
	Start int64
	Dur   int64
	Bytes int64
}

// DefaultCapacity is the per-rank span buffer size when a Session is
// created with capacity <= 0: 64Ki spans ≈ 2.5 MB per rank.
const DefaultCapacity = 64 << 10

// Recorder is one rank's span buffer. The hot path (Now, Emit, and the
// Sink adapter) is lock-free and allocation-free: a slot is claimed with
// one atomic increment and written in place; when the buffer is full new
// spans are counted as dropped rather than overwriting older ones (an
// overwrite would race a slow writer against a wrapped-around claimant).
//
// The zero slots past the claimed index are never handed out, so
// concurrent Emits from the trainer and engine goroutines write disjoint
// memory; Spans must only be called after the writers have quiesced
// (run end), which is when Gather runs.
type Recorder struct {
	rank    int
	epoch   time.Time
	next    atomic.Uint64
	dropped atomic.Uint64
	spans   []Span
}

// NewRecorder creates a standalone recorder (tests, single-process
// runs). Training runs normally obtain recorders from a Session so all
// ranks share one epoch.
func NewRecorder(rank, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{rank: rank, epoch: time.Now(), spans: make([]Span, capacity)}
}

// Rank returns the rank this recorder belongs to.
func (r *Recorder) Rank() int {
	if r == nil {
		return 0
	}
	return r.rank
}

// Now returns nanoseconds since the recorder's epoch on the monotonic
// clock. Safe on a nil recorder (returns 0), so instrumentation points
// need no enabled-check.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Emit records a span of category cat on track that began at start (a
// value from Now) and ends now. Nil-recorder and full-buffer calls are
// no-ops; neither allocates.
func (r *Recorder) Emit(cat Category, track Track, start, bytes int64) {
	if r == nil {
		return
	}
	r.emit(cat, track, start, r.Now()-start, bytes)
}

// EmitInstant records a zero-duration marker (rendered as an instant
// event in Chrome traces).
func (r *Recorder) EmitInstant(cat Category, track Track, bytes int64) {
	if r == nil {
		return
	}
	r.emit(cat, track, r.Now(), 0, bytes)
}

// EmitAt records a span with an explicit start and duration in
// nanoseconds, for clocks other than the recorder's own — the cluster
// simulator's virtual time. Nil-recorder calls are no-ops.
func (r *Recorder) EmitAt(cat Category, track Track, start, dur, bytes int64) {
	if r == nil {
		return
	}
	r.emit(cat, track, start, dur, bytes)
}

func (r *Recorder) emit(cat Category, track Track, start, dur, bytes int64) {
	idx := r.next.Add(1) - 1
	if idx >= uint64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	s := &r.spans[idx]
	s.Cat = cat
	s.Track = track
	s.Start = start
	s.Dur = dur
	s.Bytes = bytes
}

// Len returns the number of recorded (non-dropped) spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n > uint64(len(r.spans)) {
		return len(r.spans)
	}
	return int(n)
}

// Dropped returns how many spans were discarded because the buffer was
// full.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Spans returns a snapshot of the recorded spans. Call only after the
// recording goroutines have quiesced.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return append([]Span(nil), r.spans[:r.Len()]...)
}

// Sink binds a recorder to one track and adapts it to the mpi.Tracer
// interface: the communication layer reports (op, bytes, duration)
// triples ending now, and the sink back-dates the span start so the
// collectives appear with their true extent on the timeline.
type Sink struct {
	r     *Recorder
	track Track
}

// Sink returns the recorder's adapter for the given track. A nil
// recorder yields a nil sink whose RecordSpan is a no-op, so callers may
// install it unconditionally.
func (r *Recorder) Sink(track Track) *Sink {
	if r == nil {
		return nil
	}
	return &Sink{r: r, track: track}
}

// RecordSpan implements mpi.Tracer: a collective of the given op and
// payload finished just now after running for dur.
func (s *Sink) RecordSpan(op string, bytes int64, dur time.Duration) {
	if s == nil || s.r == nil {
		return
	}
	now := s.r.Now()
	s.r.emit(CategoryOf(op), s.track, now-int64(dur), int64(dur), bytes)
}

// Session owns the tracing state of one training run: per-rank
// recorders sharing a single epoch, and — after Gather — the merged
// global timeline.
type Session struct {
	capacity int
	epoch    time.Time

	mu       sync.Mutex
	recs     map[int]*Recorder
	gathered *Timeline
}

// NewSession creates a tracing session; capacityPerRank <= 0 selects
// DefaultCapacity.
func NewSession(capacityPerRank int) *Session {
	if capacityPerRank <= 0 {
		capacityPerRank = DefaultCapacity
	}
	return &Session{capacity: capacityPerRank, epoch: time.Now(), recs: map[int]*Recorder{}}
}

// Recorder returns (creating on first use) the recorder for one rank.
// Safe to call from concurrent rank goroutines; nil sessions return a
// nil recorder, which every Recorder method tolerates.
func (s *Session) Recorder(rank int) *Recorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[rank]
	if !ok {
		r = &Recorder{rank: rank, epoch: s.epoch, spans: make([]Span, s.capacity)}
		s.recs[rank] = r
	}
	return r
}

// Timeline merges the session's spans into one global timeline. If the
// run ended with a Gather, the MPI-gathered merge is returned; otherwise
// the recorders are assembled locally (the ranks share this process's
// address space, so the local view is complete — Gather exists so the
// merge path matches what a multi-process deployment would run).
func (s *Session) Timeline() *Timeline {
	if s == nil {
		return &Timeline{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gathered != nil {
		// An elastic run can shrink its world between attempts: ranks
		// that died before the final gather exist only as local
		// recorders. Fold them in so their pre-failure spans survive.
		t := &Timeline{Ranks: append([]RankTrace(nil), s.gathered.Ranks...)}
		have := map[int]bool{}
		for _, rt := range t.Ranks {
			have[rt.Rank] = true
		}
		for rank, r := range s.recs {
			if !have[rank] {
				t.Ranks = append(t.Ranks, RankTrace{Rank: rank, Dropped: r.Dropped(), Spans: r.Spans()})
			}
		}
		t.sort()
		return t
	}
	return s.localTimeline()
}

// localTimeline assembles a timeline from the in-process recorders.
// Caller holds s.mu.
func (s *Session) localTimeline() *Timeline {
	t := &Timeline{}
	for rank := range s.recs {
		t.Ranks = append(t.Ranks, RankTrace{
			Rank:    rank,
			Dropped: s.recs[rank].Dropped(),
			Spans:   s.recs[rank].Spans(),
		})
	}
	t.sort()
	return t
}

// setGathered stores the MPI-merged timeline (root rank only).
func (s *Session) setGathered(t *Timeline) {
	s.mu.Lock()
	s.gathered = t
	s.mu.Unlock()
}

// GobEncode and GobDecode make Session gob-inert. A Session rides
// along in trainer.Config, which checkpoint structs embed; the trainer
// nils the field before encoding, but gob's type analysis still
// requires every field type to be encodable, and an unexported-only
// struct is not. Encoding a session yields nothing; decoding restores
// nothing — tracing state is runtime-only by design.
func (s *Session) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode implements gob.GobDecoder as a no-op (see GobEncode).
func (s *Session) GobDecode([]byte) error { return nil }
