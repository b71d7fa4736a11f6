package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/horovod"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// The allreduce mix. One timed operation is a pass: every entry of
// mixPlan, Count calls each, barrier to barrier on rank 0. Sizes are one
// per hvprof class {<=128 KB: 4 KB, 64 KB | <=16 MB: 1 MB, 8 MB | <=32 MB:
// 24 MB | >32 MB: 48 MB}; the compressed variants run at 1 MB and 8 MB.
// Call counts are constants, fixed once at the seed commit so that each
// size class and each compressed variant is 11-17 % of the pass (the
// traced pass asserts 10-25 %) — with a few dozen small calls the
// <=128 KB class would be 0.3 % of the pass and no small-message change
// could ever show.
const (
	mixWorld       = 4
	mixGPUsPerNode = 2
	mixTopKRatio   = 32
	mixWarmup      = 2
	// mixRefPassSeconds: timed passes = seconds / it. A pass with its
	// untimed restore and checks takes 1.3 s at the seed commit on one CPU
	// of the reference box; the rest of each 1.6 pays for the first set-up
	// of a run, whose 480 MB of fresh pages can cost it 5 s more than the
	// later two.
	mixRefPassSeconds = 1.6
	mixMinPasses      = 3
	// Every class's share of a traced pass must lie in this band: below
	// it a change to the class could not show in allreduce_mb_per_s, above
	// it the class would drown the others.
	mixShareMin, mixShareMax = 0.10, 0.25
)

type mixKind int

const (
	mixRing mixKind = iota
	mixFP16
	mixTopK
	mixNodeAware
	// The two below run only in the traced pass: the before-numbers for
	// a small-message algorithm-selection table.
	mixNaive
	mixRecDbl
)

// mixEntry is one line of the plan. Class groups entries whose share of
// the pass is reported together. The Count calls of a pass cycle through
// Bufs work buffers (0: one per call). A buffer reduced u times in place
// holds p^(u-1) times the sum, which the check accounts for; u stays at
// 20 or below, far inside float32. Few buffers keep the working set near
// 120 MB a rank: with one buffer per small call it would be 250 MB, and set-up
// time followed whether the host had those pages at hand.
type mixEntry struct {
	Name  string // per-layer metric stem, e.g. ring_4KB
	Layer string // mpi or collective
	Class string
	Kind  mixKind
	Elems int
	Count int
	Bufs  int
}

func (e mixEntry) bufs() int {
	if e.Bufs == 0 {
		return e.Count
	}
	return min(e.Bufs, e.Count)
}

// uses is how many of the pass's calls reduce buffer b.
func (e mixEntry) uses(b int) int { return (e.Count - b + e.bufs() - 1) / e.bufs() }

var mixPlan = []mixEntry{
	{"ring_4KB", "mpi", "ring<=128KB", mixRing, 1 << 10, 8192, 512},
	{"ring_64KB", "mpi", "ring<=128KB", mixRing, 16 << 10, 2048, 128},
	{"ring_1MB", "mpi", "ring<=16MB", mixRing, 1 << 18, 32, 4},
	{"ring_8MB", "mpi", "ring<=16MB", mixRing, 2 << 20, 12, 1},
	{"ring_24MB", "mpi", "ring<=32MB", mixRing, 6 << 20, 4, 1},
	{"ring_48MB", "mpi", "ring>32MB", mixRing, 12 << 20, 2, 1},
	{"fp16_1MB", "mpi", "fp16", mixFP16, 1 << 18, 2, 0},
	{"fp16_8MB", "mpi", "fp16", mixFP16, 2 << 20, 1, 0},
	{"topk_1MB", "collective", "topk", mixTopK, 1 << 18, 1, 0},
	{"topk_8MB", "collective", "topk", mixTopK, 2 << 20, 1, 0},
	{"nodeaware_1MB", "mpi", "nodeaware", mixNodeAware, 1 << 18, 8, 2},
	{"nodeaware_8MB", "mpi", "nodeaware", mixNodeAware, 2 << 20, 10, 1},
}

// mixSelection is the traced-only table: the two alternatives to the
// ring at the two small sizes, a few calls each.
var mixSelection = []mixEntry{
	{"naive_4KB", "mpi", "selection", mixNaive, 1 << 10, 64, 0},
	{"naive_64KB", "mpi", "selection", mixNaive, 16 << 10, 32, 0},
	{"recdbl_4KB", "mpi", "selection", mixRecDbl, 1 << 10, 64, 0},
	{"recdbl_64KB", "mpi", "selection", mixRecDbl, 16 << 10, 32, 0},
}

func mixPasses(seconds float64) int {
	return max(mixMinPasses, int(math.Round(seconds/mixRefPassSeconds)))
}

// mixPool is the shared read-only source of every rank's inputs: seeded
// normal values (never tied or constant — top-k on tied values takes
// sporadic second-long passes). Rank r's pristine input for plan entry e
// is a window of the pool, so inputs need no per-rank copies and the
// float64 reference sum is recomputed from the pool on demand.
type mixPool struct{ vals []float32 }

const (
	mixRankStride  = 1<<16 + 1
	mixEntryStride = 1009
)

func newMixPool(seed uint64, maxElems int) *mixPool {
	t := tensor.New(maxElems + mixWorld*mixRankStride + (len(mixPlan)+len(mixSelection))*mixEntryStride)
	t.FillNormal(tensor.NewRNG(seed), 0, 1)
	return &mixPool{vals: t.Data()}
}

func (p *mixPool) input(rank, entry, elems int) []float32 {
	off := rank*mixRankStride + entry*mixEntryStride
	return p.vals[off : off+elems]
}

// mixRank is one rank's private state: its work buffers, its top-k
// error-feedback state, and its failure count.
type mixRank struct {
	comm    *mpi.Comm
	topk    *collective.TopK
	work    [][][]float32 // [entry][call] over mixPlan then mixSelection
	failed  int
	reasons []string
}

func (rk *mixRank) failf(format string, args ...any) {
	rk.failed++
	if len(rk.reasons) < 4 {
		rk.reasons = append(rk.reasons, fmt.Sprintf("rank %d: ", rk.comm.Rank())+fmt.Sprintf(format, args...))
	}
}

type mixInstance struct {
	pool    *mixPool
	entries []mixEntry // mixPlan followed by mixSelection
	ranks   []*mixRank
	cmds    []chan func(*mixRank)
	exited  []chan struct{}
	runErr  chan error
	passes  int
	quick   bool
	// passCount numbers passes across phases so sampled checks rotate.
	passCount int
}

func setupAllreduce(cfg runConfig) (instance, error) {
	m := &mixInstance{passes: mixPasses(cfg.Seconds), quick: cfg.Quick}
	m.entries = append(append([]mixEntry(nil), mixPlan...), mixSelection...)
	warm := mixWarmup
	if cfg.Quick {
		// Same code paths on a sliver of the sizes and counts.
		for i := range m.entries {
			m.entries[i].Elems = max(1<<10, m.entries[i].Elems>>6)
			m.entries[i].Count = max(1, m.entries[i].Count>>6)
		}
		m.passes, warm = 2, 1
	}
	maxElems := 0
	for _, e := range m.entries {
		maxElems = max(maxElems, e.Elems)
	}
	m.pool = newMixPool(cfg.Seed, maxElems)

	world := mpi.NewWorld(mixWorld)
	world.SetGPUsPerNode(mixGPUsPerNode)
	m.ranks = make([]*mixRank, mixWorld)
	m.cmds = make([]chan func(*mixRank), mixWorld)
	m.exited = make([]chan struct{}, mixWorld)
	for i := range m.cmds {
		m.cmds[i] = make(chan func(*mixRank))
		m.exited[i] = make(chan struct{})
	}
	m.runErr = make(chan error, 1)
	// The ranks live until Close: each executes the functions sent to it,
	// so warm-up and timed passes share communicators and their scratch.
	go func() {
		m.runErr <- world.Run(func(c *mpi.Comm) {
			defer close(m.exited[c.Rank()])
			rk := &mixRank{comm: c, topk: collective.NewTopK(mixTopKRatio)}
			for _, e := range m.entries {
				bufs := make([][]float32, e.bufs())
				for i := range bufs {
					bufs[i] = make([]float32, e.Elems)
				}
				rk.work = append(rk.work, bufs)
			}
			m.ranks[c.Rank()] = rk
			for f := range m.cmds[c.Rank()] {
				f(rk)
			}
		})
	}()
	if _, err := m.runPasses(warm, nil); err != nil {
		m.Close()
		return nil, err
	}
	if f, reasons := m.drainFailures(); f > 0 {
		m.Close()
		return nil, fmt.Errorf("warm-up passes failed %d checks: %v", f, reasons)
	}
	return m, nil
}

// each runs f on every rank and waits for all of them.
func (m *mixInstance) each(f func(rk *mixRank)) error {
	var wg sync.WaitGroup
	for i := range m.cmds {
		wg.Add(1)
		select {
		case m.cmds[i] <- func(rk *mixRank) { defer wg.Done(); f(rk) }:
		case <-m.exited[i]:
			return fmt.Errorf("rank %d exited", i)
		}
	}
	wg.Wait()
	return nil
}

func (m *mixInstance) Close() {
	for _, ch := range m.cmds {
		close(ch)
	}
	<-m.runErr
}

func (m *mixInstance) drainFailures() (int, []string) {
	var n int
	var reasons []string
	for _, rk := range m.ranks {
		n += rk.failed
		reasons = append(reasons, rk.reasons...)
		rk.failed, rk.reasons = 0, nil
	}
	return n, reasons
}

// mixPassStats is what rank 0 measured over a batch of passes.
type mixPassStats struct {
	seconds   []float64 // per pass, barrier to barrier
	sentBytes []int64   // per pass, rank 0's wire bytes inside the window
}

// call runs one collective of the plan on buf.
func (rk *mixRank) call(kind mixKind, buf []float32) {
	switch kind {
	case mixRing:
		rk.comm.AllreduceSum(buf, horovod.DefaultConfig().Algo)
	case mixFP16:
		rk.comm.AllreduceSumFP16(buf)
	case mixTopK:
		if err := rk.topk.Allreduce(rk.comm, buf); err != nil {
			rk.failf("top-k allreduce: %v", err)
		}
	case mixNodeAware:
		rk.comm.AllreduceSumNodeAware(buf, false)
	case mixNaive:
		rk.comm.AllreduceSum(buf, mpi.AlgoNaive)
	case mixRecDbl:
		rk.comm.AllreduceSum(buf, mpi.AlgoRecursiveDoubling)
	}
}

// calls runs one plan entry's calls of a pass.
func (rk *mixRank) calls(e int, entry mixEntry) {
	bufs := rk.work[e]
	for c := 0; c < entry.Count; c++ {
		rk.call(entry.Kind, bufs[c%len(bufs)])
	}
}

// runPasses runs n passes on every rank. With a tracer, rank 0 wraps each
// plan entry's calls in one span under the pass root and also runs the
// selection table under a root of its own.
func (m *mixInstance) runPasses(n int, tr *tracer) (mixPassStats, error) {
	var st mixPassStats
	first := m.passCount
	m.passCount += n
	err := m.each(func(rk *mixRank) {
		rank0 := rk.comm.Rank() == 0
		var t *tracer
		if rank0 {
			t = tr
		}
		for pass := 0; pass < n; pass++ {
			seq := first + pass
			entries := len(mixPlan)
			if tr != nil {
				entries = len(m.entries)
			}
			for e := 0; e < entries; e++ {
				src := m.pool.input(rk.comm.Rank(), e, m.entries[e].Elems)
				for _, buf := range rk.work[e] {
					copy(buf, src)
				}
			}
			rk.comm.Barrier()
			began, sent := time.Now(), rk.comm.SentBytes()
			op := 2 * pass // the selection table is operation op+1
			root := t.begin("allreduce/pass", 0, op)
			for e := range mixPlan {
				entry := m.entries[e]
				id := t.begin(entry.Layer+"/"+entry.Name, root, op)
				rk.calls(e, entry)
				t.end(id)
			}
			rk.comm.Barrier()
			t.end(root)
			if rank0 {
				st.seconds = append(st.seconds, time.Since(began).Seconds())
				st.sentBytes = append(st.sentBytes, rk.comm.SentBytes()-sent)
			}
			if tr != nil {
				root := t.begin("allreduce/selection", 0, op+1)
				for e := len(mixPlan); e < len(m.entries); e++ {
					entry := m.entries[e]
					id := t.begin(entry.Layer+"/"+entry.Name, root, op+1)
					rk.calls(e, entry)
					t.end(id)
				}
				id := t.begin("mpi/barrier", root, op+1)
				for i := 0; i < mixBarrierReps; i++ {
					rk.comm.Barrier()
				}
				t.end(id)
				t.end(root)
			}
			// Every call's result is checked on a rotating sample of its
			// elements; on the very first pass (in set-up, with a zero
			// top-k residual) the compressed variants are checked in full.
			m.verify(rk, entries, seq)
			rk.comm.Barrier() // nobody restores while a peer still compares
		}
	})
	return st, err
}

const (
	mixBarrierReps  = 256
	mixSampleStride = 61
)

// verify checks this rank's result of every call against the float64
// reference sum of the four pristine inputs, and (ranks > 0) against
// rank 0's bits.
func (m *mixInstance) verify(rk *mixRank, entries, seq int) {
	p := mixWorld
	me := rk.comm.Rank()
	for e := 0; e < entries; e++ {
		entry := m.entries[e]
		stride, start := mixSampleStride, seq%mixSampleStride
		full := seq == 0 && (entry.Kind == mixFP16 || entry.Kind == mixTopK)
		if full {
			stride, start = 1, 0
		}
		var in [mixWorld][]float32
		for r := 0; r < p; r++ {
			in[r] = m.pool.input(r, e, entry.Elems)
		}
		k := collective.TopKCount(entry.Elems, mixTopKRatio)
		for call, got := range rk.work[e] {
			bad, nonzero := -1, 0
			// A buffer reduced u times in the pass holds p^(u-1) sums.
			factor := math.Pow(float64(p), float64(entry.uses(call)-1))
			for i := start; i < entry.Elems; i += stride {
				g := got[i]
				var ref, mag float64
				for r := 0; r < p; r++ {
					ref += factor * float64(in[r][i])
					mag += factor * math.Abs(float64(in[r][i]))
				}
				ok := !math.IsNaN(float64(g)) && !math.IsInf(float64(g), 0)
				switch entry.Kind {
				case mixFP16:
					// One binary16 rounding (2^-11 relative) per ring hop.
					ok = ok && math.Abs(float64(g)-ref) <= float64(p)*mag/2048+1e-6
				case mixTopK:
					if g != 0 {
						nonzero++
					}
					// With a zero residual (first pass) each element is the
					// rank-order float32 sum of the inputs of the ranks
					// that selected it — one of 2^p subset sums.
					ok = ok && (seq != 0 || isSubsetSum(g, in[:], i))
				default:
					ok = ok && math.Abs(float64(g)-ref) <= 1e-5*mag
				}
				if me != 0 && math.Float32bits(g) != math.Float32bits(m.ranks[0].work[e][call][i]) {
					ok = false
				}
				if !ok && bad < 0 {
					bad = i
				}
			}
			if entry.Kind == mixTopK && full && (nonzero < k || nonzero > p*k) {
				rk.failf("%s call %d: %d non-zero elements, want %d..%d", entry.Name, call, nonzero, k, p*k)
			} else if bad >= 0 {
				rk.failf("%s call %d: element %d = %v fails its check", entry.Name, call, bad, got[bad])
			}
		}
	}
}

// isSubsetSum reports whether g equals the float32 sum, in rank order
// from zero, of in[r][i] over some subset of ranks.
func isSubsetSum(g float32, in [][]float32, i int) bool {
	for mask := 0; mask < 1<<len(in); mask++ {
		var s float32
		for r := range in {
			if mask&(1<<r) != 0 {
				s += in[r][i]
			}
		}
		if s == g {
			return true
		}
	}
	return false
}

// callsPerPass is the number of collective calls in one timed pass.
func (m *mixInstance) callsPerPass() int {
	n := 0
	for e := range mixPlan {
		n += m.entries[e].Count
	}
	return n
}

func (m *mixInstance) payloadBytes() int64 {
	var b int64
	for e := range mixPlan {
		b += int64(m.entries[e].Elems) * 4 * int64(m.entries[e].Count)
	}
	return b
}

// account folds a batch of passes into the report's operation counts:
// every collective call is one attempted operation, every failed check
// one failed operation (at most all of them).
func (m *mixInstance) account(r *report, passes int) {
	calls := passes * m.callsPerPass()
	r.ops(calls)
	failed, reasons := m.drainFailures()
	r.failN(min(failed, calls), reasons, "allreduce check failed")
}

func (m *mixInstance) Timed(r *report) (float64, float64) {
	st, err := m.runPasses(m.passes, nil)
	if err != nil {
		r.abort(err)
		return 0, 0
	}
	m.account(r, m.passes)
	s := summarize(st.seconds)
	r.detailf("%-28s %.3f", "pass seconds", st.seconds)
	mb := float64(m.payloadBytes()) / 1e6
	r.set("allreduce_mb_per_s", mb/s.Q1) // fastTime
	r.timing("pass", "s", s)
	r.detailf("%-28s %.2f MB per rank per pass in %d calls, p=%d", "pass payload", mb, m.callsPerPass(), mixWorld)
	return 1 / s.Q1, s.Q1 * 1e3
}

func (m *mixInstance) Traced(r *report, tr *tracer) {
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	n := max(2, m.passes/4)
	plain, err := m.runPasses(n, nil)
	if err != nil {
		r.abort(err)
		return
	}
	m.account(r, n)
	traced, err := m.runPasses(n, tr)
	if err != nil {
		r.abort(err)
		return
	}
	m.account(r, n)

	pass := median(traced.seconds)
	shares := map[string]float64{}
	for e, entry := range m.entries {
		root := "allreduce/pass"
		if e >= len(mixPlan) {
			root = "allreduce/selection"
		}
		group := median(tr.perOp(root, entry.Layer+"/"+entry.Name))
		r.set(entry.Layer+"."+entry.Name+"_us", group/float64(entry.Count)*1e6)
		if e < len(mixPlan) {
			shares[entry.Class] += group / pass
		}
	}
	r.set("mpi.barrier_us", median(tr.durations("mpi/barrier"))/mixBarrierReps*1e6)
	r.set("mpi.sent_bytes_per_pass", float64(plain.sentBytes[0]))
	for _, b := range append(plain.sentBytes, traced.sentBytes...) {
		r.check(b == plain.sentBytes[0], "sent bytes per pass moved: %d vs %d", b, plain.sentBytes[0])
	}
	r.set("mpi.wire_ratio_fp16", m.wireRatio(mixFP16))
	r.set("collective.wire_ratio_topk", m.wireRatio(mixTopK))
	r.set("trace.overhead_pct", (pass/median(plain.seconds)-1)*100)
	cov := tr.coverage("allreduce/pass")
	r.check(cov >= 0.90, "pass coverage %.3f < 0.90", cov)
	r.timing("pass (untraced)", "s", summarize(plain.seconds))
	r.timing("pass (traced)", "s", summarize(traced.seconds))
	for _, class := range []string{"ring<=128KB", "ring<=16MB", "ring<=32MB", "ring>32MB", "fp16", "topk", "nodeaware"} {
		r.detailf("%-28s %.1f %% of the pass", "share "+class, shares[class]*100)
		// (A quick run's sliver of the sizes has other proportions.)
		r.check(m.quick || shares[class] >= mixShareMin && shares[class] <= mixShareMax,
			"class %s is %.1f %% of the pass, outside %.0f-%.0f %%", class, shares[class]*100, mixShareMin*100, mixShareMax*100)
	}
	r.detailf("%-28s %.3f of the pass is inside its call spans", "coverage", cov)
	benchVectorKernels(r, microBudget(m.quick))
	recordProc(r, mem0)
}

// wireRatio measures, on rank 0 and outside any pass, the bytes one 1 MB
// compressed call puts on the wire over the bytes the exact ring does.
func (m *mixInstance) wireRatio(kind mixKind) float64 {
	var exact, compressed int64
	entry := -1
	for e, me := range mixPlan {
		if me.Kind == kind && entry < 0 {
			entry = e
		}
	}
	err := m.each(func(rk *mixRank) {
		buf := rk.work[entry][0]
		copy(buf, m.pool.input(rk.comm.Rank(), entry, len(buf)))
		rk.comm.Barrier()
		s0 := rk.comm.SentBytes()
		rk.call(mixRing, buf)
		s1 := rk.comm.SentBytes()
		copy(buf, m.pool.input(rk.comm.Rank(), entry, len(buf)))
		rk.comm.Barrier()
		s2 := rk.comm.SentBytes()
		rk.call(kind, buf)
		s3 := rk.comm.SentBytes()
		if rk.comm.Rank() == 0 {
			exact, compressed = s1-s0, s3-s2
		}
	})
	if err != nil || exact == 0 {
		return 0
	}
	// The barrier between the two calls is inside neither window.
	return float64(compressed) / float64(exact)
}
