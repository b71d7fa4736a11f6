package collective

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// runAllreduce executes one allreduce of the given size on a fresh
// simulated cluster and returns the per-rank completion times and the
// recorded spans.
func runAllreduce(nodes int, backend Backend, bytes int64) ([]simnet.Time, []trace.Span) {
	sim := simnet.New()
	cl := cluster.New(sim, cluster.DefaultConfig(nodes))
	rec := trace.NewRecorder(0, 16)
	g := NewGroup(cl, backend, rec)
	times := make([]simnet.Time, cl.NumGPUs())
	for r := 0; r < cl.NumGPUs(); r++ {
		r := r
		sim.Spawn("rank", func(p *simnet.Proc) {
			g.Allreduce(p, r, bytes, 7)
			times[r] = p.Now()
		})
	}
	sim.RunAll()
	return times, rec.Spans()
}

func TestAllreduceAllRanksFinishTogether(t *testing.T) {
	for _, backend := range []Backend{BackendMPI, BackendMPIOpt, BackendNCCL} {
		times, _ := runAllreduce(2, backend, 32<<20)
		for r, tt := range times {
			if math.Abs(tt-times[0]) > 1e-12 {
				t.Fatalf("%v rank %d finished at %g, rank 0 at %g", backend, r, tt, times[0])
			}
			if tt <= 0 {
				t.Fatalf("%v rank %d finished at %g", backend, r, tt)
			}
		}
	}
}

func TestAllreduceRecordsProfile(t *testing.T) {
	times, spans := runAllreduce(2, BackendMPIOpt, 40<<20)
	if len(spans) != 1 {
		t.Fatalf("spans: %d", len(spans))
	}
	s := spans[0]
	if s.Cat != trace.CatAllreduceHier || s.Track != trace.TrackEngine || s.Bytes != 40<<20 ||
		s.Start != 0 || s.Dur != nanos(times[0]) {
		t.Fatalf("bad span %+v, want hierarchical allreduce over [0, %g s)", s, times[0])
	}
}

// TestCollectiveSpanCategories: each simulated collective traces rank
// 0's view as one engine-track span whose category names the algorithm
// the backend runs, as the real stack names its spans.
func TestCollectiveSpanCategories(t *testing.T) {
	cases := []struct {
		backend Backend
		run     func(g *Group, p *simnet.Proc, rank int)
		want    trace.Category
	}{
		{BackendNCCL, func(g *Group, p *simnet.Proc, r int) { g.Allreduce(p, r, 1<<20, 1) }, trace.CatAllreduceRing},
		{BackendMPI, func(g *Group, p *simnet.Proc, r int) { g.Allreduce(p, r, 1<<20, 1) }, trace.CatAllreduceHier},
		{BackendMPIOpt, func(g *Group, p *simnet.Proc, r int) { g.AllreduceFP16(p, r, 1<<20, 1) }, trace.CatAllreduceFP16},
		{BackendNCCL, func(g *Group, p *simnet.Proc, r int) { g.AllreduceTopK(p, r, 1<<20, 32, 1) }, trace.CatAllreduceTopK},
		{BackendMPI, func(g *Group, p *simnet.Proc, r int) { g.Bcast(p, r, 1<<20, 1) }, trace.CatBcast},
		{BackendMPI, func(g *Group, p *simnet.Proc, r int) { g.Negotiate(p, r, []bool{true}) }, trace.CatNegotiate},
		{BackendNCCL, func(g *Group, p *simnet.Proc, r int) { g.ChunkedRingAllreduce(p, r, 1<<20, 2) }, trace.CatAllreduceRing},
	}
	for i, c := range cases {
		sim := simnet.New()
		cl := cluster.New(sim, cluster.DefaultConfig(2))
		rec := trace.NewRecorder(0, 4)
		g := NewGroup(cl, c.backend, rec)
		for r := 0; r < cl.NumGPUs(); r++ {
			r := r
			sim.Spawn("rank", func(p *simnet.Proc) { c.run(g, p, r) })
		}
		sim.RunAll()
		spans := rec.Spans()
		if len(spans) != 1 || spans[0].Cat != c.want || spans[0].Track != trace.TrackEngine || spans[0].Dur <= 0 {
			t.Errorf("case %d (%v): spans %+v, want one %v span", i, c.backend, spans, c.want)
		}
	}
}

// TestOptFasterThanDefaultLargeMessages is the paper's core claim in
// miniature: for ≥16 MB messages the IPC-enabled backend must beat the
// host-staged default by roughly 2x.
func TestOptFasterThanDefaultLargeMessages(t *testing.T) {
	big := int64(48 << 20)
	defTimes, _ := runAllreduce(1, BackendMPI, big)
	optTimes, _ := runAllreduce(1, BackendMPIOpt, big)
	ratio := defTimes[0] / optTimes[0]
	if ratio < 1.6 || ratio > 3.0 {
		t.Fatalf("intra-node default/opt ratio %g, want ~2 (Table I)", ratio)
	}
}

// TestSmallMessagesSamePath: below the IPC threshold both configurations
// take the pipelined staging path, so times must be identical (Table I's
// ≈0 rows).
func TestSmallMessagesSamePath(t *testing.T) {
	small := int64(4 << 20)
	defTimes, _ := runAllreduce(1, BackendMPI, small)
	optTimes, _ := runAllreduce(1, BackendMPIOpt, small)
	if math.Abs(defTimes[0]-optTimes[0]) > 1e-12 {
		t.Fatalf("small-message times differ: %g vs %g", defTimes[0], optTimes[0])
	}
}

func TestMultiNodeSlowerThanSingleNode(t *testing.T) {
	intra, _ := runAllreduce(1, BackendMPIOpt, 32<<20)
	inter, _ := runAllreduce(4, BackendMPIOpt, 32<<20)
	if inter[0] <= intra[0] {
		t.Fatalf("multi-node allreduce (%g) should cost more than single-node (%g)", inter[0], intra[0])
	}
}

func TestNCCLDegradesWithScale(t *testing.T) {
	// The flat ring's pipeline latency grows with rank count; the
	// hierarchical design's does not (ring only over node leaders).
	ncclSmall, _ := runAllreduce(2, BackendNCCL, 16<<20)
	ncclBig, _ := runAllreduce(64, BackendNCCL, 16<<20)
	if ncclBig[0] <= ncclSmall[0] {
		t.Fatalf("NCCL at 256 ranks (%g) should be slower than at 8 (%g)", ncclBig[0], ncclSmall[0])
	}
	growth := ncclBig[0] - ncclSmall[0]
	hierSmall, _ := runAllreduce(2, BackendMPIOpt, 16<<20)
	hierBig, _ := runAllreduce(64, BackendMPIOpt, 16<<20)
	hierGrowth := hierBig[0] - hierSmall[0]
	if growth <= hierGrowth {
		t.Fatalf("flat-ring growth (%g) should exceed hierarchical growth (%g)", growth, hierGrowth)
	}
}

func TestSingleGPUAllreduceFree(t *testing.T) {
	sim := simnet.New()
	cfg := cluster.DefaultConfig(1)
	cfg.GPUsPerNode = 1
	cl := cluster.New(sim, cfg)
	g := NewGroup(cl, BackendMPI, nil)
	var end simnet.Time
	sim.Spawn("r", func(p *simnet.Proc) {
		g.Allreduce(p, 0, 64<<20, 1)
		end = p.Now()
	})
	sim.RunAll()
	if end != 0 {
		t.Fatalf("single-rank allreduce should be instantaneous, took %g", end)
	}
}

func TestNegotiateIntersectsMasks(t *testing.T) {
	sim := simnet.New()
	cl := cluster.New(sim, cluster.DefaultConfig(1))
	g := NewGroup(cl, BackendMPIOpt, nil)
	results := make([][]bool, 4)
	for r := 0; r < 4; r++ {
		r := r
		sim.Spawn("rank", func(p *simnet.Proc) {
			// Tensor 0 ready everywhere; tensor 1 missing on rank 2;
			// tensor 2 ready nowhere.
			mask := []bool{true, r != 2, false}
			results[r] = g.Negotiate(p, r, mask)
		})
	}
	sim.RunAll()
	for r, got := range results {
		if !got[0] || got[1] || got[2] {
			t.Fatalf("rank %d negotiated %v, want [true false false]", r, got)
		}
	}
}

func TestNegotiateTakesTime(t *testing.T) {
	sim := simnet.New()
	cl := cluster.New(sim, cluster.DefaultConfig(2))
	g := NewGroup(cl, BackendMPIOpt, nil)
	var end simnet.Time
	for r := 0; r < 8; r++ {
		r := r
		sim.Spawn("rank", func(p *simnet.Proc) {
			g.Negotiate(p, r, []bool{true})
			end = p.Now()
		})
	}
	sim.RunAll()
	if end <= 0 {
		t.Fatal("negotiation should cost simulated time")
	}
}

func TestSequentialCollectivesIndependent(t *testing.T) {
	// Two allreduces back to back must both complete and be recorded.
	sim := simnet.New()
	cl := cluster.New(sim, cluster.DefaultConfig(2))
	rec := trace.NewRecorder(0, 16)
	g := NewGroup(cl, BackendNCCL, rec)
	for r := 0; r < 8; r++ {
		r := r
		sim.Spawn("rank", func(p *simnet.Proc) {
			g.Allreduce(p, r, 1<<20, 1)
			g.Allreduce(p, r, 2<<20, 2)
		})
	}
	sim.RunAll()
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans %d", len(spans))
	}
	if spans[0].Bytes != 1<<20 || spans[1].Bytes != 2<<20 || spans[1].Start < spans[0].Start+spans[0].Dur {
		t.Fatalf("span order/sizes wrong: %+v", spans)
	}
}

func TestBackendProperties(t *testing.T) {
	if BackendMPI.UsesRegCache() || !BackendMPIReg.UsesRegCache() || !BackendMPIOpt.UsesRegCache() {
		t.Fatal("reg-cache flags wrong")
	}
	if BackendMPI.IntraPath() != cluster.PathHostStaged {
		t.Fatal("default MPI must stage intra-node")
	}
	if BackendMPIOpt.IntraPath() != cluster.PathIPC {
		t.Fatal("MPI-Opt must use IPC")
	}
	if BackendMPI.InterPath() != cluster.PathIBStaged || BackendNCCL.InterPath() != cluster.PathGDR {
		t.Fatal("inter paths wrong")
	}
	for _, b := range []Backend{BackendMPI, BackendMPIReg, BackendMPIOpt, BackendNCCL, Backend(42)} {
		if b.String() == "" {
			t.Fatal("empty backend name")
		}
	}
}

func TestBcastCompletes(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		for _, backend := range []Backend{BackendMPI, BackendMPIOpt} {
			sim := simnet.New()
			cl := cluster.New(sim, cluster.DefaultConfig(nodes))
			rec := trace.NewRecorder(0, 16)
			g := NewGroup(cl, backend, rec)
			times := make([]simnet.Time, cl.NumGPUs())
			for r := 0; r < cl.NumGPUs(); r++ {
				r := r
				sim.Spawn("rank", func(p *simnet.Proc) {
					g.Bcast(p, r, 64<<20, 5)
					times[r] = p.Now()
				})
			}
			sim.RunAll()
			for r, tt := range times {
				if tt != times[0] || tt <= 0 {
					t.Fatalf("nodes=%d %v: rank %d finished at %g (rank0 %g)",
						nodes, backend, r, tt, times[0])
				}
			}
			if spans := rec.Spans(); len(spans) != 1 || spans[0].Cat != trace.CatBcast {
				t.Fatalf("bcast span missing: %+v", spans)
			}
		}
	}
}

func TestBcastMultiNodeSlower(t *testing.T) {
	run := func(nodes int) simnet.Time {
		sim := simnet.New()
		cl := cluster.New(sim, cluster.DefaultConfig(nodes))
		g := NewGroup(cl, BackendMPIOpt, nil)
		var end simnet.Time
		for r := 0; r < cl.NumGPUs(); r++ {
			r := r
			sim.Spawn("rank", func(p *simnet.Proc) {
				g.Bcast(p, r, 64<<20, 5)
				end = p.Now()
			})
		}
		sim.RunAll()
		return end
	}
	if run(8) <= run(1) {
		t.Fatal("multi-node bcast should cost more than single-node")
	}
}

func TestInstancesReleased(t *testing.T) {
	sim := simnet.New()
	cl := cluster.New(sim, cluster.DefaultConfig(1))
	g := NewGroup(cl, BackendMPIOpt, nil)
	for r := 0; r < 4; r++ {
		r := r
		sim.Spawn("rank", func(p *simnet.Proc) {
			for i := 0; i < 10; i++ {
				g.Allreduce(p, r, 1<<20, uint64(i))
			}
		})
	}
	sim.RunAll()
	if len(g.instances) != 0 {
		t.Fatalf("%d instances leaked", len(g.instances))
	}
}
