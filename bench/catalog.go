package main

import "strings"

// metricDef names one reported number. The tables below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root repeats
// them for the acceptance driver and bench_test.go keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The bounds are the share of the parent's median by which a gated metric
// may worsen before a change counts as a regression. regressionBound, the
// issue's 10 %, holds for what the reference box repeats to 2-4 % (NOISE.md).
// The allreduce mix streams 480 MB a pass through memory the box shares
// with its neighbours and read 508-670 MB/s over one afternoon, medians of
// ten runs 571-639; allreduce_mix's set-up, which faults those pages in,
// moved by 9 % between two sets. A 10 % bound there would reject the same
// code twice in one afternoon.
const (
	regressionBound = 0.10
	setupBound      = 0.20
	memoryBound     = 0.25
)

// endToEnd lists the metrics a user of the system would see. Every run
// prints all five (the driver's contract); natives below says which of
// them each workload actually measures — the 12 gated pairs of the issue.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", setupBound},
	{"images_per_s", "1/s", "higher", regressionBound},
	{"allreduce_mb_per_s", "MB/s", "higher", memoryBound},
	{"req_per_s", "1/s", "higher", regressionBound},
	{"latency_p50_ms", "ms", "lower", regressionBound},
}

// perLayer lists the ledger: numbers measured from outside each layer in
// the traced pass. None is gated. A metric a workload does not exercise
// reads 0 there (horovod.* on train_single is the intended example);
// workloadDef.Layers says which ones each workload must measure.
var perLayer = []metricDef{
	{Name: "data.next_ms", Unit: "ms", Better: "lower"},

	{Name: "tensor.gemm_train_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_packed_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.vecadd_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.packhalf_gb_per_s", Unit: "GB/s", Better: "higher"},

	{Name: "nn.conv_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.conv_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.optim_step_ms", Unit: "ms", Better: "lower"},

	{Name: "models.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "models.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "models.compiled_forward_ms", Unit: "ms", Better: "lower"},

	{Name: "trainer.step_ms", Unit: "ms", Better: "lower"},
	{Name: "trainer.build_ms", Unit: "ms", Better: "lower"},
	{Name: "trainer.coverage", Unit: "ratio", Better: "higher"},

	{Name: "horovod.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "horovod.submit_us", Unit: "us", Better: "lower"},
	{Name: "horovod.allreduce_calls_per_step", Unit: "count", Better: "lower"},
	{Name: "horovod.fused_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "horovod.hidden_share", Unit: "ratio", Better: "higher"},

	{Name: "mpi.ring_4KB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.ring_64KB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.ring_1MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.ring_8MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.ring_24MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.ring_48MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.fp16_1MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.fp16_8MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.nodeaware_1MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.nodeaware_8MB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.naive_4KB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.naive_64KB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.recdbl_4KB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.recdbl_64KB_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.sent_bytes_per_pass", Unit: "bytes", Better: "lower"},
	{Name: "mpi.wire_ratio_fp16", Unit: "ratio", Better: "lower"},
	{Name: "mpi.allreduce_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "mpi.sent_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "mpi.bcast_params_ms", Unit: "ms", Better: "lower"},

	{Name: "collective.topk_1MB_us", Unit: "us", Better: "lower"},
	{Name: "collective.topk_8MB_us", Unit: "us", Better: "lower"},
	{Name: "collective.wire_ratio_topk", Unit: "ratio", Better: "lower"},

	{Name: "imageio.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "imageio.encode_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.mean_batch", Unit: "count", Better: "higher"},
	{Name: "serve.batch_close_full", Unit: "count", Better: "higher"},
	{Name: "serve.batch_close_timeout", Unit: "count", Better: "lower"},
	{Name: "serve.tiles_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.coverage", Unit: "ratio", Better: "higher"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.bytes_mb", Unit: "MB", Better: "lower"},
	{Name: "cache.get_us", Unit: "us", Better: "lower"},
	{Name: "cache.insert_us", Unit: "us", Better: "lower"},

	{Name: "router.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "router.attempts_per_request", Unit: "count", Better: "lower"},
	{Name: "router.backend_share_max", Unit: "ratio", Better: "lower"},

	{Name: "client.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.open_late_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workloadDef is one set of inputs the benchmark runs. Natives are the
// end-to-end metrics the workload measures itself (besides setup_s); the
// others are printed as the same timed operations in that metric's
// dimension (see fillOffDomain) because the driver's contract has every
// run print every name. BENCHMARK.json allows no key for this, so each
// why-sentence ends by naming the natives. Layers are the per-layer
// metrics the traced pass must measure, as names or name prefixes.
type workloadDef struct {
	Name    string
	Why     string
	Natives []string
	Layers  []string
	setup   func(cfg runConfig) (instance, error)
}

// gated lists the end-to-end metrics this workload measures itself: its
// share of the 12 gated pairs.
func (w *workloadDef) gated() []string { return append([]string{"setup_s"}, w.Natives...) }

// measures reports whether the traced pass of this workload owes the
// per-layer metric name.
func (w *workloadDef) measures(name string) bool {
	for _, l := range w.Layers {
		if strings.HasPrefix(name, l) {
			return true
		}
	}
	return false
}

// closeLedger ends a traced run: a per-layer metric the workload owes and
// did not set is a failure (a 0 would pass for "layer not exercised"), as
// is one it set without listing; the metrics it does not exercise read 0.
func (w *workloadDef) closeLedger(r *report) {
	for _, m := range perLayer {
		_, set := r.Values[m.Name]
		switch owed := w.measures(m.Name); {
		case owed && !set:
			r.fail("per-layer metric %s was not measured", m.Name)
			r.set(m.Name, 0)
		case !owed && set:
			r.fail("per-layer metric %s is measured but not listed in the workload's Layers", m.Name)
		case !owed:
			r.set(m.Name, 0)
		}
	}
}

// instance is a set-up workload: the harness times its construction as
// setup_s, then runs exactly one of the two passes.
type instance interface {
	// Timed runs the untraced pass and records the native end-to-end
	// metrics. It returns the timed operations per second and the time
	// of one in ms (fast quartiles both), from which off-domain names are
	// filled.
	Timed(r *report) (opsPerSec, opMedianMs float64)
	// Traced runs the per-layer ledger pass.
	Traced(r *report, tr *tracer)
	Close()
}

var (
	procLayers  = []string{"proc.gc_pause_ms", "proc.heap_mb", "trace."}
	trainLayers = append([]string{"data.", "tensor.gemm_train_gflops", "nn.", "models.forward_ms", "models.backward_ms", "trainer.", "proc.allocs_per_step"}, procLayers...)
	distLayers  = append([]string{"horovod.", "mpi.allreduce_ms_per_step", "mpi.sent_bytes_per_step", "mpi.bcast_params_ms"}, trainLayers...)
	mixLayers   = append([]string{"mpi.ring_", "mpi.fp16_", "mpi.nodeaware_", "mpi.naive_", "mpi.recdbl_", "mpi.barrier_us", "mpi.sent_bytes_per_pass", "mpi.wire_ratio_fp16", "collective.", "tensor.vecadd_gb_per_s", "tensor.packhalf_gb_per_s"}, procLayers...)
	serveLayers = append([]string{"imageio.", "serve.", "cache.", "client.", "models.compiled_forward_ms", "proc.allocs_per_request"}, procLayers...)
)

var workloads = []workloadDef{
	{
		Name:    "train_single",
		Why:     "single-worker baseline: tensor/nn/models ~70% and data ~30% of a step, mpi/horovod none; kernels run inline with no rank or engine goroutine beside them. Native: setup_s, images_per_s",
		Natives: []string{"images_per_s"},
		Layers:  trainLayers,
		setup:   func(cfg runConfig) (instance, error) { return setupTrain(cfg, 1) },
	},
	{
		Name:    "train_dist",
		Why:     "same compute through horovod fusion/negotiation and mpi with backward/comm overlap on 2 ranks sharing the CPU; engine and overlap changes show here, not on train_single. Native: setup_s, images_per_s",
		Natives: []string{"images_per_s"},
		Layers:  distLayers,
		setup:   func(cfg runConfig) (instance, error) { return setupTrain(cfg, 2) },
	},
	{
		Name:    "allreduce_mix",
		Why:     "the paper's Table I in isolation: exact ring per hvprof size class beside fp16, top-k and node-aware at p=4; mpi/collective do all the work, nn/models none. Native: setup_s, allreduce_mb_per_s",
		Natives: []string{"allreduce_mb_per_s"},
		Layers:  mixLayers,
		setup:   setupAllreduce,
	},
	{
		Name:    "serve_unique",
		Why:     "distinct images, one replica: every lookup misses, inserts, evicts (cache in write mode); imageio, batcher and compiled forward do the work, router none. Native: setup_s, req_per_s, latency_p50_ms",
		Natives: []string{"req_per_s", "latency_p50_ms"},
		Layers:  append([]string{"tensor.gemm_packed_gflops"}, serveLayers...),
		setup:   func(cfg runConfig) (instance, error) { return setupServe(cfg, false) },
	},
	{
		Name:    "fleet_zipf",
		Why:     "Zipf repeats over a warmed catalogue via hash router and 2 replicas: hit-only (cache in read mode); router, HTTP hops, imageio do the work, forward none. Native: setup_s, req_per_s, latency_p50_ms",
		Natives: []string{"req_per_s", "latency_p50_ms"},
		Layers:  append([]string{"router."}, serveLayers...),
		setup:   func(cfg runConfig) (instance, error) { return setupServe(cfg, true) },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fillOffDomain gives every end-to-end name a value on every workload.
// A rate outside its domain reads the workload's timed operations per
// second (rounds, passes or requests) and latency_p50_ms reads the
// operation time, so the filler is never 0, moves exactly with the native
// pair, and adds no independent measurement.
func fillOffDomain(r *report, w *workloadDef, opsPerSec, opMedianMs float64) {
	native := map[string]bool{}
	for _, n := range w.gated() {
		native[n] = true
	}
	for _, m := range endToEnd {
		if native[m.Name] {
			continue
		}
		if m.Name == "latency_p50_ms" {
			r.set(m.Name, opMedianMs)
		} else {
			r.set(m.Name, opsPerSec)
		}
	}
}
