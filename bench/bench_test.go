package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/data"
)

const benchmarkJSON = "../BENCHMARK.json"

// TestCatalogMatchesBenchmarkJSON: the metric and workload names, units,
// directions and bounds in code and in BENCHMARK.json agree, and all stay
// inside the acceptance contract's character sets and counts.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	if err := validateCatalog(benchmarkJSON); err != nil {
		t.Fatal(err)
	}
	if len(endToEnd) != 5 || len(workloads) != 5 {
		t.Fatalf("%d end-to-end metrics and %d workloads, want 5 and 5", len(endToEnd), len(workloads))
	}
	if len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	pairs := 0
	names := map[string]bool{}
	for _, m := range endToEnd {
		names[m.Name] = true
	}
	for _, w := range workloads {
		pairs += len(w.gated())
		for _, n := range w.Natives {
			if !names[n] || n == "setup_s" {
				t.Errorf("workload %s: native %q is not a gated end-to-end metric", w.Name, n)
			}
		}
	}
	if pairs != 12 {
		t.Errorf("%d gated workload x metric pairs, want 12", pairs)
	}
}

// TestQuickMode runs the validate-only mode over every workload: span
// forests single-rooted and orphan-free, ledgers closed, every output
// check passing. It asserts no timing: the one floor that rests on wall
// clocks, serve.coverage, is lowered to where only a missing row fails it.
func TestQuickMode(t *testing.T) {
	if err := runQuick(workloads, 1, benchmarkJSON, serveCoverageFloorTest); err != nil {
		t.Fatal(err)
	}
}

// TestResultLineShape: both kinds of run print exactly the contract's
// metric sets, and a timed run leaves no end-to-end metric at zero.
func TestResultLineShape(t *testing.T) {
	w := findWorkload("train_single")
	for _, traced := range []bool{false, true} {
		r, err := runWorkload(w, runConfig{Seed: 3, Seconds: 1, Trace: traced, Quick: true, CoverageFloor: serveCoverageFloorTest})
		if err != nil {
			t.Fatal(err)
		}
		o := outcomeOf(r, traced)
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(o.Metrics) != len(want) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(o.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := o.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or unit %q != %q", traced, m.Name, v.Unit, m.Unit)
			}
			if !traced && v.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", m.Name)
			}
		}
		if !o.Correct || o.Attempted < 1 || o.Failed != 0 {
			t.Errorf("traced=%v: outcome %+v", traced, o)
		}
	}
}

// TestGeneratorsDeterministic: the same seed gives the same inputs and a
// different seed different ones — dataset scenes, allreduce buffers, the
// Zipf stream and the training configuration.
func TestGeneratorsDeterministic(t *testing.T) {
	scene := func(seed uint64) []byte {
		ds := data.NewDataset(data.SyntheticConfig{Images: 2, Height: serveEdge, Width: serveEdge, Channels: 3, Seed: seed})
		png, err := scenePNG(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		return png
	}
	if !bytes.Equal(scene(5), scene(5)) || bytes.Equal(scene(5), scene(6)) {
		t.Error("scene PNGs do not follow the seed")
	}
	pool := func(seed uint64) []float32 { return newMixPool(seed, 1<<10).input(3, 2, 1<<10) }
	if !reflect.DeepEqual(pool(5), pool(5)) || reflect.DeepEqual(pool(5), pool(6)) {
		t.Error("allreduce buffers do not follow the seed")
	}
	if reflect.DeepEqual(newMixPool(5, 1<<10).input(0, 0, 64), newMixPool(5, 1<<10).input(1, 0, 64)) {
		t.Error("two ranks share one allreduce input")
	}
	zipf := func(seed uint64) []int { return data.NewZipfSampler(seed, fleetZipfS, fleetScenes).Sequence(64) }
	if !reflect.DeepEqual(zipf(5), zipf(5)) || reflect.DeepEqual(zipf(5), zipf(6)) {
		t.Error("the Zipf stream does not follow the seed")
	}
	if trainConfig(5, 1).Data.Seed == trainConfig(6, 1).Data.Seed || trainConfig(5, 1).Seed == trainConfig(6, 1).Seed {
		t.Error("the training configuration does not follow the seed")
	}
}

// TestDocumentedConstants pins the numbers README.md documents: the mix's
// call counts, the open-loop rates and the request-count rates.
func TestDocumentedConstants(t *testing.T) {
	counts := map[string]int{}
	for _, e := range mixPlan {
		counts[e.Name] = e.Count
	}
	want := map[string]int{
		"ring_4KB": 8192, "ring_64KB": 2048, "ring_1MB": 32, "ring_8MB": 12, "ring_24MB": 4, "ring_48MB": 2,
		"fp16_1MB": 2, "fp16_8MB": 1, "topk_1MB": 1, "topk_8MB": 1, "nodeaware_1MB": 8, "nodeaware_8MB": 10,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("mix call counts %v, documented %v", counts, want)
	}
	if mixWorld != 4 || mixGPUsPerNode != 2 || mixTopKRatio != 32 || mixWarmup != 2 || mixPasses(16) != 10 {
		t.Errorf("mix world %d, gpus/node %d, top-k ratio %d, warm-up passes %d", mixWorld, mixGPUsPerNode, mixTopKRatio, mixWarmup)
	}
	if mixShareMin != 0.10 || mixShareMax != 0.25 {
		t.Errorf("asserted class share band %v-%v, documented 0.10-0.25", mixShareMin, mixShareMax)
	}
	if uniqueOpenRate != 16 || fleetOpenRate != 90 {
		t.Errorf("open-loop rates %d and %d req/s, documented 16 and 90", uniqueOpenRate, fleetOpenRate)
	}
	if uniqueRefRate*16 != 400 || fleetRefRate*16 != 2400 || fleetScenes != 64 || serveCacheMiB != 64 || rateSegments != 20 {
		t.Error("serving request counts, catalogue size, cache budget or rate segments moved from the documented values")
	}
	if trainRoundSteps(1) != 20 || trainRoundSteps(2) != 10 || trainWarmupRounds != [3]int{1: 2, 2: 1} || trainRounds(16, 1) != 12 || trainRounds(16, 2) != 8 || trainBatch != 4 || trainPatch != 24 || trainImages != 64 || trainHREdge != 96 {
		t.Error("training round shape moved from the documented values")
	}
	if setupReps != 3 || regressionBound != 0.10 || setupBound != 0.20 || memoryBound != 0.25 || serveCoverageFloor != 0.90 {
		t.Error("set-up repetitions, regression bound or coverage floor moved from the documented values")
	}
}

// TestSpanForestValidation: validate rejects the malformed forests the
// quick mode exists to catch.
func TestSpanForestValidation(t *testing.T) {
	good := newTracer()
	root := good.begin("op", 0, 7)
	good.end(good.begin("child", root, 7))
	good.end(root)
	if err := good.validate(); err != nil {
		t.Fatalf("well-formed forest rejected: %v", err)
	}
	if c := good.coverage("op"); c < 0 || c > 1 {
		t.Errorf("coverage %v outside [0,1]", c)
	}
	for name, build := range map[string]func(*tracer){
		"two roots": func(tr *tracer) { tr.end(tr.begin("a", 0, 1)); tr.end(tr.begin("b", 0, 1)) },
		"orphan":    func(tr *tracer) { tr.end(tr.begin("a", 0, 1)); tr.end(tr.begin("b", 99, 1)) },
		"cross-op":  func(tr *tracer) { r := tr.begin("a", 0, 1); tr.end(r); tr.end(tr.begin("b", r, 2)) },
		"rootless": func(tr *tracer) {
			r := tr.begin("a", 0, 1)
			tr.end(r)
			tr.end(tr.begin("b", r, 1))
			tr.spans[0].Parent = 2
		},
		"unclosed": func(tr *tracer) { tr.begin("a", 0, 1) },
	} {
		tr := newTracer()
		build(tr)
		if err := tr.validate(); err == nil {
			t.Errorf("%s: malformed forest accepted", name)
		}
	}
}
