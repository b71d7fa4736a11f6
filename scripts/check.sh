#!/bin/sh
# check.sh — repository health gates.
#
# Tier 1 (must stay green): build + full test suite.
# Tier 2 (hygiene): vet, formatting, the race detector over the
# batch-parallel kernel paths, the overlapped communication path, and the
# serving batcher, the compiled-inference gates (bit-exactness, PSNR
# admission, zero-alloc forward, quantization fuzz), the zero-allocation
# steady-state gates, the gradient-compression gates (fp16/top-k codecs,
# convergence envelopes, wire accounting), fuzz smokes for the untrusted
# decode paths, and bench smoke runs.
set -e

cd "$(dirname "$0")/.."

echo "== tier 1: build + tests"
go build ./...
go test ./...

echo "== tier 2: vet"
go vet ./...

echo "== tier 2: gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== tier 2: race detector (parallel conv + GEMM)"
go test -race ./internal/nn/ ./internal/tensor/

echo "== tier 2: race detector (overlapped backward/comm + collectives)"
go test -race ./internal/mpi/ ./internal/horovod/

echo "== tier 2: tracing gate (concurrent span recording under race, 0 allocs with recorder enabled)"
go test -race -run 'Concurrent|Gather|ProfilerTracerAgree' ./internal/trace/
go test -run 'NoAllocs' -v ./internal/trace/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'

echo "== tier 2: fault tolerance (injection, crash-safe checkpoints, elastic restart) under race"
go test -race ./internal/trainer/

echo "== tier 2: fuzz smoke (tensor deserialization)"
go test -run '^$' -fuzz 'FuzzUnmarshalBinary' -fuzztime 5s ./internal/tensor/

echo "== tier 2: fuzz smoke (untrusted PNG decode)"
go test -run '^$' -fuzz 'FuzzDecodePNG' -fuzztime 5s ./internal/imageio/

echo "== tier 2: serving gate (builds, batcher under race, tiling equivalence, e2e golden)"
go build -o /tmp/check-bin/ ./cmd/sr-serve ./cmd/bench-serve
rm -rf /tmp/check-bin
go test -race ./internal/serve/ ./internal/imageio/

echo "== tier 2: zero-allocation steady-state gates"
go test -run 'ZeroAlloc|NoAllocs' -v ./internal/mpi/ ./internal/nn/ ./internal/tensor/ ./internal/trace/ ./internal/serve/ ./internal/collective/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'

echo "== tier 2: compression gate (fp16/top-k/hierarchical allreduce + convergence envelopes + engine error path under race)"
go test -race -run 'Compress|FP16|TopK|Hier|Convergence|AllreduceFn|Half' \
    ./internal/mpi/ ./internal/collective/ ./internal/horovod/ ./internal/tensor/

echo "== tier 2: fuzz smoke (top-k sparse payload codec)"
go test -run '^$' -fuzz 'FuzzTopKEncodeDecode' -fuzztime 5s ./internal/collective/

echo "== tier 2: bench-comm smoke (incl. compression sweep wire accounting)"
go run ./cmd/bench-comm -quick -steps 2 -o /tmp/BENCH_comm_smoke.json
grep -q '"compression"' /tmp/BENCH_comm_smoke.json
grep -q '"wire_vs_exact"' /tmp/BENCH_comm_smoke.json
rm -f /tmp/BENCH_comm_smoke.json

echo "== tier 2: inference compile gate (compiled forward under race, bit-exactness, PSNR gate)"
go test -race -run 'Fused|Compiled|Gate' ./internal/nn/ ./internal/models/ ./internal/serve/

echo "== tier 2: inference compile gate (zero-alloc compiled forward)"
go test -run 'TestFusedConv2dZeroAlloc|TestCompiledEDSRZeroAlloc' -v ./internal/nn/ ./internal/models/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'

echo "== tier 2: fuzz smoke (activation quantization round-trip)"
go test -run '^$' -fuzz 'FuzzQuantizeU7RoundTrip' -fuzztime 5s ./internal/tensor/

echo "== tier 2: result-cache gate (LRU/singleflight under race, hit/miss/evict/drain hammers, byte-identity)"
go test -race ./internal/serve/cache/
go test -race -run 'Cache' ./internal/serve/

echo "== tier 2: result-cache gate (zero-alloc hit-path lookup)"
go test -run 'NoAllocs' -v ./internal/serve/cache/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'

echo "== tier 2: fuzz smoke (content-hash key derivation)"
go test -run '^$' -fuzz 'FuzzKeyDerivation' -fuzztime 5s ./internal/serve/cache/

echo "== tier 2: bench-serve smoke (all serving variants + Zipf cache sweep)"
go run ./cmd/bench-serve -quick -seed 9 -variants float32,fused,int8 -o /tmp/BENCH_serve_smoke.json
rm -f /tmp/BENCH_serve_smoke.json

echo "== tier 2: fleet router gate (pool/placement/hedge units + zero-loss rolling-restart e2e under race)"
go build -o /tmp/check-bin/ ./cmd/sr-router ./cmd/bench-router
rm -rf /tmp/check-bin
go test -race ./internal/router/

echo "== tier 2: bench-router smoke (multi-process replicas: rolling restart, kill, hedged straggler, shed)"
go run ./cmd/bench-router -quick -o /tmp/BENCH_router_smoke.json
grep -q '"name": "rolling-restart"' /tmp/BENCH_router_smoke.json
if grep -E '"failed": [1-9]' /tmp/BENCH_router_smoke.json; then
    echo "bench-router smoke leaked failed requests" >&2
    exit 1
fi

echo "== tier 2: request-tracing gate (traceparent round-trip, tail sampler, router->replica tree join under race)"
go test -race ./internal/trace/request/
go test -race -run 'TestTracePropagationE2E' ./internal/router/
go test -race -run 'Trace|Metrics' ./internal/serve/

echo "== tier 2: request-tracing gate (zero-alloc sampled-out fast path)"
go test -run 'TestSampledOutFastPathNoAllocs' -v ./internal/trace/request/ | grep -E '^(--- (PASS|FAIL)|ok|FAIL)'

echo "== tier 2: request-tracing gate (bench-router attribution covers >=95% of wall time, replayed attempt joined)"
if ! grep -q '"attr_coverage_min"' /tmp/BENCH_router_smoke.json; then
    echo "bench-router smoke retained no attribution data" >&2
    exit 1
fi
grep -q '"replay_trace_id"' /tmp/BENCH_router_smoke.json
rm -f /tmp/BENCH_router_smoke.json

echo "all checks passed"
