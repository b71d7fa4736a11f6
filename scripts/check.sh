#!/bin/sh
# check.sh — repository health gates, all package-wide.
#
# Tier 1 (must stay green): build + full test suite, at one, two and
# four scheduler threads (tests that hold at one core count only are
# defects).
# Tier 2 (hygiene): vet, formatting, the whole suite under the race
# detector, a fuzz smoke for every decoder of untrusted or on-wire
# bytes, and the benchmark's validate-only mode (metric tables against
# BENCHMARK.json, span forests, ledger coverage, every output check).
#
# Correctness lives in `go test`, measurement in `bash bench/run.sh`;
# nothing here selects tests by name, so a renamed test cannot drop out.
set -e

cd "$(dirname "$0")/.."

echo "== tier 1: build"
go build ./...
# -count=1: the test cache does not key on GOMAXPROCS.
for procs in 1 2 4; do
    echo "== tier 1: tests at GOMAXPROCS=$procs"
    GOMAXPROCS=$procs go test -count=1 ./...
done

echo "== tier 2: vet"
go vet ./...

echo "== tier 2: gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== tier 2: race detector"
go test -race ./...

fuzz() {
    echo "== tier 2: fuzz smoke ($1)"
    go test -run '^$' -fuzz "$1" -fuzztime 5s "$2"
}
fuzz FuzzUnmarshalBinary ./internal/tensor/
fuzz FuzzDecodePNG ./internal/imageio/
fuzz FuzzTopKEncodeDecode ./internal/collective/
fuzz FuzzQuantizeU7RoundTrip ./internal/tensor/
fuzz FuzzKeyDerivation ./internal/serve/cache/
fuzz FuzzParseTraceparent ./internal/trace/request/

echo "== tier 2: benchmark validate-only"
go run ./bench -quick

echo "all checks passed"
