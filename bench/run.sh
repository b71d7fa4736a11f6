#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh -workload train_dist ...
# Everything a build or a run leaves behind stays under bench/out in the
# checkout (the Go build cache included, in a dot-directory the go tool
# does not walk), so a run writes nowhere else.
set -euo pipefail
export GOCACHE="$PWD/bench/out/.go-cache"
go build -o bench/out/bench ./bench
# The measured process gets one CPU, the first this shell may use. On the
# reference box a lone running thread always runs at one speed, while two
# running at once get between one and two CPUs from the host, in phases of
# minutes (NOISE.md): on two CPUs the same code read 59-84 images/s by the
# hour, on one 60-62. The Go runtime sees one CPU and sizes itself to it
# (GOMAXPROCS, kernel workers and the benchmark's clients all read 1); the
# benchmark sets none of them.
cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')
exec taskset -c "$cpu" bench/out/bench "$@"
