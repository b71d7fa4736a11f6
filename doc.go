// Package repro reproduces "Scaling Single-Image Super-Resolution
// Training on Modern HPC Clusters: Early Experiences" (Anthony, Xu,
// Subramoni, Panda — IPDPS-W 2021) as a self-contained Go system.
//
// The paper distributes EDSR training with Horovod on the Lassen
// supercomputer and shows that restoring CUDA IPC (via an
// MV2_VISIBLE_DEVICES split-visibility scheme) plus the InfiniBand
// registration cache cuts total allreduce time 45.4% and lifts 512-GPU
// scaling efficiency by 15.6 points (a 1.26x speedup). This repository
// rebuilds the entire stack from scratch and regenerates every figure
// and table of the paper's evaluation:
//
//   - a real CPU deep-learning framework (internal/tensor, internal/nn,
//     internal/models) that trains actual EDSR/SRCNN/FSRCNN/SRResNet
//     networks on a synthetic DIV2K-like dataset;
//   - an in-process MPI with ring/recursive-doubling/hierarchical
//     collectives (internal/mpi) and a Horovod engine with tensor fusion
//     and gradient negotiation (internal/horovod) for real data-parallel
//     training;
//   - a deterministic discrete-event model of Lassen — NVLink, InfiniBand,
//     CUDA-IPC visibility rules, registration cache — for the 512-GPU
//     scaling study (internal/simnet, internal/cluster,
//     internal/collective, internal/scaling, internal/perfmodel);
//   - one span model (internal/trace) recorded by both paths, whose
//     hvprof report is the paper's communication profile, and the
//     experiment harness (internal/experiments) that prints every figure
//     with the paper's values alongside.
//
// Entry points: the executables under cmd/, the runnable examples under
// examples/, and the per-figure benchmarks in bench_test.go. See README.md
// for a tour, DESIGN.md for the substitution map, and EXPERIMENTS.md for
// measured-vs-paper results.
package repro
