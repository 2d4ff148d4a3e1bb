#!/usr/bin/env bash
# Builds the release workspace and runs the tensor-ops micro-benchmark:
# the seed naive matmul against the tiled GEMM (the kernel every matmul
# and temporal convolution runs). The binary itself sweeps 1 and 4
# threads in one process (so determinism across thread counts is
# asserted on identical inputs) and writes BENCH_tensor_ops.json —
# GFLOP/s and speedup fields per matmul case — at the repository root.
# Pass --quick for a fast smoke run.
#
# Before that it runs bench_framework twice: untraced, it times the
# framework components (replay buffer, STMixup, augmentations, RMIR
# sampling at pools of 48 and 256, GWN forward/backward, supports) and
# writes results/bench_framework.json; with --trace it runs a traced tiny
# pipeline (per-stage spans, per-period errors, disabled-tracing overhead
# probe) and writes BENCH_trace.json. Then bench_checkpoint, which times
# full-pipeline (v2) and params-only checkpoint saves/loads through the
# atomic latest/previous rotation and writes BENCH_checkpoint.json
# (latency + document size); bench_serve, which closed-loop sweeps the
# sharded multi-tenant serving runtime across (threads, shards, tenants,
# max_batch, cache) cells — thousands of client threads at the top end —
# and writes BENCH_serve.json (schema urcl-bench-serve-v3: aggregate
# req/s plus per-tenant p50/p95/p99, shed and cache counters); and
# bench_train_step, which measures end-to-end training-step throughput
# over {1,4} threads x {recorded tape, compiled plan} and writes
# BENCH_train_step.json. validate_json checks every file written.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline -p urcl-bench
./target/release/bench_framework "$@"
./target/release/bench_framework "$@" --trace BENCH_trace.json
./target/release/bench_checkpoint "$@"
./target/release/bench_serve "$@"
./target/release/bench_train_step "$@"
./target/release/validate_json results/bench_framework.json BENCH_trace.json \
  BENCH_checkpoint.json BENCH_serve.json BENCH_train_step.json
exec ./target/release/bench_tensor_ops "$@"
