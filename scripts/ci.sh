#!/usr/bin/env bash
# One-shot CI gate: release build, full test suite (every workspace
# crate: the root manifest's default-members), clippy over every target,
# the end-to-end benchmark's smoke test, then a traced framework run
# whose JSON output (and any other BENCH_*.json / results files present)
# is schema-validated through the in-tree parser.
#
# Usage: scripts/ci.sh [--full]
#   --full   also runs the #[ignore]-gated full-size integration tests
#            (slow in debug builds).
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
for arg in "$@"; do
  case "$arg" in
    --full) FULL=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== build (release) =="
cargo build --release --offline

echo "== tests =="
cargo test -q --offline

echo "== plan parity + buffer-lifetime suites (release) =="
# Architecture-churned graphs and window-form gated TCNs (one tap matrix
# read by two GEMMs) replayed through compiled plans, asserted bitwise
# against per-step re-recorded tapes; the lifetime suite re-runs them
# under pool NaN-poisoning —
# including the batch-polymorphic replay with a per-step rebound
# dynamic input — to surface any use-after-release or read-before-init
# in the plan's precomputed drop schedule.
cargo test -q --offline --release -p urcl-tensor \
  --test plan_parity --test plan_lifetimes

echo "== exhaustive activation accuracy sweep (release) =="
# Every one of the 2^32 inputs of the crate's tanh and sigmoid against an
# f64 reference (tanh within 1 ulp, sigmoid within 2), split over the
# host's threads; about two CPU-minutes.
timeout 600 cargo test -q --offline --release -p urcl-tensor --lib \
  activation::tests::exhaustive_sweep_within_ulp_bounds -- --ignored --exact

echo "== augmented-SSL record-vs-replay sweep (release) =="
# Draws, batch sizes and architectures churned through one compiled
# plan per architecture; loss and every parameter gradient asserted
# bitwise against a fresh recording + Tape::backward.
timeout 600 cargo test -q --offline --release --test plan_ssl_parity

echo "== rustdoc (warnings are errors) =="
# Catches broken intra-doc links and, via the per-crate
# #![warn(missing_docs)] attributes, any undocumented public item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== clippy (errors fail, warnings do not) =="
# Every target of every workspace crate, tests and bench bins included;
# deny-by-default lints (e.g. erasing_op) stop the gate.
cargo clippy --offline --workspace --all-targets

echo "== doc-tests (README + API examples) =="
cargo test -q --offline --doc --workspace

echo "== crash/resume fault injection (release) =="
# The kill/resume harness re-runs the tiny pipeline once per step
# boundary, so it runs in release; the timeout is a wall-clock budget
# guarding against a resume loop that stops making progress.
timeout 600 cargo test -q --offline --release --test crash_resume

echo "== serve stress: sharded multi-tenant runtime under load (release) =="
# Hundreds of concurrent clients across three tenants, hot-swap mid-burst,
# seeded drain interleavings and the router property sweep — debug builds
# make the forward passes dominate, so this stage runs in release with a
# wall-clock budget against scheduler-dependent hangs.
timeout 600 cargo test -q --offline --release -p urcl-serve \
  --test shard_stress --test swap_under_load \
  --test router_props --test drain_interleavings

echo "== serve network front-end + work stealing (release) =="
# http_wire binds a real listener on an ephemeral port and drives it
# over TCP: forecast parity, the typed 4xx/5xx mapping, slowloris/
# truncation/oversize edges, keep-alive pipelining, a killed client
# mid-response, and graceful drain under load inside a 10 s budget.
# steal pins bitwise parity and the strictly-fewer-sheds duel with
# cross-shard work stealing enabled.
timeout 600 cargo test -q --offline --release -p urcl-serve \
  --test http_wire --test steal

if [[ "$FULL" == 1 ]]; then
  echo "== full-size integration tests (ignored set) =="
  cargo test -q --offline --test end_to_end --test backbones -- --ignored
fi

echo "== end-to-end benchmark smoke test (release) =="
# Every perfbench workload at reduced size through the public APIs, with
# its output checks (finite losses, bitwise checkpoint reload, served
# forecasts) — the same binary BENCHMARK.json times.
timeout 900 cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== traced framework run =="
./target/release/bench_framework --quick --trace BENCH_trace.json

echo "== train-step throughput smoke (thread/plan determinism) =="
# Quick schedule: asserts bitwise-identical losses across all
# (threads, plan) cells, zero steady-state pool misses, the
# one-poly-plan-many-batch-sizes zero-recompile check and the host-aware
# thread-scaling gate.
./target/release/bench_train_step --quick

echo "== JSON round-trip + trace schema validation =="
files=(BENCH_trace.json)
for f in BENCH_*.json results/*.json; do
  [[ -e "$f" && "$f" != BENCH_trace.json ]] && files+=("$f")
done
./target/release/validate_json "${files[@]}"

echo "CI OK"
