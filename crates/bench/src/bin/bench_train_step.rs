//! End-to-end training-step throughput on the tiny GraphWaveNet pipeline:
//! forward, backward, gradient accumulation and an Adam update per step,
//! each step one replay of a compiled batch-polymorphic `ExecPlan` — the
//! path every training step runs — at {1, 4} threads in one process.
//! Prints a table and writes `BENCH_train_step.json` at the workspace
//! root.
//!
//! Every cell rebuilds the model from the same seed and consumes the same
//! fixed batch sequence, so the final losses must be bitwise identical
//! across thread counts — the bench asserts this, making it a cheap
//! determinism canary on top of `pool_determinism.rs`. It also reports
//! each cell's steady-state pool miss count (asserted zero — every
//! buffer shape the step needs is cached during warmup). A
//! `poly_batch_check` cycles batch sizes through one plan asserting zero
//! recompiles and each size's loss bitwise equal to a fresh recording.
//! The artifact carries the `urcl-bench-train-v8` schema, re-gated
//! offline by `validate_json`.
//!
//! Thread-scaling acceptance is host-aware: on a host with ≥ 4 physical
//! cores the 4-thread cell must beat the 1-thread cell by ≥ 1.3×; on a
//! smaller host real speedup is physically impossible, so the bench
//! instead asserts the 4-thread cell does not fall off a cliff (≥ 0.85×
//! of 1-thread; the dispatch-overhead cliff this guards against was ~2×,
//! and sub-10ms steps leave a few percent of scheduler noise even
//! best-of-rounds).
//!
//! Flags: `--quick` shrinks the schedule for CI smoke runs.

use std::time::Instant;
use urcl_graph::random_geometric;
use urcl_json::Value;
use urcl_models::{Backbone, GraphWaveNet, GwnConfig};
use urcl_stdata::{stack_samples, Batch, Sample};
use urcl_tensor::autodiff::{Session, Tape};
use urcl_tensor::{
    buffer_pool_stats, op_profile, plan_stats, reset_buffer_pool_stats, reset_op_profile,
    set_threads, Adam, ExecPlan, ParamStore, Recording, Rng,
};

const NODES: usize = 24;
const STEPS: usize = 12;
const CHANNELS: usize = 2;
const BATCH: usize = 8;

fn make_batch_of(rng: &mut Rng, b: usize) -> Batch {
    let samples: Vec<Sample> = (0..b)
        .map(|_| Sample {
            x: rng.uniform_tensor(&[STEPS, NODES, CHANNELS], 0.0, 1.0),
            y: rng.uniform_tensor(&[1, NODES], 0.0, 1.0),
        })
        .collect();
    stack_samples(&samples)
}

fn make_batch(rng: &mut Rng) -> Batch {
    make_batch_of(rng, BATCH)
}

/// Compiles the model's training step into a reusable batch-polymorphic
/// plan (see [`ExecPlan::compile_poly`]). Parameter values are read from
/// the store at replay time, so compiling before training is fine.
fn compile_plan(model: &GraphWaveNet, store: &ParamStore, batch: &Batch) -> ExecPlan {
    ExecPlan::compile_poly(batch.x.shape()[0], |b| {
        Recording::training(store, |sess| {
            let xv = sess.input(batch.x.at_batch(b));
            let yv = sess.input(batch.y.at_batch(b));
            let loss = model.forward(sess, xv).sub(yv).abs().mean_all();
            (vec![xv, yv], loss)
        })
    })
}

/// One full optimisation step replaying the compiled plan; returns the
/// scalar loss.
fn train_step(plan: &ExecPlan, store: &mut ParamStore, opt: &mut Adam, batch: &Batch) -> f32 {
    store.zero_grads();
    let (loss, grads) = plan.run_training(store, &[&batch.x, &batch.y]);
    store.accumulate_grads(plan.bindings(), &grads);
    opt.step(store);
    loss.item()
}

struct Cell {
    threads: usize,
    steps_per_sec: f64,
    final_loss: f32,
    pool_misses: u64,
}

/// Runs one thread-count cell: fresh model from a fixed seed, `warmup`
/// untimed steps, then `timed` measured steps over a replayed batch
/// schedule identical across cells.
fn run_cell(threads: usize, warmup: usize, timed: usize) -> Cell {
    set_threads(threads);

    let mut rng = Rng::seed_from_u64(23);
    let net = random_geometric(NODES, 0.3, &mut rng);
    let mut store = ParamStore::new();
    let cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
    let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
    let mut opt = Adam::new(1e-3);
    let batches: Vec<Batch> = (0..4).map(|_| make_batch(&mut rng)).collect();
    let plan = compile_plan(&model, &store, &batches[0]);

    let mut final_loss = 0.0f32;
    for i in 0..warmup {
        final_loss = train_step(&plan, &mut store, &mut opt, &batches[i % batches.len()]);
    }
    reset_buffer_pool_stats();
    reset_op_profile();
    // Best-of-rounds: the full schedule always runs (so the determinism
    // check below sees the same step count per cell), but the throughput
    // estimate takes the fastest round to suppress scheduler noise.
    let rounds = 4;
    let mut best_secs = f64::INFINITY;
    for round in 0..rounds {
        let t0 = Instant::now();
        for i in 0..timed {
            final_loss = train_step(
                &plan,
                &mut store,
                &mut opt,
                &batches[(warmup + round * timed + i) % batches.len()],
            );
        }
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
    }
    let secs = best_secs;
    if urcl_tensor::opprof::op_profile_enabled() {
        let steps = (rounds * timed) as u64;
        let mut rows = op_profile();
        rows.sort_by_key(|r| std::cmp::Reverse(r.fwd_nanos + r.bwd_nanos));
        println!("  per-op profile ({threads} threads), us/step:");
        println!(
            "    {:<12} {:>7} {:>9} {:>7} {:>9}",
            "op", "fwd", "fwd us", "bwd", "bwd us"
        );
        for r in rows.iter().filter(|r| r.fwd_calls + r.bwd_calls > 0) {
            println!(
                "    {:<12} {:>7} {:>9.1} {:>7} {:>9.1}",
                r.name,
                r.fwd_calls / steps,
                r.fwd_nanos as f64 / steps as f64 / 1e3,
                r.bwd_calls / steps,
                r.bwd_nanos as f64 / steps as f64 / 1e3,
            );
        }
    }
    let stats = buffer_pool_stats();
    let pool_misses = stats.misses;

    let steps_per_sec = timed as f64 / secs;
    println!(
        "{threads} threads  {steps_per_sec:>7.2} steps/s  ({:>7.2} ms/step)  \
         pool: {} misses, {} hits/step, {:.1} MB recycled/step",
        1e3 * secs / timed as f64,
        pool_misses,
        stats.hits / (rounds * timed) as u64,
        stats.bytes_recycled as f64 / (rounds * timed) as f64 / 1e6,
    );
    Cell {
        threads,
        steps_per_sec,
        final_loss,
        pool_misses,
    }
}

/// Cycles batch sizes through ONE batch-polymorphic plan: the compile
/// count must stay flat (no per-shape recompiles) and every size must
/// reproduce a fresh recording's loss bitwise. Returns the number of
/// sizes exercised, recorded in the JSON artifact.
fn poly_batch_check() -> u64 {
    set_threads(1);
    let mut rng = Rng::seed_from_u64(23);
    let net = random_geometric(NODES, 0.3, &mut rng);
    let mut store = ParamStore::new();
    let cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
    let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
    let seed_batch = make_batch(&mut rng);
    let plan = compile_plan(&model, &store, &seed_batch);
    let compiles_before = plan_stats().compiles;
    let sizes = [BATCH, 5, 3, 1, 6, BATCH];
    for &b in &sizes {
        let batch = make_batch_of(&mut rng, b);
        assert!(
            plan.accepts(&[&batch.x, &batch.y]),
            "poly plan rejected batch size {b}"
        );
        store.zero_grads();
        let (loss, _) = plan.run_training(&store, &[&batch.x, &batch.y]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let x = sess.input(batch.x.clone());
        let y = sess.input(batch.y.clone());
        let l = model.forward(&mut sess, x).sub(y).abs().mean_all();
        assert_eq!(
            loss.item().to_bits(),
            tape.value(l).item().to_bits(),
            "poly replay diverged from a fresh recording at batch {b}"
        );
    }
    let extra = plan_stats().compiles - compiles_before;
    assert_eq!(extra, 0, "batch cycling triggered {extra} recompiles");
    sizes.len() as u64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, timed) = if quick { (2, 4) } else { (3, 16) };

    println!("train-step throughput (tiny GraphWaveNet, batch {BATCH}, {timed} timed steps)");
    println!(
        "host: {} hardware threads, detected ISA {:?}",
        urcl_tensor::host_parallelism(),
        urcl_tensor::detected_isa(),
    );
    let prev_threads = set_threads(1);
    let cells = [run_cell(1, warmup, timed), run_cell(4, warmup, timed)];
    let poly_sizes_checked = poly_batch_check();
    set_threads(prev_threads);

    // Both cells ran the same seeded schedule: numerics must agree — this
    // pins the thread count bitwise through a full train step, not just
    // per-kernel.
    let [one, four] = &cells;
    assert_eq!(
        four.final_loss.to_bits(),
        one.final_loss.to_bits(),
        "4-thread cell diverged from the 1-thread loss"
    );
    // After warmup the pool has cached every buffer shape the step needs,
    // so the timed rounds must run allocation-free.
    for c in &cells {
        assert_eq!(
            c.pool_misses, 0,
            "steady-state pool miss at {} threads",
            c.threads
        );
    }

    println!("poly batch check: one plan served {poly_sizes_checked} batch sizes, zero recompiles");
    // Thread-scaling gate, host-aware (see module docs): the 4-thread
    // curve must rise on real multi-core hardware and must at least stay
    // flat (no dispatch-overhead cliff) when the host cannot provide
    // parallelism.
    let host = urcl_tensor::host_parallelism();
    let thread_scaling = four.steps_per_sec / one.steps_per_sec;
    if host >= 4 {
        println!("thread scaling (4t/1t): {thread_scaling:.2}x (required: 1.3x)");
        assert!(
            thread_scaling >= 1.3,
            "4-thread cell must beat 1-thread by >= 1.3x on a {host}-core host, \
             got {thread_scaling:.2}x"
        );
    } else {
        println!(
            "thread scaling (4t/1t): {thread_scaling:.2}x \
             (host has {host} core(s); required: >= 0.85x, no cliff)"
        );
        assert!(
            thread_scaling >= 0.85,
            "4-thread cell fell off a cliff on a {host}-core host: {thread_scaling:.2}x"
        );
    }

    let doc = Value::object()
        .with("schema", "urcl-bench-train-v8")
        .with("benchmark", "train_step")
        .with("model", "graph_wavenet_small")
        .with("batch", BATCH)
        .with("timed_steps", timed)
        .with("host_threads", host)
        .with("simd_isa", urcl_tensor::detected_isa().code() as f64)
        .with(
            "acceptance",
            Value::object()
                .with("metric", "steps/sec, 4-thread over 1-thread cell")
                // The asserts above already aborted the run if any of
                // these failed; recorded so validate_json can re-gate the
                // artifact offline.
                .with("bitwise_identical_cells", true)
                .with("poly_batch_sizes_checked", poly_sizes_checked as f64)
                .with("poly_recompiles", 0.0)
                .with("thread_scaling_4t_over_1t", thread_scaling)
                .with(
                    "thread_scaling_required",
                    if host >= 4 { 1.3 } else { 0.85 },
                ),
        )
        .with(
            "cells",
            Value::Array(
                cells
                    .iter()
                    .map(|c| {
                        Value::object()
                            .with("threads", c.threads)
                            .with("steps_per_sec", c.steps_per_sec)
                            .with("ms_per_step", 1e3 / c.steps_per_sec)
                            .with("steady_state_pool_misses", c.pool_misses as f64)
                    })
                    .collect(),
            ),
        );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_train_step.json");
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_train_step.json");
    println!("[results -> {}]", path.display());
}
