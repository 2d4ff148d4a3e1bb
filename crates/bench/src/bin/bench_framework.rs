//! Micro-benchmarks of the URCL framework components: replay-buffer
//! operations, STMixup, the five augmentations, RMIR sampling, GWN
//! forward/backward and diffusion-support construction — the per-step
//! costs behind Fig. 7. Hand-rolled timing (best-of-repeats), no
//! external harness; writes `results/bench_framework.json`.
//!
//! With `--trace out.json` it instead measures the disabled-tracing
//! overhead on a 256³ matmul, runs a tiny fixed-seed continual pipeline
//! with tracing enabled, and writes the `urcl-trace-v1` document
//! (per-stage spans, per-period MAE/RMSE/MAPE, pool stats) to the given
//! path — the schema `scripts/ci.sh` and the golden-trace test validate.

use std::hint::black_box;
use std::time::Instant;
use urcl_bench::{run_deep_model, write_results, ExperimentContext, ModelKind};
use urcl_core::{
    rmir_sample, st_mixup, Augmentation, ForwardPlan, ReplayBuffer, TaskLossPlan, TrainerConfig,
};
use urcl_graph::{random_geometric, SensorNetwork, SupportSet};
use urcl_json::{ToJson, Value};
use urcl_models::{GraphWaveNet, GwnConfig};
use urcl_stdata::{stack_samples, Batch, DatasetConfig, Sample};
use urcl_tensor::{ParamStore, Rng};

const NODES: usize = 24;
const STEPS: usize = 12;
const CHANNELS: usize = 2;

fn make_net(rng: &mut Rng) -> SensorNetwork {
    random_geometric(NODES, 0.3, rng)
}

fn make_sample(rng: &mut Rng) -> Sample {
    Sample {
        x: rng.uniform_tensor(&[STEPS, NODES, CHANNELS], 0.0, 1.0),
        y: rng.uniform_tensor(&[1, NODES], 0.0, 1.0),
    }
}

fn make_batch(rng: &mut Rng, b: usize) -> Batch {
    let samples: Vec<Sample> = (0..b).map(|_| make_sample(rng)).collect();
    stack_samples(&samples)
}

fn make_model(rng: &mut Rng, net: &SensorNetwork) -> (GraphWaveNet, ParamStore) {
    let mut store = ParamStore::new();
    let cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
    let model = GraphWaveNet::new(&mut store, rng, net, cfg);
    (model, store)
}

struct Timed {
    name: String,
    micros: f64,
}

impl ToJson for Timed {
    fn to_json(&self) -> Value {
        Value::object()
            .with("name", self.name.as_str())
            .with("micros_per_iter", self.micros)
    }
}

/// Best-of-batches mean time per iteration, sampling for `min_seconds`.
fn bench(name: &str, min_seconds: f64, mut f: impl FnMut()) -> Timed {
    f(); // warm up
         // Size a batch so one batch takes roughly a millisecond.
    let probe = {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64().max(1e-7)
    };
    let iters_per_batch = ((1e-3 / probe) as usize).clamp(1, 10_000);
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    while total < min_seconds {
        let t0 = Instant::now();
        for _ in 0..iters_per_batch {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt / iters_per_batch as f64);
        total += dt;
    }
    let micros = best * 1e6;
    println!("{name:<28} {micros:>12.2} us/iter");
    Timed {
        name: name.to_string(),
        micros,
    }
}

/// Best of `reps` timed runs, in seconds (after one warm-up call).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// `--trace` mode: overhead probe + traced tiny pipeline + JSON export.
fn run_traced(path: &str, quick: bool) {
    // Disabled-tracing overhead on the 256³ matmul bench: every kernel
    // call in a traced build pays at most one span guard + one counter,
    // so this bounds the tax on real workloads. Budget: < 5%.
    urcl_trace::disable();
    let mut rng = Rng::seed_from_u64(17);
    let a = rng.uniform_tensor(&[256, 256], -1.0, 1.0);
    let b = rng.uniform_tensor(&[256, 256], -1.0, 1.0);
    let reps = if quick { 10 } else { 40 };
    let bare = best_secs(reps, || {
        black_box(a.matmul(&b));
    });
    let instrumented = best_secs(reps, || {
        let _sp = urcl_trace::span("overhead_probe");
        urcl_trace::counter_inc("overhead.iters");
        black_box(a.matmul(&b));
    });
    let ratio = instrumented / bare;
    println!(
        "disabled-tracing overhead (256^3 matmul): bare {:.3} ms, \
         instrumented {:.3} ms, ratio {ratio:.4} (budget 1.05)",
        bare * 1e3,
        instrumented * 1e3,
    );

    // Tiny fixed-seed continual run with tracing on.
    urcl_trace::reset();
    urcl_trace::enable();
    let ctx = ExperimentContext::new(DatasetConfig::metr_la().tiny());
    let cfg = TrainerConfig {
        epochs_base: 2,
        epochs_incremental: 1,
        window_stride: 8,
        ..TrainerConfig::default()
    };
    let report = run_deep_model(ModelKind::GraphWaveNet, &ctx, cfg, 7);
    urcl_trace::disable();

    let mut doc = urcl_trace::snapshot();
    doc.set(
        "overhead_probe",
        Value::object()
            .with("bare_micros", bare * 1e6)
            .with("instrumented_micros", instrumented * 1e6)
            .with("ratio", ratio),
    );
    doc.set("run", report.to_json());
    std::fs::write(path, doc.to_string_pretty()).expect("write trace file");
    println!(
        "[trace -> {path}]  incremental MAE {:.3}",
        report.incremental_mae()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        match args.get(i + 1) {
            Some(path) => run_traced(path, quick),
            None => {
                eprintln!("--trace requires an output path");
                std::process::exit(2);
            }
        }
        return;
    }
    let min_secs = if quick { 0.02 } else { 0.2 };
    let mut results: Vec<Timed> = Vec::new();

    println!("framework micro-benchmark ({min_secs}s sampling per case)");

    // Replay buffer: push and uniform sampling at the swept capacities.
    for &cap in &[64usize, 256, 1024] {
        let mut rng = Rng::seed_from_u64(1);
        let sample = make_sample(&mut rng);
        let mut buf = ReplayBuffer::new(cap);
        results.push(bench(&format!("buffer_push_cap{cap}"), min_secs, || {
            buf.push(black_box(sample.clone()))
        }));
        let mut rng = Rng::seed_from_u64(2);
        let mut buf = ReplayBuffer::new(cap);
        for _ in 0..cap {
            buf.push(make_sample(&mut rng));
        }
        results.push(bench(
            &format!("buffer_uniform8_cap{cap}"),
            min_secs,
            || {
                black_box(buf.sample_uniform(8, &mut rng));
            },
        ));
    }

    // STMixup on a batch of 8.
    {
        let mut rng = Rng::seed_from_u64(3);
        let cur = make_batch(&mut rng, 8);
        let rep = make_batch(&mut rng, 8);
        results.push(bench("st_mixup_b8", min_secs, || {
            black_box(st_mixup(&cur, &rep, 0.8, &mut rng));
        }));
    }

    // The five augmentations.
    {
        let mut rng = Rng::seed_from_u64(4);
        let net = make_net(&mut rng);
        let batch = make_batch(&mut rng, 8);
        let cases: [(&str, Augmentation); 5] = [
            ("aug_drop_nodes", Augmentation::DropNodes { ratio: 0.1 }),
            ("aug_drop_edges", Augmentation::DropEdges { ratio: 0.2 }),
            ("aug_subgraph", Augmentation::SubGraph { keep_ratio: 0.8 }),
            (
                "aug_add_edges",
                Augmentation::AddEdges {
                    ratio: 0.05,
                    min_hops: 3,
                },
            ),
            ("aug_time_shift", Augmentation::TimeShift),
        ];
        for (name, aug) in cases {
            results.push(bench(name, min_secs, || {
                black_box(aug.apply(&batch.x, &net, 2, &mut rng));
            }));
        }
    }

    // RMIR interference scoring: the default random pool of 48 and the
    // paper's full 256-sample buffer scan (Section IV-B1).
    {
        let mut rng = Rng::seed_from_u64(5);
        let net = make_net(&mut rng);
        let (model, store) = make_model(&mut rng, &net);
        let mut buffer = ReplayBuffer::new(256);
        for _ in 0..256 {
            buffer.push(make_sample(&mut rng));
        }
        let current = make_batch(&mut rng, 8);
        let mut virtual_store = None;
        let mut task = TaskLossPlan::default();
        let mut forward = ForwardPlan::default();
        for pool_len in [48usize, 256] {
            let pool: Vec<usize> = (0..pool_len).collect();
            results.push(bench(
                &format!("rmir_sample_pool{pool_len}_b8"),
                min_secs,
                || {
                    black_box(rmir_sample(
                        &buffer,
                        &pool,
                        &current,
                        &model,
                        &store,
                        3e-3,
                        24,
                        8,
                        &mut virtual_store,
                        &mut task,
                        &mut forward,
                    ));
                },
            ));
        }
    }

    // GraphWaveNet forward and forward+backward, as training and
    // evaluation run them: replays of the compiled forward and task-loss
    // plans (compiled by the warm-up call, outside the timed batches).
    {
        let mut rng = Rng::seed_from_u64(6);
        let net = make_net(&mut rng);
        let (model, store) = make_model(&mut rng, &net);
        let batch = make_batch(&mut rng, 8);
        let mut forward = ForwardPlan::default();
        results.push(bench("gwn_forward_b8", min_secs, || {
            let plan = forward.plan(&model, &store, &batch.x);
            black_box(plan.run_forward(&store, &[&batch.x]));
        }));
        let mut task = TaskLossPlan::default();
        results.push(bench("gwn_fwd_bwd_b8", min_secs, || {
            let plan = task.plan(&model, &store, &batch);
            black_box(plan.run_training(&store, &[&batch.x, &batch.y]));
        }));
    }

    // Diffusion-support construction vs K.
    {
        let mut rng = Rng::seed_from_u64(7);
        let net = make_net(&mut rng);
        for &k in &[1usize, 2, 3] {
            results.push(bench(&format!("diffusion_supports_k{k}"), min_secs, || {
                black_box(SupportSet::diffusion(&net, k));
            }));
        }
    }

    write_results("bench_framework", &results);
}
