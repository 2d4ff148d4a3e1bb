//! Checkpoint I/O micro-benchmark: times full-pipeline (v2) and
//! params-only saves/loads through the atomic [`CheckpointDir`] rotation
//! and records document sizes. Prints a table and writes
//! `BENCH_checkpoint.json` at the workspace root.
//!
//! The measured state is real, not synthetic: a tiny URCL pipeline trains
//! on one streaming period first, so the checkpoint carries trained
//! parameters, Adam moments, a populated replay buffer and RMIR/cursor
//! state — the payload a crash-recovery deployment actually writes.
//!
//! Usage: `bench_checkpoint [--quick]`

use std::time::Instant;
use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_json::Value;
use urcl_stdata::{DatasetConfig, SyntheticDataset};

/// Best and mean wall time over `reps` calls of `f`.
fn time_stats(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    f(); // warm up (page cache, allocator)
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
    }
    (best, total / reps as f64)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 5 } else { 30 };

    // Train one period so the checkpoint holds realistic state.
    let mut cfg = DatasetConfig::metr_la().tiny();
    cfg.num_days = 2;
    let ds = SyntheticDataset::generate(cfg);
    let trainer_cfg = TrainerConfig {
        epochs_base: 1,
        epochs_incremental: 1,
        window_stride: 8,
        ..TrainerConfig::default()
    };
    let mut pipe = UrclPipeline::new(ds.network.clone(), ds.config.clone(), trainer_cfg, 7);
    let split = ds.continual_split(1);
    pipe.observe_period(split.base.series.clone());

    let dir_path = std::env::temp_dir().join(format!("urcl-bench-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir_path).ok();
    let dir = CheckpointDir::new(&dir_path).expect("checkpoint dir");

    let mut cases = Vec::new();
    let mut report = |name: &str,
                      bytes: u64,
                      (save_best, save_mean): (f64, f64),
                      (load_best, load_mean): (f64, f64)| {
        println!(
            "{name:<18} {:>9} bytes  save best {:>8.3} ms (mean {:>8.3})  load best {:>8.3} ms (mean {:>8.3})",
            bytes,
            save_best * 1e3,
            save_mean * 1e3,
            load_best * 1e3,
            load_mean * 1e3
        );
        cases.push(
            Value::object()
                .with("name", name)
                .with("bytes", bytes)
                .with("save_best_ms", save_best * 1e3)
                .with("save_mean_ms", save_mean * 1e3)
                .with("load_best_ms", load_best * 1e3)
                .with("load_mean_ms", load_mean * 1e3),
        );
    };

    // Full-pipeline (v2) checkpoint through the atomic rotation.
    let bytes = pipe.save_checkpoint(&dir, "bench full").expect("save");
    let save = time_stats(reps, || {
        pipe.save_checkpoint(&dir, "bench full").expect("save");
    });
    let load = time_stats(reps, || {
        let ckpt = dir.load().expect("load");
        assert!(ckpt.pipeline.is_some());
    });
    report("full_pipeline_v2", bytes, save, load);

    // Params-only checkpoint (the v1-equivalent payload).
    let bytes = dir
        .save("bench params-only", pipe.store(), None)
        .expect("save");
    let save = time_stats(reps, || {
        dir.save("bench params-only", pipe.store(), None)
            .expect("save");
    });
    let load = time_stats(reps, || {
        let ckpt = dir.load().expect("load");
        assert!(ckpt.pipeline.is_none());
    });
    report("params_only", bytes, save, load);

    std::fs::remove_dir_all(&dir_path).ok();

    let doc = Value::object()
        .with("schema", "urcl-bench-checkpoint-v1")
        .with("quick", quick)
        .with("reps", reps)
        .with("num_params", pipe.store().len())
        .with("num_scalars", pipe.store().num_scalars())
        .with("cases", Value::Array(cases));
    let out = "BENCH_checkpoint.json";
    std::fs::write(out, doc.to_string_pretty()).expect("write report");
    println!("wrote {out}");
}
