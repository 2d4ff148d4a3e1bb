//! A deployment-shaped walkthrough: the high-level [`UrclPipeline`] API
//! plus JSON checkpointing.
//!
//! ```bash
//! cargo run --release --example streaming_deployment
//! ```
//!
//! Simulates a production loop: periods of sensor data arrive one at a
//! time; after each, the pipeline trains continually (replay + RMIR +
//! STMixup + STSimSiam under the hood), produces a live forecast, and
//! checkpoints its *full* state — weights, Adam moments, replay buffer,
//! RNG, normalizer — through the crash-safe `CheckpointDir` rotation. A
//! second pipeline instance then resumes from disk and must forecast
//! identically.

use urcl::core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl::stdata::{DatasetConfig, SyntheticDataset};

fn main() {
    // The stream source (stand-in for a live sensor feed).
    let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
    let split = ds.continual_split(3);

    // The forecaster.
    let trainer_cfg = TrainerConfig {
        epochs_base: 3,
        epochs_incremental: 2,
        window_stride: 4,
        ..TrainerConfig::default()
    };
    let mut pipeline = UrclPipeline::new(ds.network.clone(), ds.config.clone(), trainer_cfg, 7);

    // Atomic latest/previous rotation: a crash mid-save never loses the
    // last good checkpoint.
    let ckpt_dir = std::env::temp_dir().join("urcl-deployment-ckpts");
    let slots = CheckpointDir::new(&ckpt_dir).expect("checkpoint dir");
    println!(
        "{:<8} {:>8} {:>8}   live forecast (first 4 sensors, mph)",
        "period", "MAE", "RMSE"
    );

    for period in split.all_periods() {
        // 1. A new period of raw data has accumulated: learn it.
        let report = pipeline.observe_period(period.series.clone());

        // 2. Forecast the next step from the freshest window.
        let m = ds.config.input_steps;
        let t = period.series.shape()[0];
        let window = period.series.narrow(0, t - m, m);
        let pred = pipeline.forecast(&window);
        let preview: Vec<String> = pred.data()[..4.min(pred.len())]
            .iter()
            .map(|v| format!("{v:5.1}"))
            .collect();
        println!(
            "{:<8} {:>8.2} {:>8.2}   [{}]",
            report.name,
            report.mae,
            report.rmse,
            preview.join(", ")
        );

        // 3. Checkpoint the full pipeline state after every period.
        pipeline
            .save_checkpoint(&slots, &format!("after {}", report.name))
            .expect("checkpoint write");
    }

    // Disaster recovery: a fresh process (note the different seed — its
    // own initial state is irrelevant) resumes from disk and produces
    // bit-identical forecasts. Had the crash happened mid-save, `load()`
    // would fall back to the `previous` checkpoint automatically.
    let trainer_cfg = TrainerConfig::default();
    let mut restored = UrclPipeline::new(ds.network.clone(), ds.config.clone(), trainer_cfg, 999);
    restored
        .resume_from(slots.load().expect("checkpoint read"))
        .expect("checkpoint matches the model");

    let m = ds.config.input_steps;
    let last = split.all_periods().last().unwrap().series.clone();
    let t = last.shape()[0];
    let window = last.narrow(0, t - m, m);
    let a = pipeline.forecast(&window);
    let b = restored.forecast(&window);
    assert_eq!(a, b, "restored pipeline must forecast identically");
    println!("\ncheckpoint restored; forecasts identical ✓");
    std::fs::remove_dir_all(&ckpt_dir).ok();
}
