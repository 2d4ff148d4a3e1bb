//! Thread-count determinism: the continual pipeline must produce
//! bitwise-identical losses and final parameters whether the tensor pool
//! runs on one worker or four (`URCL_THREADS=1` vs `URCL_THREADS=4`).
//!
//! The parallel runtime partitions work into fixed chunks and each output
//! element is written by exactly one worker, so results may not depend on
//! the thread count. This is the in-process equivalent of re-running the
//! binary under different `URCL_THREADS` settings; it lives in its own
//! integration binary because [`urcl::tensor::set_threads`] mutates
//! process-global state.

use urcl::core::{ContinualTrainer, StSimSiam, TrainerConfig};
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{set_threads, ParamStore, Rng};

/// Runs a tiny fixed-seed continual pipeline and returns the per-period
/// loss curves plus every final parameter value.
fn run_pipeline() -> (Vec<Vec<f32>>, Vec<(String, Vec<f32>)>) {
    let mut cfg = DatasetConfig::metr_la().tiny();
    cfg.num_days = 3;
    let dataset = SyntheticDataset::generate(cfg);
    let normalizer = dataset.fit_normalizer();
    let raw = dataset.continual_split(2);
    let split = ContinualSplit {
        base: raw.base.normalized(&normalizer),
        incremental: raw
            .incremental
            .iter()
            .map(|p| p.normalized(&normalizer))
            .collect(),
    };
    let scale = normalizer.scale(dataset.config.target_channel);

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(21);
    let mut gcfg = GwnConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    gcfg.layers = 2;
    let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, gcfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);

    let tcfg = TrainerConfig {
        epochs_base: 1,
        epochs_incremental: 1,
        window_stride: 16,
        ..TrainerConfig::default()
    };
    let mut trainer = ContinualTrainer::new(tcfg);
    let report = trainer.run(
        &model,
        Some(&simsiam),
        &mut store,
        &dataset.network,
        &split,
        &dataset.config,
        scale,
    );

    let losses = report.sets.iter().map(|s| s.loss_curve.clone()).collect();
    let params = store
        .ids()
        .map(|id| (store.name(id).to_string(), store.value(id).data().to_vec()))
        .collect();
    (losses, params)
}

#[test]
fn single_and_multi_threaded_runs_match_bitwise() {
    let prev = set_threads(1);
    let (losses_1, params_1) = run_pipeline();
    set_threads(4);
    let (losses_4, params_4) = run_pipeline();
    set_threads(prev);

    assert_eq!(
        losses_1, losses_4,
        "loss curves differ between 1 and 4 threads"
    );
    assert_eq!(params_1.len(), params_4.len());
    for ((name_1, vals_1), (name_4, vals_4)) in params_1.iter().zip(&params_4) {
        assert_eq!(name_1, name_4);
        // Bitwise comparison: f32 equality is exact here by design.
        assert_eq!(
            vals_1, vals_4,
            "parameter {name_1} diverged across thread counts"
        );
    }
}
