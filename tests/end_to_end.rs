//! End-to-end integration test: the full URCL pipeline — data generation,
//! normalization, streaming splits, GraphWaveNet + STSimSiam, replay +
//! RMIR + STMixup + augmentation — on a tiny dataset.
//!
//! Each scenario runs at two scales: a shrunk stream (4 days, coarse
//! window stride) that keeps the debug-mode suite fast, and the original
//! full-size run gated behind `#[ignore]`. The ignored variants prove the
//! same properties on 2.5× more data; run them with
//! `cargo test --test end_to_end -- --ignored` (or `--include-ignored`).

use urcl::core::{ContinualTrainer, StSimSiam, Strategy, TrainerConfig};
use urcl::models::{Backbone, GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{ParamStore, Rng};

fn tiny_context_days(num_days: usize) -> (SyntheticDataset, ContinualSplit, f32) {
    let mut cfg = DatasetConfig::metr_la().tiny();
    cfg.num_days = num_days;
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
    (dataset, split, scale)
}

fn build_gwn(dataset: &SyntheticDataset, seed: u64) -> (ParamStore, GraphWaveNet, StSimSiam) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = GwnConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    cfg.layers = 2;
    let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, cfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);
    (store, model, simsiam)
}

fn check_full_pipeline(num_days: usize, window_stride: usize) {
    let (dataset, split, scale) = tiny_context_days(num_days);
    let (mut store, model, simsiam) = build_gwn(&dataset, 1);
    let cfg = TrainerConfig {
        epochs_base: 3,
        epochs_incremental: 1,
        window_stride,
        ..TrainerConfig::default()
    };
    let mut trainer = ContinualTrainer::new(cfg);
    let report = trainer.run(
        &model,
        Some(&simsiam),
        &mut store,
        &dataset.network,
        &split,
        &dataset.config,
        scale,
    );

    // One report per streaming period, all finite, RMSE >= MAE.
    assert_eq!(report.sets.len(), 3);
    for set in &report.sets {
        assert!(set.mae.is_finite() && set.mae > 0.0, "{set:?}");
        assert!(set.rmse >= set.mae * 0.99, "{set:?}");
        assert!(set.infer_seconds_per_obs > 0.0);
    }
    // Training happened and losses decreased within the base set.
    let base = &report.sets[0];
    assert_eq!(base.epochs, 3);
    let curve = &base.loss_curve;
    assert!(
        curve.last().unwrap() < curve.first().unwrap(),
        "base-set loss did not decrease: {curve:?}"
    );
    // Replay buffer saw data.
    assert!(!trainer.buffer().is_empty());
    // Error should be far below the trivially-wrong range (~the channel
    // range). Speed range is 65; an untrained model sits around 25+.
    assert!(
        report.sets.last().unwrap().mae < 20.0,
        "final MAE implausibly high: {}",
        report.sets.last().unwrap().mae
    );
}

#[test]
fn urcl_full_pipeline_learns_and_reports() {
    check_full_pipeline(4, 10);
}

/// Original full-size run (~10 days of data; slow in debug builds).
#[test]
#[ignore = "full-size stream; run with cargo test --test end_to_end -- --ignored"]
fn urcl_full_pipeline_learns_and_reports_full() {
    check_full_pipeline(10, 8);
}

fn check_urcl_beats_one_fit_all(num_days: usize, window_stride: usize) {
    let (dataset, split, scale) = tiny_context_days(num_days);

    let run = |strategy: Strategy| -> f32 {
        let (mut store, model, simsiam) = build_gwn(&dataset, 5);
        let needs_ssl = strategy == Strategy::Urcl;
        let cfg = TrainerConfig {
            strategy,
            epochs_base: 2,
            epochs_incremental: 1,
            window_stride,
            ..TrainerConfig::default()
        };
        let mut trainer = ContinualTrainer::new(cfg);
        trainer
            .run(
                &model,
                needs_ssl.then_some(&simsiam),
                &mut store,
                &dataset.network,
                &split,
                &dataset.config,
                scale,
            )
            .incremental_mae()
    };

    let urcl = run(Strategy::Urcl);
    let one_fit_all = run(Strategy::OneFitAll);
    // The static model cannot track regime drift; URCL must do better on
    // the incremental sets (generous margin keeps this robust to seeds).
    assert!(
        urcl < one_fit_all * 1.05,
        "URCL ({urcl}) should not lose clearly to OneFitAll ({one_fit_all})"
    );
}

#[test]
fn urcl_beats_one_fit_all_on_drifted_stream() {
    check_urcl_beats_one_fit_all(4, 10);
}

/// Original full-size comparison (slow in debug builds).
#[test]
#[ignore = "full-size stream; run with cargo test --test end_to_end -- --ignored"]
fn urcl_beats_one_fit_all_on_drifted_stream_full() {
    check_urcl_beats_one_fit_all(10, 8);
}

#[test]
fn deterministic_given_seeds() {
    let (dataset, split, scale) = tiny_context_days(4);
    let run = || -> Vec<f32> {
        let (mut store, model, simsiam) = build_gwn(&dataset, 9);
        let cfg = TrainerConfig {
            epochs_base: 1,
            epochs_incremental: 1,
            window_stride: 10,
            ..TrainerConfig::default()
        };
        let mut trainer = ContinualTrainer::new(cfg);
        trainer
            .run(
                &model,
                Some(&simsiam),
                &mut store,
                &dataset.network,
                &split,
                &dataset.config,
                scale,
            )
            .sets
            .iter()
            .map(|s| s.mae)
            .collect()
    };
    assert_eq!(run(), run(), "same seeds must reproduce the same run");
}

#[test]
fn shared_encoder_between_prediction_and_simsiam() {
    // The STEncoder must be *the same parameters* for the prediction head
    // and the STSimSiam branches: training the SSL loss alone must change
    // the prediction output.
    use urcl::core::Augmentation;
    use urcl::tensor::autodiff::{Session, Tape};
    use urcl::tensor::Adam;

    let (dataset, split, _) = tiny_context_days(4);
    let (mut store, model, simsiam) = build_gwn(&dataset, 13);
    let windows = split.base.windows(&dataset.config);
    let batch = urcl::stdata::stack_samples(&windows[..4]);

    let predict = |store: &ParamStore| {
        let tape = Tape::new();
        let mut sess = Session::new(&tape, store);
        let x = sess.input(batch.x.clone());
        model.forward(&mut sess, x).value()
    };
    let before = predict(&store);

    // One SSL-only step.
    let mut rng = Rng::seed_from_u64(99);
    let (a1, a2) = Augmentation::sample_two(&mut rng);
    let v1 = a1.apply(&batch.x, &dataset.network, 2, &mut rng);
    let v2 = a2.apply(&batch.x, &dataset.network, 2, &mut rng);
    store.zero_grads();
    let tape = Tape::new();
    let mut sess = Session::new(&tape, &store);
    let loss = simsiam.loss(&mut sess, &model, &v1, &v2);
    let grads = tape.backward(loss);
    let binds = sess.into_bindings();
    store.accumulate_grads(&binds, &grads);
    let mut opt = Adam::new(0.01);
    opt.step(&mut store);

    let after = predict(&store);
    let diff: f32 = before
        .data()
        .iter()
        .zip(after.data())
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(
        diff > 1e-6,
        "SSL step did not move the prediction — encoder not shared"
    );
}
