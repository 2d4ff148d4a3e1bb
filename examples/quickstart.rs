//! Quickstart: train URCL on a small synthetic traffic stream.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a METR-LA-like streaming dataset, a GraphWaveNet backbone with
//! the STSimSiam head, and runs the full continuous-learning protocol
//! (base set + incremental sets) with the replay buffer, RMIR sampling,
//! STMixup and spatio-temporal augmentation all enabled.

use urcl::core::{ContinualTrainer, StSimSiam, TrainerConfig};
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{ParamStore, Rng};

fn main() {
    // 1. A small streaming spatio-temporal dataset (8 sensors, 10 days).
    let dataset = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
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
    println!(
        "dataset: {} ({} sensors, {} slots)",
        dataset.config.name,
        dataset.config.num_nodes,
        dataset.config.total_steps()
    );

    // 2. The backbone (GraphWaveNet STEncoder/STDecoder) + STSimSiam head.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(42);
    let mut gwn_cfg = GwnConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    gwn_cfg.layers = 2;
    let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, gwn_cfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);
    println!(
        "model: GraphWaveNet with {} parameters",
        store.num_scalars()
    );

    // 3. Continuous training through the stream (Algorithm 1).
    let config = TrainerConfig {
        epochs_base: 3,
        epochs_incremental: 2,
        window_stride: 4,
        ..TrainerConfig::default()
    };
    let mut trainer = ContinualTrainer::new(config);
    let report = trainer.run(
        &model,
        Some(&simsiam),
        &mut store,
        &dataset.network,
        &split,
        &dataset.config,
        scale,
    );

    // 4. Results: cumulative test error after each streaming period.
    println!(
        "\n{:<8} {:>8} {:>8} {:>10}",
        "period", "MAE", "RMSE", "buffer"
    );
    for set in &report.sets {
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>10}",
            set.name,
            set.mae,
            set.rmse,
            trainer.buffer().len()
        );
    }
    println!(
        "\nreplay buffer holds {} of {} capacity",
        trainer.buffer().len(),
        trainer.buffer().capacity()
    );
}
