//! Traffic-speed prediction on streaming data: why a static model fails.
//!
//! ```bash
//! cargo run --release --example traffic_speed_stream
//! ```
//!
//! Recreates the paper's motivating comparison (Table II) on a PEMS-BAY-
//! like speed stream: a statically trained model (OneFitAll), naive
//! fine-tuning (FinetuneST) and URCL are pushed through the same stream;
//! after each period every model is evaluated on the test data of *all*
//! periods seen so far, so forgetting and failure-to-adapt both show up.

use urcl::core::{ContinualTrainer, StSimSiam, Strategy, TrainerConfig};
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{ParamStore, Rng};

fn main() {
    let mut cfg = DatasetConfig::pems_bay();
    // Shrink for example runtime while keeping four incremental sets.
    cfg.num_nodes = 16;
    cfg.num_days = 16;
    let dataset = SyntheticDataset::generate(cfg);
    let normalizer = dataset.fit_normalizer();
    let raw = dataset.continual_split(4);
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
        "strategy comparison on a {}-sensor speed stream",
        dataset.config.num_nodes
    );
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "strategy", "B_set", "I1", "I2", "I3", "I4"
    );

    for strategy in [Strategy::OneFitAll, Strategy::FinetuneSt, Strategy::Urcl] {
        // Fresh model per strategy so comparisons are apples-to-apples.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(7);
        let gwn_cfg = GwnConfig::small(
            dataset.config.num_nodes,
            dataset.config.num_channels(),
            dataset.config.input_steps,
            dataset.config.output_steps,
        );
        let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, gwn_cfg);
        let needs_ssl = strategy == Strategy::Urcl;
        let simsiam = needs_ssl.then(|| StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5));

        let trainer_cfg = TrainerConfig {
            strategy,
            epochs_base: 4,
            epochs_incremental: 2,
            window_stride: 4,
            ..TrainerConfig::default()
        };
        let mut trainer = ContinualTrainer::new(trainer_cfg);
        let report = trainer.run(
            &model,
            simsiam.as_ref(),
            &mut store,
            &dataset.network,
            &split,
            &dataset.config,
            scale,
        );
        let maes: Vec<String> = report
            .sets
            .iter()
            .map(|s| format!("{:7.2}", s.mae))
            .collect();
        println!("{:<12} {}", strategy.name(), maes.join(" "));
    }

    println!("\nLower is better (speed MAE, mph-like units).");
    println!("OneFitAll cannot adapt to drifted regimes; FinetuneST adapts");
    println!("but forgets; URCL replays what it learned and stays stable.");
}
