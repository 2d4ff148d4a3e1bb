//! Traffic-flow prediction with component inspection: what each URCL
//! piece contributes.
//!
//! ```bash
//! cargo run --release --example traffic_flow_stream
//! ```
//!
//! Runs a PEMS08-like flow stream through full URCL and the four
//! ablations of the paper's Fig. 6 (w/o STMixup, w/o RMIR, w/o
//! augmentation, w/o GraphCL), reporting the mean MAE over the
//! incremental sets — the continual-learning figure of merit.

use urcl::core::{Ablation, ContinualTrainer, StSimSiam, TrainerConfig};
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{ParamStore, Rng};

fn run_variant(
    dataset: &SyntheticDataset,
    split: &ContinualSplit,
    scale: f32,
    ablation: Ablation,
) -> f32 {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(11);
    let gwn_cfg = GwnConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, gwn_cfg);
    let simsiam = ablation
        .graphcl
        .then(|| StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5));
    let cfg = TrainerConfig {
        ablation,
        epochs_base: 3,
        epochs_incremental: 2,
        window_stride: 6,
        ..TrainerConfig::default()
    };
    let mut trainer = ContinualTrainer::new(cfg);
    let report = trainer.run(
        &model,
        simsiam.as_ref(),
        &mut store,
        &dataset.network,
        &split.clone(),
        &dataset.config,
        scale,
    );
    report.incremental_mae()
}

fn main() {
    let mut cfg = DatasetConfig::pems08();
    cfg.num_nodes = 12;
    cfg.num_days = 6;
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

    let variants: [(&str, Ablation); 5] = [
        ("full URCL", Ablation::default()),
        (
            "w/o STMixup",
            Ablation {
                mixup: false,
                ..Ablation::default()
            },
        ),
        (
            "w/o RMIR",
            Ablation {
                rmir: false,
                ..Ablation::default()
            },
        ),
        (
            "w/o augmentation",
            Ablation {
                augmentation: false,
                ..Ablation::default()
            },
        ),
        (
            "w/o GraphCL",
            Ablation {
                graphcl: false,
                ..Ablation::default()
            },
        ),
    ];

    println!(
        "flow-prediction ablations ({} sensors)",
        dataset.config.num_nodes
    );
    println!("{:<18} {:>16}", "variant", "incremental MAE");
    for (name, ablation) in variants {
        let mae = run_variant(&dataset, &split, scale, ablation);
        println!("{name:<18} {mae:>16.2}");
    }
    println!("\n(vehicles/interval; mean over the four incremental sets)");
}
