//! Plugging a custom prediction model into URCL.
//!
//! ```bash
//! cargo run --release --example custom_backbone
//! ```
//!
//! The framework is model-agnostic (the paper's Challenge II): any model
//! that exposes the STEncoder/STDecoder split via the
//! [`urcl::models::Backbone`] trait gets the replay buffer, RMIR,
//! STMixup, augmentations and the STSimSiam head for free. Here we write
//! a deliberately simple per-node MLP backbone from scratch and run it
//! through the continuous trainer.

use urcl::core::{ContinualTrainer, StSimSiam, TrainerConfig};
use urcl::models::{Backbone, BackboneConfig};
use urcl::nn::linear::{Activation, Mlp};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::autodiff::{Session, Var};
use urcl::tensor::{ParamStore, Rng};

/// A minimal backbone: flattens each node's window (M × C values) and
/// runs a per-node MLP. No spatial mixing at all — it exists to show the
/// trait surface, not to win benchmarks.
struct WindowMlp {
    cfg: BackboneConfig,
    encoder: Mlp,
    decoder: Mlp,
}

impl WindowMlp {
    fn new(store: &mut ParamStore, rng: &mut Rng, cfg: BackboneConfig) -> Self {
        let window = cfg.input_steps * cfg.channels;
        Self {
            encoder: Mlp::new(
                store,
                rng,
                "custom.enc",
                &[window, cfg.hidden, cfg.latent],
                Activation::Relu,
            ),
            decoder: Mlp::new(
                store,
                rng,
                "custom.dec",
                &[cfg.latent, cfg.hidden, cfg.horizon],
                Activation::Relu,
            ),
            cfg,
        }
    }
}

impl Backbone for WindowMlp {
    fn name(&self) -> &str {
        "WindowMLP"
    }

    fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    /// `[B, M, N, C] -> [B, N, F]`: flatten the window per node, MLP it.
    fn encode<'t>(&self, sess: &mut Session<'t, '_>, x: Var<'t>) -> Var<'t> {
        self.check_input(&x);
        let shape = x.shape();
        let (b, m, n, c) = (shape[0], shape[1], shape[2], shape[3]);
        let per_node = x.permute(&[0, 2, 1, 3]).reshape(&[b, n, m * c]);
        self.encoder.forward(sess, per_node)
    }

    /// `[B, N, F] -> [B, H, N]`.
    fn decode<'t>(&self, sess: &mut Session<'t, '_>, h: Var<'t>) -> Var<'t> {
        self.decoder.forward(sess, h).permute(&[0, 2, 1])
    }
}

fn main() {
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

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(3);
    let cfg = BackboneConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    let model = WindowMlp::new(&mut store, &mut rng, cfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, model.config().latent, 32, 0.5);

    let mut trainer = ContinualTrainer::new(TrainerConfig {
        epochs_base: 3,
        epochs_incremental: 2,
        window_stride: 4,
        ..TrainerConfig::default()
    });
    let report = trainer.run(
        &model,
        Some(&simsiam),
        &mut store,
        &dataset.network,
        &split,
        &dataset.config,
        scale,
    );

    println!("custom backbone '{}' through URCL:", report.model);
    for set in &report.sets {
        println!(
            "  {:<8} MAE {:6.2}  RMSE {:6.2}",
            set.name, set.mae, set.rmse
        );
    }
    println!("\nAny Backbone impl gets replay + RMIR + STMixup + STSimSiam for free.");
}
