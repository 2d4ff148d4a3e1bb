//! # urcl-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (Section V), built on a shared [`ExperimentContext`].
//! Each binary prints the paper-style rows and writes JSON into
//! `results/` for EXPERIMENTS.md.
//!
//! Run everything with `cargo run -p urcl-bench --release --bin
//! all_experiments` (pass `--quick` for a fast smoke pass).

pub mod experiments;

use std::path::Path;
use urcl_core::{
    ContinualTrainer, Metrics, RunReport, SetReport, StSimSiam, Stopwatch, TrainerConfig,
};
use urcl_graph::SensorNetwork;
use urcl_json::ToJson;
use urcl_models::{
    Agcrn, Arima, Backbone, BackboneConfig, Dcrnn, GeoMan, GraphWaveNet, GwnConfig, Mtgnn, Stgcn,
    Stgode,
};
use urcl_stdata::{ContinualSplit, DatasetConfig, Normalizer, SyntheticDataset};
use urcl_tensor::{ParamStore, Rng, Tensor};

/// The deep backbones the experiments instantiate by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// GraphWaveNet (URCL's default backbone).
    GraphWaveNet,
    /// Diffusion-convolutional RNN.
    Dcrnn,
    /// Spatio-temporal GCN (ChebNet sandwich).
    Stgcn,
    /// Multivariate-time-series GNN with learned graph.
    Mtgnn,
    /// Adaptive graph convolutional RNN (NAPL).
    Agcrn,
    /// Graph-ODE network.
    Stgode,
    /// Multi-level attention network.
    GeoMan,
}

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::GraphWaveNet => "GraphWaveNet",
            ModelKind::Dcrnn => "DCRNN",
            ModelKind::Stgcn => "STGCN",
            ModelKind::Mtgnn => "MTGNN",
            ModelKind::Agcrn => "AGCRN",
            ModelKind::Stgode => "STGODE",
            ModelKind::GeoMan => "GeoMAN",
        }
    }

    /// The baselines compared in Table III.
    pub fn table3_baselines() -> [ModelKind; 5] {
        [
            ModelKind::Dcrnn,
            ModelKind::Stgcn,
            ModelKind::Mtgnn,
            ModelKind::Agcrn,
            ModelKind::Stgode,
        ]
    }
}

/// A generated dataset plus everything a run needs: normalized streaming
/// split, sensor network and the unit scale for reporting.
pub struct ExperimentContext {
    /// The generated dataset (raw series, config, graph).
    pub dataset: SyntheticDataset,
    /// Normalized streaming split (base + 4 incremental sets).
    pub split: ContinualSplit,
    /// The fitted normalizer.
    pub normalizer: Normalizer,
    /// Target-channel range: converts normalized errors to physical units.
    pub scale: f32,
}

impl ExperimentContext {
    /// Generates and splits one dataset with the paper's protocol
    /// (30% base + 4 incremental sets).
    pub fn new(config: DatasetConfig) -> Self {
        let dataset = SyntheticDataset::generate(config);
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
        Self {
            dataset,
            split,
            normalizer,
            scale,
        }
    }

    /// The sensor network.
    pub fn network(&self) -> &SensorNetwork {
        &self.dataset.network
    }

    /// The dataset config.
    pub fn config(&self) -> &DatasetConfig {
        &self.dataset.config
    }
}

/// Builds a deep backbone with matched small hyperparameters, registering
/// its parameters into a fresh store.
pub fn build_backbone(
    kind: ModelKind,
    net: &SensorNetwork,
    cfg: &DatasetConfig,
    seed: u64,
) -> (Box<dyn Backbone>, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(seed);
    let base = BackboneConfig::small(
        cfg.num_nodes,
        cfg.num_channels(),
        cfg.input_steps,
        cfg.output_steps,
    );
    let model: Box<dyn Backbone> = match kind {
        ModelKind::GraphWaveNet => {
            let gcfg = GwnConfig {
                base,
                ..GwnConfig::small(
                    cfg.num_nodes,
                    cfg.num_channels(),
                    cfg.input_steps,
                    cfg.output_steps,
                )
            };
            Box::new(GraphWaveNet::new(&mut store, &mut rng, net, gcfg))
        }
        ModelKind::Dcrnn => Box::new(Dcrnn::new(&mut store, &mut rng, net, base, 2)),
        ModelKind::Stgcn => Box::new(Stgcn::new(&mut store, &mut rng, net, base, 3, 3)),
        ModelKind::Mtgnn => Box::new(Mtgnn::new(&mut store, &mut rng, base, 8)),
        ModelKind::Agcrn => Box::new(Agcrn::new(&mut store, &mut rng, base, 8)),
        ModelKind::Stgode => Box::new(Stgode::new(&mut store, &mut rng, net, base, 4, 0.25)),
        ModelKind::GeoMan => Box::new(GeoMan::new(&mut store, &mut rng, base)),
    };
    (model, store)
}

/// Runs one strategy end-to-end on a context: builds the backbone (and
/// STSimSiam when URCL needs it), trains through the stream, returns the
/// per-set report.
pub fn run_deep_model(
    kind: ModelKind,
    ctx: &ExperimentContext,
    trainer_cfg: TrainerConfig,
    seed: u64,
) -> RunReport {
    let (model, store) = build_backbone(kind, ctx.network(), ctx.config(), seed);
    run_backbone(model.as_ref(), store, ctx, trainer_cfg, seed)
}

/// [`run_deep_model`] over an already-built backbone and its parameters.
pub fn run_backbone(
    model: &dyn Backbone,
    mut store: ParamStore,
    ctx: &ExperimentContext,
    trainer_cfg: TrainerConfig,
    seed: u64,
) -> RunReport {
    let needs_simsiam =
        trainer_cfg.strategy == urcl_core::Strategy::Urcl && trainer_cfg.ablation.graphcl;
    let simsiam = needs_simsiam.then(|| {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5151);
        StSimSiam::new(
            &mut store,
            &mut rng,
            model.config().latent,
            model.config().latent,
            trainer_cfg.tau,
        )
    });
    let mut trainer = ContinualTrainer::new(trainer_cfg);
    trainer.run(
        model,
        simsiam.as_ref(),
        &mut store,
        ctx.network(),
        &ctx.split,
        ctx.config(),
        ctx.scale,
    )
}

/// Runs the ARIMA baseline through the streaming protocol: refit per set
/// (the Fig. 5 per-set retraining the baselines use), evaluate on each
/// set's test windows.
pub fn run_arima(ctx: &ExperimentContext, p: usize, d: usize) -> RunReport {
    let cfg = ctx.config();
    let mut sets = Vec::new();
    for period in ctx.split.all_periods() {
        let (train, _val, test) = period.train_val_test(0.7, 0.1);
        // Target-channel series [T, N] of the training portion.
        let t = train.series.shape()[0];
        let n = cfg.num_nodes;
        let target: Tensor = train
            .series
            .index_select(2, &[cfg.target_channel])
            .reshape(&[t, n]);
        let mut watch = Stopwatch::new();
        let model = watch.time(|| Arima::fit(&target, p, d));
        let fit_seconds = watch.total_seconds();

        let windows = test.windows(cfg);
        let mut metrics = Metrics::new();
        let mut infer = Stopwatch::new();
        for w in &windows {
            let xt =
                w.x.index_select(2, &[cfg.target_channel])
                    .reshape(&[cfg.input_steps, n]);
            infer.start();
            let pred = model.forecast(&xt);
            infer.stop();
            metrics.update(&pred, &w.y);
        }
        let (mae, rmse) = metrics.scaled(ctx.scale);
        sets.push(SetReport {
            name: period.name.clone(),
            mae,
            rmse,
            train_seconds_per_epoch: fit_seconds,
            epochs: 1,
            infer_seconds_per_obs: if windows.is_empty() {
                0.0
            } else {
                infer.total_seconds() / windows.len() as f64
            },
            loss_curve: Vec::new(),
        });
    }
    RunReport {
        model: "ARIMA".into(),
        strategy: "FinetuneST".into(),
        sets,
    }
}

/// Experiment scale knobs shared by all binaries.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Epochs on the base set.
    pub epochs_base: usize,
    /// Epochs per incremental set.
    pub epochs_incremental: usize,
    /// Keep every n-th training window.
    pub window_stride: usize,
}

impl Effort {
    /// Parses `--quick` from the CLI args; otherwise full effort. The
    /// `URCL_EFFORT` env var (`"base_epochs,inc_epochs,stride"`) overrides
    /// both — useful for tuning run time to a compute budget.
    pub fn from_args() -> Self {
        if let Ok(spec) = std::env::var("URCL_EFFORT") {
            let parts: Vec<usize> = spec
                .split(',')
                .map(|p| p.trim().parse().expect("URCL_EFFORT must be 'b,i,s'"))
                .collect();
            assert_eq!(parts.len(), 3, "URCL_EFFORT must be 'base,inc,stride'");
            return Self {
                epochs_base: parts[0].max(1),
                epochs_incremental: parts[1].max(1),
                window_stride: parts[2].max(1),
            };
        }
        if std::env::args().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::full()
        }
    }

    /// Fast smoke-test settings.
    pub fn quick() -> Self {
        Self {
            epochs_base: 2,
            epochs_incremental: 1,
            window_stride: 8,
        }
    }

    /// The settings used for the numbers in EXPERIMENTS.md (calibrated so
    /// the whole suite finishes in tens of minutes on one CPU core).
    pub fn full() -> Self {
        Self {
            epochs_base: 6,
            epochs_incremental: 4,
            window_stride: 3,
        }
    }

    /// Applies the effort to a trainer config.
    pub fn apply(&self, mut cfg: TrainerConfig) -> TrainerConfig {
        cfg.epochs_base = self.epochs_base;
        cfg.epochs_incremental = self.epochs_incremental;
        cfg.window_stride = self.window_stride;
        cfg
    }
}

/// Formats a per-set MAE/RMSE row like the paper's tables.
pub fn format_row(label: &str, report: &RunReport) -> String {
    let mae: Vec<String> = report
        .sets
        .iter()
        .map(|s| format!("{:6.2}", s.mae))
        .collect();
    let rmse: Vec<String> = report
        .sets
        .iter()
        .map(|s| format!("{:6.2}", s.rmse))
        .collect();
    format!(
        "{:<14} | MAE  {} | RMSE {}",
        label,
        mae.join(" "),
        rmse.join(" ")
    )
}

/// Writes a JSON-convertible result to `results/<name>.json` relative to
/// the workspace root (created if needed).
pub fn write_results(name: &str, value: &impl ToJson) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().to_string_pretty()).expect("write results file");
    println!("[results -> {}]", path.display());
}

/// Header line for per-set tables.
pub fn set_header() -> &'static str {
    "                        B_set  I1     I2     I3     I4          B_set  I1     I2     I3     I4"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_with_four_incrementals() {
        let ctx = ExperimentContext::new(DatasetConfig::metr_la().tiny());
        assert_eq!(ctx.split.incremental.len(), 4);
        assert!(ctx.scale > 0.0);
    }

    #[test]
    fn all_backbones_construct() {
        let ctx = ExperimentContext::new(DatasetConfig::metr_la().tiny());
        for kind in [
            ModelKind::GraphWaveNet,
            ModelKind::Dcrnn,
            ModelKind::Stgcn,
            ModelKind::Mtgnn,
            ModelKind::Agcrn,
            ModelKind::Stgode,
            ModelKind::GeoMan,
        ] {
            let (model, store) = build_backbone(kind, ctx.network(), ctx.config(), 3);
            assert_eq!(model.name(), kind.name());
            assert!(store.num_scalars() > 0, "{} has no params", kind.name());
        }
    }

    #[test]
    fn arima_runs_through_stream() {
        let ctx = ExperimentContext::new(DatasetConfig::metr_la().tiny());
        let report = run_arima(&ctx, 3, 0);
        assert_eq!(report.sets.len(), 5);
        assert!(report.sets.iter().all(|s| s.mae.is_finite()));
    }

    #[test]
    fn effort_quick_smaller_than_full() {
        let q = Effort::quick();
        let f = Effort::full();
        assert!(q.epochs_base < f.epochs_base);
        assert!(q.window_stride > f.window_stride);
    }
}
