//! High-level pipeline: the "just give me a streaming forecaster" API.
//!
//! [`UrclPipeline`] bundles everything a deployment needs — normalizer,
//! GraphWaveNet backbone, STSimSiam head, parameter store and the
//! continuous trainer — behind three calls:
//!
//! 1. [`UrclPipeline::new`] from a sensor network + dataset config,
//! 2. [`UrclPipeline::observe_period`] whenever a new streaming period
//!    (`D_i`) has accumulated: trains continually with replay,
//! 3. [`UrclPipeline::forecast`] for one-step-ahead predictions in
//!    physical units.
//!
//! Checkpoints go through a [`CheckpointDir`] both ways:
//! [`UrclPipeline::save_checkpoint`] writes the full pipeline state, and
//! [`UrclPipeline::resume_from`] is the one way back in — it checks the
//! parameter layout and restores trainer state, normalizer and period
//! counter together.
//!
//! The lower-level pieces stay public for research use; this type is for
//! users who want the paper's system, not its internals.

use std::sync::OnceLock;

use crate::persist::{self, Checkpoint, CheckpointDir, PersistError, PipelineState};
use crate::simsiam::StSimSiam;
use crate::trainer::{ContinualTrainer, SetReport, TrainerConfig};
use urcl_graph::SensorNetwork;
use urcl_models::{Backbone, GraphWaveNet, GwnConfig};
use urcl_stdata::{ContinualSplit, DatasetConfig, Normalizer, SequenceData};
use urcl_tensor::{ExecPlan, ParamStore, Rng, Tensor};

/// A ready-to-stream URCL forecaster (GraphWaveNet backbone).
pub struct UrclPipeline {
    data_cfg: DatasetConfig,
    network: SensorNetwork,
    store: ParamStore,
    model: GraphWaveNet,
    simsiam: StSimSiam,
    trainer: ContinualTrainer,
    normalizer: Option<Normalizer>,
    periods_seen: usize,
    /// [`Self::forecast`]'s forward plan, compiled on first use. It binds
    /// the parameters at every replay, so training and restores never
    /// stale it.
    forecast_plan: OnceLock<ExecPlan>,
}

impl UrclPipeline {
    /// Builds the pipeline. `trainer_cfg` controls epochs, replay and the
    /// framework components; the backbone geometry is derived from
    /// `data_cfg`.
    pub fn new(
        network: SensorNetwork,
        data_cfg: DatasetConfig,
        trainer_cfg: TrainerConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(
            network.num_nodes(),
            data_cfg.num_nodes,
            "network and dataset config disagree on node count"
        );
        let (model, simsiam, store) = Self::build_model(&network, &data_cfg, &trainer_cfg, seed);
        let trainer = ContinualTrainer::new(trainer_cfg);
        Self {
            data_cfg,
            network,
            store,
            model,
            simsiam,
            trainer,
            normalizer: None,
            periods_seen: 0,
            forecast_plan: OnceLock::new(),
        }
    }

    /// Constructs the pipeline's model pair and parameter store. The
    /// *layout* (parameter names and shapes) depends only on the configs,
    /// never on `seed` — which is what makes checkpoints portable across
    /// processes.
    fn build_model(
        network: &SensorNetwork,
        data_cfg: &DatasetConfig,
        trainer_cfg: &TrainerConfig,
        seed: u64,
    ) -> (GraphWaveNet, StSimSiam, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(seed);
        let gwn_cfg = GwnConfig::small(
            data_cfg.num_nodes,
            data_cfg.num_channels(),
            data_cfg.input_steps,
            data_cfg.output_steps,
        );
        let latent = gwn_cfg.base.latent;
        let model = GraphWaveNet::new(&mut store, &mut rng, network, gwn_cfg);
        let simsiam = StSimSiam::new(&mut store, &mut rng, latent, latent, trainer_cfg.tau);
        (model, simsiam, store)
    }

    /// The backbone + parameter-layout template an **inference server**
    /// needs to load this pipeline's checkpoints in another process: the
    /// identical architecture, built with an arbitrary seed. Loading a
    /// checkpoint overwrites every parameter value; only the layout —
    /// names and shapes, which [`persist::copy_store_checked`] validates —
    /// must match, and that is fully determined by the two configs.
    ///
    /// The returned store also carries the STSimSiam head's parameters
    /// (they are part of the checkpoint layout even though forward-only
    /// serving never reads them).
    pub fn serving_parts(
        network: &SensorNetwork,
        data_cfg: &DatasetConfig,
        trainer_cfg: &TrainerConfig,
    ) -> (GraphWaveNet, ParamStore) {
        let (model, _simsiam, store) = Self::build_model(network, data_cfg, trainer_cfg, 0);
        (model, store)
    }

    /// [`Self::serving_parts`] with the backbone type-erased — the form a
    /// multi-tenant registry wants, where tenants with different dataset
    /// geometries (METR-LA, PEMS-BAY, …) must live in one homogeneous
    /// collection of `Box<dyn Backbone>`.
    pub fn serving_parts_dyn(
        network: &SensorNetwork,
        data_cfg: &DatasetConfig,
        trainer_cfg: &TrainerConfig,
    ) -> (Box<dyn Backbone + Send + Sync>, ParamStore) {
        let (model, store) = Self::serving_parts(network, data_cfg, trainer_cfg);
        (Box::new(model), store)
    }

    /// Number of streaming periods consumed so far.
    pub fn periods_seen(&self) -> usize {
        self.periods_seen
    }

    /// Read access to the trained parameters (for checkpointing via
    /// [`crate::persist`]).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Captures the full v2-checkpoint pipeline section: trainer state
    /// (RNG, Adam moments, replay buffer, RMIR stats, cursor), normalizer
    /// statistics and the period counter.
    pub fn pipeline_state(&self) -> PipelineState {
        PipelineState {
            trainer: self.trainer.snapshot(),
            normalizer: self.normalizer.clone(),
            periods_seen: self.periods_seen,
        }
    }

    /// Atomically writes a full-pipeline checkpoint into `dir` (rotating
    /// `latest`/`previous`). Returns the document size in bytes.
    pub fn save_checkpoint(
        &self,
        dir: &CheckpointDir,
        description: &str,
    ) -> Result<u64, PersistError> {
        dir.save(description, &self.store, Some(&self.pipeline_state()))
    }

    /// Resumes this pipeline from a full (v2) checkpoint: parameters,
    /// trainer state, normalizer and period counter all come from disk, so
    /// subsequent [`Self::observe_period`] calls continue the stream
    /// bitwise-identically to a never-interrupted process. Params-only
    /// checkpoints carry no trainer state to resume and are rejected with
    /// [`PersistError::Format`]; a layout that does not match this
    /// pipeline's is [`PersistError::Mismatch`] and leaves it untouched.
    pub fn resume_from(&mut self, ckpt: Checkpoint) -> Result<(), PersistError> {
        let Some(pipeline) = ckpt.pipeline else {
            return Err(PersistError::Format(
                "checkpoint has no pipeline section (params-only save?)".into(),
            ));
        };
        persist::copy_store_checked(&ckpt.store, &mut self.store)?;
        self.trainer.restore(pipeline.trainer);
        self.normalizer = pipeline.normalizer;
        self.periods_seen = pipeline.periods_seen;
        Ok(())
    }

    /// Fits the normalizer from a raw series without training, so a
    /// pipeline can forecast (or publish a checkpoint a server can load)
    /// before its first trained period.
    pub fn observe_period_statistics_only(&mut self, series: &Tensor) {
        assert_eq!(series.ndim(), 3, "series must be [T, N, C]");
        self.normalizer = Some(Normalizer::fit(series));
    }

    /// Ingests one streaming period of raw (physical-unit) data
    /// `[T, N, C]` and trains continually on it. The first period fits
    /// the normalizer (it is the base set). Returns the period's report
    /// in physical units.
    pub fn observe_period(&mut self, series: Tensor) -> SetReport {
        assert_eq!(series.ndim(), 3, "period must be [T, N, C]");
        assert_eq!(series.shape()[1], self.data_cfg.num_nodes, "node count");
        assert_eq!(
            series.shape()[2],
            self.data_cfg.num_channels(),
            "channel count"
        );
        if self.normalizer.is_none() {
            self.normalizer = Some(Normalizer::fit(&series));
        }
        let norm = self.normalizer.as_ref().expect("set above");
        let name = if self.periods_seen == 0 {
            "B_set".to_string()
        } else {
            format!("I{}_set", self.periods_seen)
        };
        let period = SequenceData {
            name,
            series: norm.transform(&series),
        };
        // Reuse the streaming trainer on a single-period split. Sets after
        // the first train for incremental epoch counts although each is
        // index 0, the base, of its split.
        let split = ContinualSplit {
            base: period,
            incremental: Vec::new(),
        };
        self.trainer.continues_stream = self.periods_seen > 0;
        let report = self.trainer.run(
            &self.model,
            Some(&self.simsiam),
            &mut self.store,
            &self.network,
            &split,
            &self.data_cfg,
            norm.scale(self.data_cfg.target_channel),
        );
        self.periods_seen += 1;
        report.sets.into_iter().next().expect("one period trained")
    }

    /// One-step forecast from a raw history window `[M, N, C]` in
    /// physical units. Returns `[H, N]` predictions, also in physical
    /// units.
    pub fn forecast(&self, window: &Tensor) -> Tensor {
        let norm = self
            .normalizer
            .as_ref()
            .expect("observe at least one period before forecasting");
        assert_eq!(
            window.shape(),
            &[
                self.data_cfg.input_steps,
                self.data_cfg.num_nodes,
                self.data_cfg.num_channels()
            ],
            "window must be [M, N, C]"
        );
        let x = norm.transform(window);
        let mut shape = vec![1];
        shape.extend_from_slice(x.shape());
        let x = x.reshape(&shape);
        let plan = self
            .forecast_plan
            .get_or_init(|| self.model.compile_forward(&self.store, &x));
        let pred = plan.run_forward(&self.store, &[&x]).remove(0); // [1, H, N]
        let h = pred.shape()[1];
        let n = pred.shape()[2];
        norm.inverse_target(&pred.reshape(&[h, n]), self.data_cfg.target_channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_stdata::SyntheticDataset;

    fn quick_cfg() -> TrainerConfig {
        TrainerConfig {
            epochs_base: 2,
            epochs_incremental: 1,
            window_stride: 8,
            ..TrainerConfig::default()
        }
    }

    fn setup() -> (SyntheticDataset, UrclPipeline) {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
        let pipe = UrclPipeline::new(ds.network.clone(), ds.config.clone(), quick_cfg(), 3);
        (ds, pipe)
    }

    #[test]
    fn observe_then_forecast_in_physical_units() {
        let (ds, mut pipe) = setup();
        let split = ds.continual_split(2);
        let report = pipe.observe_period(split.base.series.clone());
        assert_eq!(report.name, "B_set");
        assert!(report.mae.is_finite());
        assert_eq!(pipe.periods_seen(), 1);

        // Forecast from the last window of the base period.
        let t = split.base.series.shape()[0];
        let window = split
            .base
            .series
            .narrow(0, t - ds.config.input_steps, ds.config.input_steps);
        let pred = pipe.forecast(&window);
        assert_eq!(pred.shape(), &[ds.config.output_steps, ds.config.num_nodes]);
        // Speed channel: predictions must land in a plausible band.
        assert!(
            pred.data().iter().all(|&v| (0.0..=100.0).contains(&v)),
            "{pred:?}"
        );
    }

    #[test]
    fn streaming_periods_accumulate() {
        let (ds, mut pipe) = setup();
        let split = ds.continual_split(2);
        pipe.observe_period(split.base.series.clone());
        let r1 = pipe.observe_period(split.incremental[0].series.clone());
        assert_eq!(r1.name, "I1_set");
        assert_eq!(pipe.periods_seen(), 2);
    }

    #[test]
    fn later_periods_train_for_incremental_epochs() {
        let (ds, mut pipe) = setup();
        let split = ds.continual_split(2);
        let base = pipe.observe_period(split.base.series.clone());
        let inc = pipe.observe_period(split.incremental[0].series.clone());
        assert_eq!(base.epochs, quick_cfg().epochs_base);
        assert_eq!(inc.epochs, quick_cfg().epochs_incremental);
    }

    #[test]
    #[should_panic(expected = "observe at least one period")]
    fn forecast_before_data_panics() {
        let (ds, pipe) = setup();
        let window = Tensor::zeros(&[
            ds.config.input_steps,
            ds.config.num_nodes,
            ds.config.num_channels(),
        ]);
        let _ = pipe.forecast(&window);
    }

    fn temp_slots(tag: &str) -> CheckpointDir {
        let dir = std::env::temp_dir().join(format!("urcl-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointDir::new(dir).unwrap()
    }

    #[test]
    fn checkpoint_roundtrip_through_pipeline() {
        let (ds, mut pipe) = setup();
        let split = ds.continual_split(2);
        pipe.observe_period(split.base.series.clone());
        let t = split.base.series.shape()[0];
        let window = split
            .base
            .series
            .narrow(0, t - ds.config.input_steps, ds.config.input_steps);
        let before = pipe.forecast(&window);

        // Save, perturb, resume: forecasts must match again.
        let slots = temp_slots("pipe-roundtrip");
        pipe.save_checkpoint(&slots, "roundtrip").unwrap();
        let ids: Vec<_> = pipe.store.ids().collect();
        for id in ids {
            for v in pipe.store.value_mut(id).data_mut() {
                *v += 0.05;
            }
        }
        assert_ne!(pipe.forecast(&window), before);
        pipe.resume_from(slots.load().unwrap()).unwrap();
        std::fs::remove_dir_all(slots.dir()).ok();
        assert_eq!(pipe.forecast(&window), before);
    }

    /// Full v2 checkpoint between streaming periods: a fresh process (even
    /// one built with a different seed) that resumes from disk must finish
    /// the stream bitwise-identically to the uninterrupted one.
    #[test]
    fn full_checkpoint_between_periods_resumes_bitwise() {
        let (ds, mut interrupted) = setup();
        let split = ds.continual_split(2);

        // Reference: both periods in one process.
        let mut uninterrupted =
            UrclPipeline::new(ds.network.clone(), ds.config.clone(), quick_cfg(), 3);
        uninterrupted.observe_period(split.base.series.clone());
        let ref_report = uninterrupted.observe_period(split.incremental[0].series.clone());

        // Interrupted: first period, checkpoint, "crash".
        interrupted.observe_period(split.base.series.clone());
        let slots = temp_slots("pipe-resume");
        interrupted
            .save_checkpoint(&slots, "after base period")
            .unwrap();
        drop(interrupted);

        // Fresh process: different seed, so every bit of matching state
        // must have come from the checkpoint.
        let mut resumed =
            UrclPipeline::new(ds.network.clone(), ds.config.clone(), quick_cfg(), 999);
        resumed.resume_from(slots.load().unwrap()).unwrap();
        assert_eq!(resumed.periods_seen(), 1);
        let res_report = resumed.observe_period(split.incremental[0].series.clone());
        std::fs::remove_dir_all(slots.dir()).ok();

        assert_eq!(res_report.name, ref_report.name);
        assert_eq!(res_report.mae.to_bits(), ref_report.mae.to_bits());
        assert_eq!(res_report.rmse.to_bits(), ref_report.rmse.to_bits());
        for (a, b) in uninterrupted.store().ids().zip(resumed.store().ids()) {
            let (ta, tb) = (uninterrupted.store().value(a), resumed.store().value(b));
            assert_eq!(ta.shape(), tb.shape());
            for (x, y) in ta.data().iter().zip(tb.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn params_only_checkpoint_rejected_by_resume() {
        let (_, mut pipe) = setup();
        let slots = temp_slots("pipe-params-only");
        slots.save("params only", pipe.store(), None).unwrap();
        let ckpt = slots.load().unwrap();
        std::fs::remove_dir_all(slots.dir()).ok();
        assert!(matches!(
            pipe.resume_from(ckpt),
            Err(PersistError::Format(_))
        ));
    }
}
