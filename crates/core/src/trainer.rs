//! The continuous-learning trainer (Algorithm 1) and the paper's
//! comparison training strategies.
//!
//! * [`Strategy::Urcl`] — the full framework: replay buffer + RMIR
//!   sampling + STMixup + spatio-temporal augmentation + STSimSiam with
//!   the GraphCL loss, optimising `L_all = L_task + L_ssl` (Eq. 29).
//! * [`Strategy::OneFitAll`] — train once on the base set, never update
//!   (the static-model strawman of Table II).
//! * [`Strategy::FinetuneSt`] — naive continual learning: fine-tune on
//!   each incremental set with no replay (Table II).
//!
//! The four ablations of Fig. 6 are expressed through [`Ablation`] flags.

use crate::augment::{Augmentation, AugmentedView};
use crate::ewc::EwcState;
use crate::metrics::Metrics;
use crate::mixup::{concat_replay, st_mixup};
use crate::replay::ReplayBuffer;
use crate::rmir::{rmir_sample, RmirStats};
use crate::simsiam::StSimSiam;
use urcl_graph::{SensorNetwork, SupportSet};
use urcl_json::{ToJson, Value};
use urcl_models::Backbone;
use urcl_stdata::{stack_samples, Batch, ContinualSplit, DatasetConfig, Sample};
use urcl_tensor::autodiff::{Session, Var};
use urcl_tensor::{trim_excess, Adam, AdamState, ExecPlan, ParamStore, Recording, Rng, Tensor};
use urcl_trace::Stopwatch;

/// Training strategy for streaming data (Section V-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Train on the base set only; incremental sets are never learned.
    OneFitAll,
    /// Fine-tune on every incremental set without replay.
    FinetuneSt,
    /// The full URCL framework.
    Urcl,
    /// Elastic Weight Consolidation: fine-tuning plus a quadratic
    /// penalty anchored at the previous period's parameters — the
    /// regularization-based continual-learning family of Section II-B,
    /// provided as an extension for comparison against replay.
    Ewc,
}

impl Strategy {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::OneFitAll => "OneFitAll",
            Strategy::FinetuneSt => "FinetuneST",
            Strategy::Urcl => "URCL",
            Strategy::Ewc => "EWC",
        }
    }
}

/// Component toggles for the ablation study (Fig. 6). All `true` is full
/// URCL; switching one off yields the corresponding w/o_* variant.
#[derive(Debug, Clone, Copy)]
pub struct Ablation {
    /// STMixup interpolation (off = w/o_STU: replay is concatenated).
    pub mixup: bool,
    /// RMIR sampling (off = w/o_RMIR: uniform replay sampling).
    pub rmir: bool,
    /// Spatio-temporal augmentation (off = w/o_STA: identical views).
    pub augmentation: bool,
    /// GraphCL self-supervised loss (off = w/o_GCL: task loss only).
    pub graphcl: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Self {
            mixup: true,
            rmir: true,
            augmentation: true,
            graphcl: true,
        }
    }
}

/// Hyperparameters of the continuous trainer.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Training strategy.
    pub strategy: Strategy,
    /// Component toggles (URCL strategy only).
    pub ablation: Ablation,
    /// Epochs on the base set.
    pub epochs_base: usize,
    /// Epochs on each incremental set (the paper observes faster
    /// convergence there — Fig. 8).
    pub epochs_incremental: usize,
    /// Minibatch size (also the GraphCL batch `S`).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Beta(α, α) concentration for STMixup.
    pub mixup_alpha: f32,
    /// Replay buffer capacity (256 in the paper).
    pub buffer_capacity: usize,
    /// RMIR candidate-pool size: how many buffer entries are scored for
    /// interference each step. The paper scans the whole buffer; scoring
    /// a random pool is a CPU-budget approximation (see DESIGN.md).
    pub rmir_pool: usize,
    /// RMIR interference short-list size |𝒩|.
    pub rmir_candidates: usize,
    /// GraphCL temperature τ.
    pub tau: f32,
    /// Weight of `L_ssl` in `L_all`. The paper sums the two losses
    /// (Eq. 29); at our reduced scale the contrastive term is an order of
    /// magnitude larger than the MAE term, so a fractional weight keeps
    /// the sum balanced.
    pub ssl_weight: f32,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// Keep every `window_stride`-th training window (1 = all).
    pub window_stride: usize,
    /// Fraction of each period used for training.
    pub train_ratio: f32,
    /// Fraction of each period used for validation.
    pub val_ratio: f32,
    /// EWC penalty strength λ (used by [`Strategy::Ewc`] only).
    pub ewc_lambda: f32,
    /// Batches used to estimate the EWC Fisher diagonal per period.
    pub ewc_fisher_batches: usize,
    /// RNG seed for shuffling, sampling and augmentation choices.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::Urcl,
            ablation: Ablation::default(),
            epochs_base: 8,
            epochs_incremental: 5,
            batch_size: 8,
            lr: 2e-3,
            mixup_alpha: 0.2,
            buffer_capacity: 256,
            rmir_pool: 48,
            rmir_candidates: 24,
            tau: 0.5,
            ssl_weight: 0.05,
            clip_norm: 2.0,
            window_stride: 2,
            train_ratio: 0.7,
            val_ratio: 0.1,
            ewc_lambda: 100.0,
            ewc_fisher_batches: 8,
            seed: 1,
        }
    }
}

/// Per-period results.
#[derive(Debug, Clone)]
pub struct SetReport {
    /// Period name (`B_set`, `I1_set`, …).
    pub name: String,
    /// Test MAE in physical units.
    pub mae: f32,
    /// Test RMSE in physical units.
    pub rmse: f32,
    /// Mean training seconds per epoch (0 when the period wasn't trained).
    pub train_seconds_per_epoch: f64,
    /// Epochs actually trained.
    pub epochs: usize,
    /// Mean inference seconds per observation (one window).
    pub infer_seconds_per_obs: f64,
    /// Mean total training loss per epoch (Fig. 8's convergence curve).
    pub loss_curve: Vec<f32>,
}

impl ToJson for SetReport {
    fn to_json(&self) -> Value {
        Value::object()
            .with("name", self.name.as_str())
            .with("mae", self.mae)
            .with("rmse", self.rmse)
            .with("train_seconds_per_epoch", self.train_seconds_per_epoch)
            .with("epochs", self.epochs)
            .with("infer_seconds_per_obs", self.infer_seconds_per_obs)
            .with("loss_curve", urcl_json::f32_array(&self.loss_curve))
    }
}

/// Full run results: one report per streaming period.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Backbone name.
    pub model: String,
    /// Strategy name.
    pub strategy: String,
    /// Reports in stream order (base set first).
    pub sets: Vec<SetReport>,
}

impl ToJson for RunReport {
    fn to_json(&self) -> Value {
        Value::object()
            .with("model", self.model.as_str())
            .with("strategy", self.strategy.as_str())
            .with(
                "sets",
                Value::Array(self.sets.iter().map(ToJson::to_json).collect()),
            )
    }
}

impl RunReport {
    /// Looks a period up by name.
    pub fn set(&self, name: &str) -> Option<&SetReport> {
        self.sets.iter().find(|s| s.name == name)
    }

    /// Mean MAE over the incremental sets only (the continual-learning
    /// figure of merit).
    pub fn incremental_mae(&self) -> f32 {
        let inc: Vec<f32> = self
            .sets
            .iter()
            .filter(|s| s.name != "B_set")
            .map(|s| s.mae)
            .collect();
        if inc.is_empty() {
            0.0
        } else {
            inc.iter().sum::<f32>() / inc.len() as f32
        }
    }
}

/// What a [`TrainHook`] tells the trainer to do after a callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Keep training.
    Continue,
    /// Stop cleanly at this boundary. The trainer returns
    /// [`RunOutcome::Paused`] with its full state intact, ready to be
    /// [`ContinualTrainer::snapshot`]ted and later resumed.
    Stop,
}

/// Context handed to [`TrainHook::after_step`] once per optimisation step.
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// Total optimisation steps taken across the whole run (1-based: the
    /// step just completed).
    pub global_step: u64,
    /// Streaming period index of this step.
    pub period: usize,
    /// Epoch index within the period.
    pub epoch: usize,
    /// Chunks completed so far in this epoch (1-based).
    pub step_in_epoch: usize,
    /// Total loss of the step just taken.
    pub loss: f32,
    /// Whether RMIR performed a virtual update + selection this step.
    pub rmir_ran: bool,
    /// Observations inserted into the replay buffer by this step.
    pub replay_inserted: usize,
    /// Replay-buffer occupancy after the step.
    pub replay_len: usize,
}

/// Observer with veto power over the training loop — the mechanism behind
/// step-budgeted training, periodic checkpointing and the kill/resume
/// fault-injection harness (`tests/crash_resume.rs`).
pub trait TrainHook {
    /// Called after every optimisation step (replay insert and RMIR
    /// bookkeeping included — the state is checkpoint-consistent here).
    fn after_step(&mut self, _info: &StepInfo) -> HookAction {
        HookAction::Continue
    }

    /// Called after a period finishes (trained, evaluated, reported).
    fn after_period(&mut self, _period: usize, _report: &SetReport) -> HookAction {
        HookAction::Continue
    }
}

/// A hook that never stops: plain uninterrupted training.
pub struct NoopHook;

impl TrainHook for NoopHook {}

/// Stops the run once a global-step budget is exhausted — the standard
/// way to park a trainer at a precise, resumable boundary.
pub struct StepBudget {
    budget: u64,
}

impl StepBudget {
    /// Stops after `budget` optimisation steps (counted from the start of
    /// the run, not from where it resumed).
    pub fn new(budget: u64) -> Self {
        Self { budget }
    }
}

impl TrainHook for StepBudget {
    fn after_step(&mut self, info: &StepInfo) -> HookAction {
        if info.global_step >= self.budget {
            HookAction::Stop
        } else {
            HookAction::Continue
        }
    }
}

/// Result of a hooked run: either it went to completion or a hook parked
/// it at a resumable boundary.
#[derive(Debug)]
pub enum RunOutcome {
    /// The full streaming protocol finished; here is the report.
    Completed(RunReport),
    /// A hook stopped the run. Trainer state is intact: snapshot it, or
    /// call [`ContinualTrainer::resume_with_hook`] to keep going.
    Paused,
}

/// Fine-grained position of a paused run inside the streaming protocol.
/// Everything needed to resume mid-epoch is here — including the
/// already-shuffled window order, whose RNG draws have been consumed.
#[derive(Debug, Clone, Default)]
pub struct TrainCursor {
    /// Current period index (number of fully completed periods).
    pub period: usize,
    /// Whether the current period has begun (its test windows joined the
    /// cumulative evaluation pool).
    pub started: bool,
    /// Completed epochs within the current period.
    pub epoch: usize,
    /// Completed chunks within the current epoch's `order`.
    pub step: usize,
    /// The current epoch's shuffled window order (valid only while
    /// `order_valid`).
    pub order: Vec<usize>,
    /// Whether `order` belongs to an in-flight epoch.
    pub order_valid: bool,
    /// Mean losses of the completed epochs of the current period.
    pub loss_curve: Vec<f32>,
    /// Summed loss over the current epoch's completed chunks.
    pub epoch_loss: f32,
    /// Chunks contributing to `epoch_loss`.
    pub batches: usize,
    /// Optimisation steps taken across the whole run.
    pub global_step: u64,
    /// Reports of the fully completed periods.
    pub sets: Vec<SetReport>,
}

/// A serializable snapshot of the trainer's complete mutable state. Pair
/// it with the [`ParamStore`] values and the run is resumable bit-for-bit
/// — see `crate::persist` for the on-disk v2 checkpoint format.
#[derive(Clone)]
pub struct TrainerSnapshot {
    /// xoshiro256++ state of the trainer's RNG stream.
    pub rng_state: [u64; 4],
    /// Adam step count and moment estimates.
    pub adam: AdamState,
    /// Replay-buffer capacity at snapshot time.
    pub replay_capacity: usize,
    /// Replay-buffer contents, oldest first.
    pub replay: Vec<Sample>,
    /// Cumulative RMIR selection statistics.
    pub rmir: RmirStats,
    /// Position inside the streaming protocol.
    pub cursor: TrainCursor,
}

/// Result of one optimisation step (internal).
struct StepOutcome {
    loss: f32,
    rmir_ran: bool,
    replay_inserted: usize,
}

/// Thread-local buffer-pool budget (f32 slots) enforced at period
/// boundaries: poly replays at unseen batch sizes retire odd-sized
/// buffers into the pool, and the quiesce-point trim bounds that residue.
const POOL_TRIM_BUDGET: usize = 4 << 20;

/// Drives a backbone through the streaming protocol.
pub struct ContinualTrainer {
    config: TrainerConfig,
    rng: Rng,
    buffer: ReplayBuffer,
    ewc: Option<EwcState>,
    opt: Adam,
    rmir_stats: RmirStats,
    cursor: TrainCursor,
    /// The step plan. Derived state: compiled on demand, dropped whenever
    /// its captured constants could go stale (run start, restore, EWC
    /// re-anchoring).
    step_plan: Option<ExecPlan>,
    /// Step plans compiled since construction.
    step_plan_compiles: u64,
    /// RMIR's θᵛ store (see `rmir.rs`). Derived state: dropped at run
    /// start and on restore.
    virtual_store: Option<ParamStore>,
    /// The backbone's task-loss plan: RMIR's virtual update and EWC's
    /// Fisher estimate replay it.
    task_loss: TaskLossPlan,
    /// The backbone's forward-only plan: RMIR's scoring passes and
    /// every evaluation replay it.
    forward: ForwardPlan,
    /// Whether a run's first period continues a stream whose base set
    /// was trained by an earlier run, so that it trains for
    /// `epochs_incremental` epochs too. [`crate::UrclPipeline`] sets it
    /// for every period after its first.
    pub(crate) continues_stream: bool,
}

impl ContinualTrainer {
    /// Creates a trainer (and its replay buffer) from a config.
    pub fn new(config: TrainerConfig) -> Self {
        let rng = Rng::seed_from_u64(config.seed);
        let buffer = ReplayBuffer::new(config.buffer_capacity);
        let opt = Adam::new(config.lr);
        Self {
            config,
            rng,
            buffer,
            ewc: None,
            opt,
            rmir_stats: RmirStats::default(),
            cursor: TrainCursor::default(),
            step_plan: None,
            step_plan_compiles: 0,
            virtual_store: None,
            task_loss: TaskLossPlan::default(),
            forward: ForwardPlan::default(),
            continues_stream: false,
        }
    }

    /// Read access to the replay buffer (diagnostics / tests).
    pub fn buffer(&self) -> &ReplayBuffer {
        &self.buffer
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Cumulative RMIR selection statistics for this trainer.
    pub fn rmir_stats(&self) -> RmirStats {
        self.rmir_stats
    }

    /// Step plans this trainer compiled since construction: at most one
    /// per validity window (a run, a restore, an EWC anchoring period).
    pub fn step_plan_compiles(&self) -> u64 {
        self.step_plan_compiles
    }

    /// Optimisation steps taken in the current (possibly paused) run.
    pub fn global_step(&self) -> u64 {
        self.cursor.global_step
    }

    /// The current resume position (diagnostics / persistence).
    pub fn cursor(&self) -> &TrainCursor {
        &self.cursor
    }

    /// Captures the trainer's complete mutable state. Together with the
    /// parameter values this is everything a fresh process needs to
    /// continue the run bitwise-identically.
    pub fn snapshot(&self) -> TrainerSnapshot {
        TrainerSnapshot {
            rng_state: self.rng.state(),
            adam: self.opt.export_state(),
            replay_capacity: self.buffer.capacity(),
            replay: self.buffer.iter().cloned().collect(),
            rmir: self.rmir_stats,
            cursor: self.cursor.clone(),
        }
    }

    /// Restores a [`Self::snapshot`] into this trainer (typically one
    /// freshly built from the same [`TrainerConfig`]). The caller is
    /// responsible for restoring the [`ParamStore`] values and replaying
    /// the same data split into [`Self::resume_with_hook`]; EWC state is
    /// not checkpointed (see DESIGN.md §9).
    pub fn restore(&mut self, snapshot: TrainerSnapshot) {
        self.rng = Rng::from_state(snapshot.rng_state);
        self.opt = Adam::new(self.config.lr);
        self.opt.import_state(snapshot.adam);
        self.buffer = ReplayBuffer::from_samples(snapshot.replay_capacity, snapshot.replay);
        self.rmir_stats = snapshot.rmir;
        self.cursor = snapshot.cursor;
        self.step_plan = None;
        self.virtual_store = None;
        self.task_loss.clear();
        self.forward.clear();
    }

    /// Runs the full streaming protocol over a *normalized* split,
    /// training and evaluating period by period (Algorithm 1).
    ///
    /// Evaluation is **cumulative**: after training on period `k`, the
    /// model is tested on the test slices of *all periods seen so far*
    /// (`B_set..I^k`). This measures exactly what the SSTP problem asks
    /// for — adapting to new data *while maximally preserving knowledge
    /// from previous sequences* — so a model that forgets old regimes
    /// scores poorly even if it fits the newest period.
    ///
    /// * `simsiam` — the STSimSiam head; required for the URCL strategy
    ///   unless `ablation.graphcl` is off.
    /// * `scale` — the target channel's min-max range, converting
    ///   normalized errors back to physical units.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        backbone: &dyn Backbone,
        simsiam: Option<&StSimSiam>,
        store: &mut ParamStore,
        net: &SensorNetwork,
        split: &ContinualSplit,
        data_cfg: &DatasetConfig,
        scale: f32,
    ) -> RunReport {
        match self.run_with_hook(
            backbone,
            simsiam,
            store,
            net,
            split,
            data_cfg,
            scale,
            &mut NoopHook,
        ) {
            RunOutcome::Completed(report) => report,
            RunOutcome::Paused => unreachable!("NoopHook never pauses a run"),
        }
    }

    /// [`Self::run`] with a [`TrainHook`] observing (and possibly pausing)
    /// the run. Starts from scratch: the cursor and optimizer are reset,
    /// but — exactly like `run` — the RNG stream and the replay buffer
    /// carry over from previous calls, which is what the streaming
    /// [`crate::pipeline::UrclPipeline`] relies on between periods.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_hook(
        &mut self,
        backbone: &dyn Backbone,
        simsiam: Option<&StSimSiam>,
        store: &mut ParamStore,
        net: &SensorNetwork,
        split: &ContinualSplit,
        data_cfg: &DatasetConfig,
        scale: f32,
        hook: &mut dyn TrainHook,
    ) -> RunOutcome {
        self.opt = Adam::new(self.config.lr);
        self.cursor = TrainCursor::default();
        self.step_plan = None;
        self.virtual_store = None;
        self.task_loss.clear();
        self.forward.clear();
        self.drive(backbone, simsiam, store, net, split, data_cfg, scale, hook)
    }

    /// Continues a paused or [`Self::restore`]d run from the current
    /// cursor. The caller must supply the same split (bit-identical data)
    /// the run originally consumed; data-derived state such as the
    /// cumulative evaluation pool is rebuilt from it deterministically.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_with_hook(
        &mut self,
        backbone: &dyn Backbone,
        simsiam: Option<&StSimSiam>,
        store: &mut ParamStore,
        net: &SensorNetwork,
        split: &ContinualSplit,
        data_cfg: &DatasetConfig,
        scale: f32,
        hook: &mut dyn TrainHook,
    ) -> RunOutcome {
        self.drive(backbone, simsiam, store, net, split, data_cfg, scale, hook)
    }

    /// The streaming protocol as an explicitly resumable state machine:
    /// every loop reads its position from `self.cursor`, so the run can
    /// stop at any step boundary and continue later — in this process or,
    /// via [`Self::snapshot`] / [`Self::restore`], in a new one.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &mut self,
        backbone: &dyn Backbone,
        simsiam: Option<&StSimSiam>,
        store: &mut ParamStore,
        net: &SensorNetwork,
        split: &ContinualSplit,
        data_cfg: &DatasetConfig,
        scale: f32,
        hook: &mut dyn TrainHook,
    ) -> RunOutcome {
        if self.config.strategy == Strategy::Urcl && self.config.ablation.graphcl {
            assert!(
                simsiam.is_some(),
                "URCL with GraphCL enabled needs an StSimSiam head"
            );
        }
        let periods = split.all_periods();
        assert!(
            self.cursor.period <= periods.len(),
            "cursor period {} beyond split ({} periods) — resumed with wrong data?",
            self.cursor.period,
            periods.len()
        );
        // Cumulative evaluation pool: test windows of every period seen.
        // Rebuilt deterministically for periods the cursor already began.
        let begun = self.cursor.period + usize::from(self.cursor.started);
        let mut seen_test_windows: Vec<Sample> = Vec::new();
        for period in periods.iter().take(begun) {
            let (_train, _val, test) =
                period.train_val_test(self.config.train_ratio, self.config.val_ratio);
            seen_test_windows.extend(test.windows(data_cfg));
        }

        while self.cursor.period < periods.len() {
            let pi = self.cursor.period;
            let period = periods[pi];
            let _period_sp = urcl_trace::span("period");
            let rmir_selected_before = urcl_trace::counter_value("rmir.selected");
            let (train, _val, test) =
                period.train_val_test(self.config.train_ratio, self.config.val_ratio);
            let all_train_windows = train.windows(data_cfg);
            let train_windows: Vec<Sample> = all_train_windows
                .into_iter()
                .step_by(self.config.window_stride.max(1))
                .collect();
            if !self.cursor.started {
                seen_test_windows.extend(test.windows(data_cfg));
                self.cursor.started = true;
            }
            // Evaluate on an even subsample so late-stream evaluations
            // don't dominate the run time.
            let test_windows = subsample(&seen_test_windows, 600);

            let train_this = !(self.config.strategy == Strategy::OneFitAll && pi > 0);
            let epochs = if !train_this {
                0
            } else if pi == 0 && !self.continues_stream {
                self.config.epochs_base
            } else {
                self.config.epochs_incremental
            };

            let mut train_watch = Stopwatch::new();
            while self.cursor.epoch < epochs {
                let _epoch_sp = urcl_trace::span("epoch");
                train_watch.start();
                if !self.cursor.order_valid {
                    let mut order: Vec<usize> = (0..train_windows.len()).collect();
                    self.rng.shuffle(&mut order);
                    self.cursor.order = order;
                    self.cursor.order_valid = true;
                    self.cursor.step = 0;
                    self.cursor.epoch_loss = 0.0;
                    self.cursor.batches = 0;
                }
                let batch = self.config.batch_size.max(1);
                let num_chunks = self.cursor.order.len().div_ceil(batch);
                while self.cursor.step < num_chunks {
                    let step_sp = urcl_trace::span("step");
                    let lo = self.cursor.step * batch;
                    let hi = (lo + batch).min(self.cursor.order.len());
                    let samples: Vec<&Sample> = self.cursor.order[lo..hi]
                        .iter()
                        .map(|&i| &train_windows[i])
                        .collect();
                    let outcome = self.train_step(backbone, simsiam, store, net, &samples);
                    self.cursor.epoch_loss += outcome.loss;
                    self.cursor.batches += 1;
                    self.cursor.step += 1;
                    self.cursor.global_step += 1;
                    drop(step_sp);
                    let info = StepInfo {
                        global_step: self.cursor.global_step,
                        period: pi,
                        epoch: self.cursor.epoch,
                        step_in_epoch: self.cursor.step,
                        loss: outcome.loss,
                        rmir_ran: outcome.rmir_ran,
                        replay_inserted: outcome.replay_inserted,
                        replay_len: self.buffer.len(),
                    };
                    if hook.after_step(&info) == HookAction::Stop {
                        train_watch.stop();
                        return RunOutcome::Paused;
                    }
                }
                train_watch.stop();
                self.cursor.loss_curve.push(if self.cursor.batches > 0 {
                    self.cursor.epoch_loss / self.cursor.batches as f32
                } else {
                    0.0
                });
                self.cursor.epoch += 1;
                self.cursor.order_valid = false;
                self.cursor.order.clear();
                self.cursor.step = 0;
            }

            // Regularization-based CL: anchor the parameters learned on
            // this period so the next period's updates stay close to them.
            if self.config.strategy == Strategy::Ewc && train_this && !train_windows.is_empty() {
                self.ewc = Some(EwcState::estimate(
                    backbone,
                    store,
                    &train_windows,
                    self.config.batch_size,
                    self.config.ewc_fisher_batches,
                    &mut self.task_loss,
                ));
                // The step plan captured the *previous* anchors as
                // constants; the new penalty needs a fresh compile. (RMIR's
                // and the forward plan carry no penalty and stay valid.)
                self.step_plan = None;
            }

            let (metrics, infer_per_obs) =
                evaluate(backbone, store, &test_windows, &mut self.forward);
            // Quiesce point: poly replays at odd batch sizes retire
            // odd-sized buffers; bound the pool residue before the next
            // period. Bitwise-neutral — the pool only recycles capacity.
            trim_excess(POOL_TRIM_BUDGET);
            let (mae, rmse) = metrics.scaled(scale);
            let loss_curve = std::mem::take(&mut self.cursor.loss_curve);
            if urcl_trace::enabled() {
                urcl_trace::gauge_set("replay.occupancy", self.buffer.len() as f64);
                urcl_trace::record_period(urcl_trace::PeriodRecord {
                    name: period.name.clone(),
                    mae,
                    rmse,
                    mape: metrics.mape(),
                    epochs,
                    train_seconds_per_epoch: train_watch.mean_seconds(),
                    mean_loss: loss_curve.last().copied().unwrap_or(0.0),
                    replay_len: self.buffer.len(),
                    replay_capacity: self.buffer.capacity(),
                    rmir_selected: urcl_trace::counter_value("rmir.selected")
                        - rmir_selected_before,
                });
            }
            self.cursor.sets.push(SetReport {
                name: period.name.clone(),
                mae,
                rmse,
                train_seconds_per_epoch: train_watch.mean_seconds(),
                epochs,
                infer_seconds_per_obs: infer_per_obs,
                loss_curve,
            });
            self.cursor.period += 1;
            self.cursor.started = false;
            self.cursor.epoch = 0;
            let report = self.cursor.sets.last().expect("just pushed");
            if hook.after_period(pi, report) == HookAction::Stop
                && self.cursor.period < periods.len()
            {
                return RunOutcome::Paused;
            }
        }

        let sets = std::mem::take(&mut self.cursor.sets);
        self.cursor = TrainCursor::default();
        RunOutcome::Completed(RunReport {
            model: backbone.name().to_string(),
            strategy: self.config.strategy.name().to_string(),
            sets,
        })
    }

    /// Records one full step graph over `inputs` (see [`step_inputs`]),
    /// which become the plan's inputs in that order: the MAE task loss
    /// (Eq. 28), with views the weighted SSL term (Eq. 29), and the EWC
    /// penalty under [`Strategy::Ewc`].
    fn record_step(
        &self,
        backbone: &dyn Backbone,
        simsiam: Option<&StSimSiam>,
        store: &ParamStore,
        inputs: &[&Tensor],
    ) -> Recording {
        Recording::training(store, |sess| {
            let vars: Vec<Var> = inputs.iter().map(|t| sess.input((*t).clone())).collect();
            let mut total = task_loss(backbone, sess, vars[0], vars[1]);
            if let [x1, x2, eye, off_mask, single, ref supports @ ..] = vars[2..] {
                let sim = simsiam.expect("SSL views need an StSimSiam head");
                let (s1, s2) = supports.split_at(supports.len() / 2);
                let graph = !supports.is_empty();
                let views = [(x1, graph.then_some(s1)), (x2, graph.then_some(s2))];
                let ssl = sim.loss_from_vars(sess, backbone, views, [eye, off_mask, single]);
                total = total.add(ssl.scale(self.config.ssl_weight));
            }
            if self.config.strategy == Strategy::Ewc {
                if let Some(state) = &self.ewc {
                    total = total.add(state.penalty(sess, store, self.config.ewc_lambda));
                }
            }
            (vars, total)
        })
    }

    /// Compiles a batch-polymorphic training plan for this step graph:
    /// the step is recorded at `b` and, over zero-filled shape proxies, at
    /// `b + 1` (see [`ExecPlan::compile_poly`], which panics when the
    /// backbone's graph is not batch-affine).
    fn compile_step_plan(
        &self,
        backbone: &dyn Backbone,
        simsiam: Option<&StSimSiam>,
        store: &ParamStore,
        batch: &Batch,
        views: Option<&(AugmentedView, AugmentedView)>,
    ) -> ExecPlan {
        let _compile_sp = urcl_trace::span("plan_compile");
        ExecPlan::compile_poly(batch.len(), |b| {
            let batch = Batch {
                x: batch.x.at_batch(b),
                y: batch.y.at_batch(b),
            };
            let views = views.map(|(v1, v2)| (v1.at_batch(b), v2.at_batch(b)));
            let masks = StSimSiam::contrastive_masks(b);
            let ssl = views.as_ref().map(|(v1, v2)| (v1, v2, &masks));
            let inputs = step_inputs(&batch, ssl, backbone.support_template());
            self.record_step(backbone, simsiam, store, &inputs)
        })
    }

    /// One optimisation step on a chunk of training windows.
    fn train_step(
        &mut self,
        backbone: &dyn Backbone,
        simsiam: Option<&StSimSiam>,
        store: &mut ParamStore,
        net: &SensorNetwork,
        chunk: &[&Sample],
    ) -> StepOutcome {
        let current = stack_samples(chunk);
        let is_urcl = self.config.strategy == Strategy::Urcl;
        let mut rmir_ran = false;
        urcl_trace::counter_inc("train.steps");

        // --- Data integration (Fig. 1 left): replay + STMixup. ---
        let train_batch = if is_urcl && !self.buffer.is_empty() {
            let _replay_sp = urcl_trace::span("replay");
            let select = current.len();
            let indices = if self.config.ablation.rmir {
                let _rmir_sp = urcl_trace::span("rmir");
                let pool = self.rng.sample_indices(
                    self.buffer.len(),
                    self.config.rmir_pool.min(self.buffer.len()),
                );
                let picked = rmir_sample(
                    &self.buffer,
                    &pool,
                    &current,
                    backbone,
                    store,
                    self.config.lr,
                    self.config.rmir_candidates,
                    select,
                    &mut self.virtual_store,
                    &mut self.task_loss,
                    &mut self.forward,
                );
                rmir_ran = true;
                self.rmir_stats.record_round(picked.len());
                picked
            } else {
                self.rng
                    .sample_indices(self.buffer.len(), select.min(self.buffer.len()))
            };
            urcl_trace::counter_add("replay.sampled", indices.len() as u64);
            let replayed = self.buffer.gather(&indices);
            if self.config.ablation.mixup {
                let _mixup_sp = urcl_trace::span("stmixup");
                st_mixup(&current, &replayed, self.config.mixup_alpha, &mut self.rng).0
            } else {
                concat_replay(&current, &replayed)
            }
        } else {
            current.clone()
        };

        // --- STCRL views (Fig. 1 top-right). ---
        let ssl_views = if is_urcl && self.config.ablation.graphcl && simsiam.is_some() {
            let _augment_sp = urcl_trace::span("augment");
            let (v1, v2) = if self.config.ablation.augmentation {
                // Supports at the backbone's own K; a backbone without a
                // template ignores them, so it gets none.
                let k = backbone.support_template().map(|s| s.forward.len());
                let (a1, a2) = Augmentation::sample_two(&mut self.rng);
                (
                    a1.apply(&train_batch.x, net, k, &mut self.rng),
                    a2.apply(&train_batch.x, net, k, &mut self.rng),
                )
            } else {
                (
                    AugmentedView {
                        x: train_batch.x.clone(),
                        supports: None,
                    },
                    AugmentedView {
                        x: train_batch.x.clone(),
                        supports: None,
                    },
                )
            };
            Some((v1, v2))
        } else {
            None
        };

        // --- Forward, L_all = L_task + L_ssl (Eq. 29), backward. ---
        //
        // Every step replays the one compiled step plan. It is
        // batch-polymorphic and takes everything the augmentation
        // randomizes — view signals, perturbed supports, contrastive
        // masks — as inputs, so one plan serves every draw and batch size.
        store.zero_grads();
        let masks = ssl_views
            .as_ref()
            .map(|_| StSimSiam::contrastive_masks(train_batch.len()));
        let ssl = ssl_views
            .as_ref()
            .zip(masks.as_ref())
            .map(|((v1, v2), masks)| (v1, v2, masks));
        let inputs = step_inputs(&train_batch, ssl, backbone.support_template());
        if self.step_plan.is_none() {
            self.step_plan = Some(self.compile_step_plan(
                backbone,
                simsiam,
                store,
                &train_batch,
                ssl_views.as_ref(),
            ));
            self.step_plan_compiles += 1;
        }
        let plan = self.step_plan.as_ref().expect("compiled above");
        let plan_sp = urcl_trace::span("plan_exec");
        let (loss, grads) = plan.run_training(store, &inputs);
        drop(plan_sp);
        {
            let _optim_sp = urcl_trace::span("optim");
            store.accumulate_grads(plan.bindings(), &grads);
            store.clip_grad_norm(self.config.clip_norm);
            self.opt.step(store);
        }

        // The buffer keeps the *original* observations (Section IV-B).
        let replay_inserted = if is_urcl {
            self.buffer.extend(chunk);
            chunk.len()
        } else {
            0
        };
        StepOutcome {
            loss: loss.item(),
            rmir_ran,
            replay_inserted,
        }
    }
}

/// The step plan's inputs, in the order
/// [`ContinualTrainer::record_step`] records them: `[x, y]`, then with SSL
/// `[x1, x2, eye, off_mask, single]` (the views and
/// [`StSimSiam::contrastive_masks`]) followed by each view's diffusion
/// supports, view 1's first. A backbone without a support template takes
/// none; otherwise a view that kept the original graph (temporal
/// transforms, augmentation off) binds the template, so every step binds
/// the same number.
fn step_inputs<'a>(
    batch: &'a Batch,
    ssl: Option<(&'a AugmentedView, &'a AugmentedView, &'a [Tensor; 3])>,
    template: Option<&'a SupportSet>,
) -> Vec<&'a Tensor> {
    let mut inputs = vec![&batch.x, &batch.y];
    if let Some((v1, v2, masks)) = ssl {
        inputs.extend([&v1.x, &v2.x]);
        inputs.extend(masks);
        if let Some(template) = template {
            for view in [v1, v2] {
                let set = view.supports.as_ref().unwrap_or(template);
                assert_eq!(
                    set.len(),
                    template.len(),
                    "a perturbed graph must keep the backbone's support count"
                );
                inputs.extend(set.all());
            }
        }
    }
    inputs
}

/// The task loss `MAE(f_θ(x), y)` of Eq. 28, recorded on `sess`.
fn task_loss<'t>(
    backbone: &dyn Backbone,
    sess: &mut Session<'t, '_>,
    x: Var<'t>,
    y: Var<'t>,
) -> Var<'t> {
    backbone.forward(sess, x).sub(y).abs().mean_all()
}

/// Evenly subsamples a window list down to at most `max` entries.
fn subsample(windows: &[Sample], max: usize) -> Vec<Sample> {
    if windows.len() <= max {
        return windows.to_vec();
    }
    let stride = windows.len() as f32 / max as f32;
    (0..max)
        .map(|i| windows[(i as f32 * stride) as usize].clone())
        .collect()
}

/// A backbone's forward-only plan ([`Backbone::compile_forward`]),
/// compiled on first use. It compiles batch-polymorphic, so one compile
/// serves every batch size; plans resolve parameters at replay, so it
/// survives every update. A [`ContinualTrainer`] owns one, and RMIR's
/// scoring passes and [`evaluate`] both replay it. Derived state: the
/// trainer drops it at run start and on restore.
#[derive(Default)]
pub struct ForwardPlan(Option<ExecPlan>);

impl ForwardPlan {
    /// The plan, compiled from input `x` on first use.
    pub fn plan(&mut self, backbone: &dyn Backbone, store: &ParamStore, x: &Tensor) -> &ExecPlan {
        self.0.get_or_insert_with(|| {
            let _compile_sp = urcl_trace::span("plan_compile");
            backbone.compile_forward(store, x)
        })
    }

    /// Drops the plan; the next [`Self::plan`] call recompiles.
    pub fn clear(&mut self) {
        self.0 = None;
    }
}

/// The backbone's task-loss training plan, `MAE(f_θ(x), y)` (Eq. 28) over
/// inputs `[x, y]`, compiled batch-polymorphic on first use. A
/// [`ContinualTrainer`] owns one: RMIR's virtual update and EWC's Fisher
/// estimate both replay it. Plans resolve parameters at replay, so it
/// survives every update. Derived state: the trainer drops it at run
/// start and on restore.
#[derive(Default)]
pub struct TaskLossPlan(Option<ExecPlan>);

impl TaskLossPlan {
    /// The plan, compiled from `batch` on first use.
    pub fn plan(
        &mut self,
        backbone: &dyn Backbone,
        store: &ParamStore,
        batch: &Batch,
    ) -> &ExecPlan {
        self.0.get_or_insert_with(|| {
            let _compile_sp = urcl_trace::span("plan_compile");
            ExecPlan::compile_poly(batch.len(), |b| {
                Recording::training(store, |sess| {
                    let x = sess.input(batch.x.at_batch(b));
                    let y = sess.input(batch.y.at_batch(b));
                    let loss = task_loss(backbone, sess, x, y);
                    (vec![x, y], loss)
                })
            })
        })
    }

    /// Drops the plan; the next [`Self::plan`] call recompiles.
    pub fn clear(&mut self) {
        self.0 = None;
    }
}

/// Evaluates a backbone on test windows through `forward`; returns
/// accumulated metrics in normalized space and the mean inference
/// seconds per observation. Compiles happen outside the stopwatch, which
/// times inference only.
pub fn evaluate(
    backbone: &dyn Backbone,
    store: &ParamStore,
    windows: &[Sample],
    forward: &mut ForwardPlan,
) -> (Metrics, f64) {
    let mut metrics = Metrics::new();
    if windows.is_empty() {
        return (metrics, 0.0);
    }
    let _eval_sp = urcl_trace::span("eval");
    let mut watch = Stopwatch::new();
    for chunk in windows.chunks(32) {
        let batch = stack_samples(chunk);
        let plan = forward.plan(backbone, store, &batch.x);
        watch.start();
        let pred = plan.run_forward(store, &[&batch.x]).remove(0);
        watch.stop();
        metrics.update(&pred, &batch.y);
    }
    let per_obs = watch.total_seconds() / windows.len() as f64;
    (metrics, per_obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_models::{
        Agcrn, BackboneConfig, Dcrnn, GeoMan, GraphWaveNet, GwnConfig, Mtgnn, Stgcn, Stgode,
    };
    use urcl_stdata::SyntheticDataset;

    fn tiny_setup() -> (SyntheticDataset, ContinualSplit, f32, SensorNetwork) {
        let ds = SyntheticDataset::generate(urcl_stdata::DatasetConfig::metr_la().tiny());
        let norm = ds.fit_normalizer();
        let split = ds.continual_split(2);
        let normalized = ContinualSplit {
            base: split.base.normalized(&norm),
            incremental: split
                .incremental
                .iter()
                .map(|p| p.normalized(&norm))
                .collect(),
        };
        let scale = norm.scale(ds.config.target_channel);
        let net = ds.network.clone();
        (ds, normalized, scale, net)
    }

    fn quick_config(strategy: Strategy) -> TrainerConfig {
        TrainerConfig {
            strategy,
            epochs_base: 2,
            epochs_incremental: 1,
            batch_size: 6,
            window_stride: 8,
            rmir_candidates: 12,
            ..TrainerConfig::default()
        }
    }

    fn build_model(
        ds: &SyntheticDataset,
        net: &SensorNetwork,
    ) -> (ParamStore, GraphWaveNet, StSimSiam) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(5);
        let mut cfg = GwnConfig::small(
            ds.config.num_nodes,
            ds.config.num_channels(),
            ds.config.input_steps,
            ds.config.output_steps,
        );
        cfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, net, cfg);
        let sim = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);
        (store, model, sim)
    }

    #[test]
    fn urcl_run_produces_reports_and_fills_buffer() {
        let (ds, split, scale, net) = tiny_setup();
        let (mut store, model, sim) = build_model(&ds, &net);
        let mut trainer = ContinualTrainer::new(quick_config(Strategy::Urcl));
        let report = trainer.run(
            &model,
            Some(&sim),
            &mut store,
            &net,
            &split,
            &ds.config,
            scale,
        );
        assert_eq!(report.sets.len(), 3); // base + 2 incremental
        assert_eq!(report.strategy, "URCL");
        assert!(!trainer.buffer().is_empty(), "buffer never filled");
        for set in &report.sets {
            assert!(set.mae.is_finite() && set.mae >= 0.0);
            assert!(set.rmse >= set.mae * 0.99);
            assert!(!set.loss_curve.is_empty());
        }
    }

    /// The seven deep backbones, each with an STSimSiam head over its
    /// latent features.
    fn deep_backbones(
        ds: &SyntheticDataset,
        net: &SensorNetwork,
    ) -> Vec<(Box<dyn Backbone>, ParamStore, StSimSiam)> {
        let base = BackboneConfig::small(
            ds.config.num_nodes,
            ds.config.num_channels(),
            ds.config.input_steps,
            ds.config.output_steps,
        );
        let (store, gwn, sim) = build_model(ds, net);
        let mut out: Vec<(Box<dyn Backbone>, ParamStore, StSimSiam)> =
            vec![(Box::new(gwn), store, sim)];
        type Build<'a> = Box<dyn Fn(&mut ParamStore, &mut Rng) -> Box<dyn Backbone> + 'a>;
        let builds: [Build<'_>; 6] = [
            Box::new(|s, r| Box::new(Dcrnn::new(s, r, net, base.clone(), 2))),
            Box::new(|s, r| Box::new(Stgcn::new(s, r, net, base.clone(), 2, 3))),
            Box::new(|s, r| Box::new(Mtgnn::new(s, r, base.clone(), 4))),
            Box::new(|s, r| Box::new(Agcrn::new(s, r, base.clone(), 4))),
            Box::new(|s, r| Box::new(Stgode::new(s, r, net, base.clone(), 3, 0.3))),
            Box::new(|s, r| Box::new(GeoMan::new(s, r, base.clone()))),
        ];
        for build in builds {
            let mut store = ParamStore::new();
            let mut rng = Rng::seed_from_u64(5);
            let model = build(&mut store, &mut rng);
            let sim = StSimSiam::new(&mut store, &mut rng, base.latent, 16, 0.5);
            out.push((model, store, sim));
        }
        out
    }

    /// The trainer's own step plan, driven through `compile_step_plan`
    /// and `step_inputs` over draws of every augmentation variant at batch
    /// sizes 1–5, reproduces `record_step` + `Tape::backward` bit for bit
    /// — the loss and every parameter gradient — through ONE compiled
    /// plan per backbone, for every deep backbone. The plan is compiled at
    /// batch 2; batch 1, where the GraphCL loss has no negatives, replays
    /// it like every other size. This pins that `step_inputs` lists the
    /// inputs in recording order (`TimeShift` views bind the support
    /// template) and that each backbone's graph is batch-polymorphic.
    #[test]
    fn step_plan_replays_every_augmentation_like_a_fresh_recording() {
        let (ds, split, _scale, net) = tiny_setup();
        let trainer = ContinualTrainer::new(quick_config(Strategy::Urcl));
        let (train, _, _) = split.base.train_val_test(0.7, 0.1);
        let windows = train.windows(&ds.config);
        let variants = Augmentation::default_set();
        for (model, store, sim) in deep_backbones(&ds, &net) {
            let name = model.name();
            let k = model.support_template().map(|s| s.forward.len());
            let mut rng = Rng::seed_from_u64(71);
            let mut compiled: Option<ExecPlan> = None;
            for i in 0..2 * variants.len() {
                let b = 1 + (i + 1) % 5;
                let batch = stack_samples(&windows[i..i + b]);
                let views = (
                    variants[i % variants.len()].apply(&batch.x, &net, k, &mut rng),
                    variants[(i + 1) % variants.len()].apply(&batch.x, &net, k, &mut rng),
                );
                let masks = StSimSiam::contrastive_masks(b);
                let inputs = step_inputs(
                    &batch,
                    Some((&views.0, &views.1, &masks)),
                    model.support_template(),
                );
                let plan = compiled.get_or_insert_with(|| {
                    trainer.compile_step_plan(
                        model.as_ref(),
                        Some(&sim),
                        &store,
                        &batch,
                        Some(&views),
                    )
                });
                assert!(
                    plan.accepts(&inputs),
                    "{name} point {i}: plan rejected batch {b}"
                );
                let (loss, grads) = plan.run_training(&store, &inputs);

                let rec = trainer.record_step(model.as_ref(), Some(&sim), &store, &inputs);
                let root = rec.tape.var(rec.root.expect("training recording"));
                let ref_grads = rec.tape.backward(root);
                assert_eq!(
                    loss.item().to_bits(),
                    root.value().item().to_bits(),
                    "{name} point {i} (batch {b}): replay loss diverged from the recording"
                );
                assert_eq!(
                    plan.bindings(),
                    &rec.bindings[..],
                    "{name} point {i}: bindings"
                );
                for &(id, idx) in plan.bindings() {
                    let bits = |g: Option<&Tensor>| -> Vec<u32> {
                        g.expect("bound parameter has a gradient")
                            .data()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    };
                    assert_eq!(
                        bits(grads.by_index(idx)),
                        bits(ref_grads.by_index(idx)),
                        "{name} point {i} (batch {b}): gradient of {} diverged from the recording",
                        store.name(id)
                    );
                }
            }
        }
    }

    /// A tiny augmented run compiles its step plan once: one
    /// batch-polymorphic plan serves every draw and batch size, and the
    /// trainer's own compile count says so.
    #[test]
    fn augmented_run_compiles_one_step_plan() {
        let (ds, split, scale, net) = tiny_setup();
        let (mut store, model, sim) = build_model(&ds, &net);
        let mut trainer = ContinualTrainer::new(TrainerConfig {
            epochs_base: 1,
            window_stride: 16,
            ..quick_config(Strategy::Urcl)
        });
        assert!(trainer.config().ablation.augmentation);
        trainer.run(
            &model,
            Some(&sim),
            &mut store,
            &net,
            &split,
            &ds.config,
            scale,
        );
        assert_eq!(trainer.step_plan_compiles(), 1);
    }

    /// An augmented run whose base epoch ends in a one-window chunk, an
    /// SSL step whose GraphCL loss has no negatives, replays one step plan
    /// on every step. The run pauses before that chunk and resumes in a
    /// fresh trainer, whose first step is the chunk: it compiles the plan
    /// at batch 1, and the rest of the run replays that plan.
    #[test]
    fn one_window_chunk_replays_the_one_step_plan() {
        let (ds, split, scale, net) = tiny_setup();
        let (mut store, model, sim) = build_model(&ds, &net);
        let cfg = TrainerConfig {
            epochs_base: 1,
            window_stride: 16,
            ..quick_config(Strategy::Urcl)
        };
        let (train, _, _) = split.base.train_val_test(cfg.train_ratio, cfg.val_ratio);
        let windows = train.windows(&ds.config).len().div_ceil(cfg.window_stride);
        let batch_size = (2..windows)
            .find(|b| windows % b == 1)
            .expect("a batch size that leaves one window");
        let cfg = TrainerConfig { batch_size, ..cfg };
        let chunks = windows.div_ceil(batch_size) as u64;
        let mut run = |trainer: &mut ContinualTrainer, hook: &mut dyn TrainHook, resume| {
            let f = if resume {
                ContinualTrainer::resume_with_hook
            } else {
                ContinualTrainer::run_with_hook
            };
            f(
                trainer,
                &model,
                Some(&sim),
                &mut store,
                &net,
                &split,
                &ds.config,
                scale,
                hook,
            )
        };
        let mut first = ContinualTrainer::new(cfg.clone());
        let paused = run(&mut first, &mut StepBudget::new(chunks - 1), false);
        assert!(matches!(paused, RunOutcome::Paused));
        let mut resumed = ContinualTrainer::new(cfg);
        resumed.restore(first.snapshot());
        let paused = run(&mut resumed, &mut StepBudget::new(chunks), true);
        assert!(matches!(paused, RunOutcome::Paused));
        assert_eq!(resumed.global_step(), chunks);
        assert_eq!(resumed.step_plan_compiles(), 1, "the one-window step");
        let done = run(&mut resumed, &mut NoopHook, true);
        assert!(matches!(done, RunOutcome::Completed(_)));
        assert_eq!(first.step_plan_compiles(), 1);
        assert_eq!(resumed.step_plan_compiles(), 1);
    }

    #[test]
    fn onefitall_skips_incremental_training() {
        let (ds, split, scale, net) = tiny_setup();
        let (mut store, model, _sim) = build_model(&ds, &net);
        let mut trainer = ContinualTrainer::new(quick_config(Strategy::OneFitAll));
        let report = trainer.run(&model, None, &mut store, &net, &split, &ds.config, scale);
        assert_eq!(report.sets[0].epochs, 2);
        assert_eq!(report.sets[1].epochs, 0);
        assert_eq!(report.sets[2].epochs, 0);
        assert!(trainer.buffer().is_empty(), "OneFitAll must not use replay");
    }

    #[test]
    fn finetune_trains_every_set_without_buffer() {
        let (ds, split, scale, net) = tiny_setup();
        let (mut store, model, _sim) = build_model(&ds, &net);
        let mut trainer = ContinualTrainer::new(quick_config(Strategy::FinetuneSt));
        let report = trainer.run(&model, None, &mut store, &net, &split, &ds.config, scale);
        assert!(report.sets.iter().all(|s| s.epochs > 0));
        assert!(trainer.buffer().is_empty());
    }

    #[test]
    fn ablation_flags_disable_components() {
        let (ds, split, scale, net) = tiny_setup();
        let (mut store, model, _sim) = build_model(&ds, &net);
        let mut cfg = quick_config(Strategy::Urcl);
        cfg.ablation = Ablation {
            mixup: false,
            rmir: false,
            augmentation: false,
            graphcl: false,
        };
        let mut trainer = ContinualTrainer::new(cfg);
        // No simsiam needed once GraphCL is off.
        let report = trainer.run(&model, None, &mut store, &net, &split, &ds.config, scale);
        assert_eq!(report.sets.len(), 3);
        assert!(!trainer.buffer().is_empty());
    }

    #[test]
    #[should_panic(expected = "needs an StSimSiam head")]
    fn urcl_with_graphcl_requires_simsiam() {
        let (ds, split, scale, net) = tiny_setup();
        let (mut store, model, _sim) = build_model(&ds, &net);
        let mut trainer = ContinualTrainer::new(quick_config(Strategy::Urcl));
        let _ = trainer.run(&model, None, &mut store, &net, &split, &ds.config, scale);
    }

    #[test]
    fn incremental_mae_summary() {
        let report = RunReport {
            model: "m".into(),
            strategy: "s".into(),
            sets: vec![
                SetReport {
                    name: "B_set".into(),
                    mae: 10.0,
                    rmse: 12.0,
                    train_seconds_per_epoch: 0.0,
                    epochs: 1,
                    infer_seconds_per_obs: 0.0,
                    loss_curve: vec![],
                },
                SetReport {
                    name: "I1_set".into(),
                    mae: 2.0,
                    rmse: 3.0,
                    train_seconds_per_epoch: 0.0,
                    epochs: 1,
                    infer_seconds_per_obs: 0.0,
                    loss_curve: vec![],
                },
                SetReport {
                    name: "I2_set".into(),
                    mae: 4.0,
                    rmse: 5.0,
                    train_seconds_per_epoch: 0.0,
                    epochs: 1,
                    infer_seconds_per_obs: 0.0,
                    loss_curve: vec![],
                },
            ],
        };
        assert!((report.incremental_mae() - 3.0).abs() < 1e-6);
        assert_eq!(report.set("I1_set").unwrap().mae, 2.0);
        assert!(report.set("nope").is_none());
    }
}
