//! Kill/resume fault injection: crash-safe resumable streaming training.
//!
//! The contract under test: a training process killed at *any* step
//! boundary, restarted from its v2 checkpoint in a fresh world (different
//! init seed, nothing shared in memory), finishes the stream
//! **bitwise-identically** to a never-interrupted run — same final
//! parameters, same replay-buffer contents and occupancy, same MAE.
//!
//! Protocol:
//!
//! 1. Run a tiny URCL pipeline to completion once, recording every
//!    [`StepInfo`] — this yields the reference result and the set of kill
//!    points, and proves the kill set covers the adversarial boundaries
//!    (mid-period steps, steps right after an RMIR virtual update, steps
//!    right after replay inserts).
//! 2. For every step boundary `k`, re-run with a [`StepBudget`] of `k`
//!    (the "kill"), write a full checkpoint through the atomic
//!    [`CheckpointDir`] rotation, rebuild the world from nothing, restore
//!    from disk, resume, and compare against the reference bit for bit.
//! 3. Separately, tear the `latest` checkpoint mid-file and verify the
//!    rotation falls back to `previous` and *still* resumes bitwise.

use urcl::core::persist::copy_store_checked;
use urcl::core::{
    Ablation, CheckpointDir, ContinualTrainer, HookAction, NoopHook, PipelineState, RunOutcome,
    RunReport, StSimSiam, StepBudget, StepInfo, TrainHook, TrainerConfig,
};
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{ParamStore, Rng};

/// Everything one training process owns. Rebuilt from scratch for every
/// resumed run so no state can leak around the checkpoint.
struct World {
    dataset: SyntheticDataset,
    split: ContinualSplit,
    scale: f32,
    store: ParamStore,
    model: GraphWaveNet,
    simsiam: StSimSiam,
    trainer: ContinualTrainer,
}

impl World {
    /// `init_seed` drives model init and the trainer RNG. The reference
    /// world and resumed worlds use *different* seeds — every bit they
    /// end up agreeing on must therefore have come through the
    /// checkpoint.
    fn new(init_seed: u64) -> Self {
        Self::with_augmentation(init_seed, true)
    }

    /// Like [`Self::new`], but with spatio-temporal augmentation
    /// switchable (off is the paper's w/o_STA ablation). Augmentation
    /// does not decide the execution engine — augmented draws bind to
    /// the step plan's inputs — so both settings replay the one step
    /// plan.
    fn with_augmentation(init_seed: u64, augmentation: bool) -> Self {
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
        let mut rng = Rng::seed_from_u64(init_seed);
        let mut gcfg = GwnConfig::small(
            dataset.config.num_nodes,
            dataset.config.num_channels(),
            dataset.config.input_steps,
            dataset.config.output_steps,
        );
        gcfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, gcfg);
        let simsiam = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);
        let trainer = ContinualTrainer::new(TrainerConfig {
            epochs_base: 1,
            epochs_incremental: 1,
            window_stride: 6,
            buffer_capacity: 16,
            rmir_pool: 8,
            rmir_candidates: 4,
            seed: init_seed,
            ablation: Ablation {
                augmentation,
                ..Ablation::default()
            },
            ..TrainerConfig::default()
        });
        Self {
            dataset,
            split,
            scale,
            store,
            model,
            simsiam,
            trainer,
        }
    }

    fn run_to_completion(&mut self, hook: &mut dyn TrainHook) -> RunOutcome {
        self.trainer.run_with_hook(
            &self.model,
            Some(&self.simsiam),
            &mut self.store,
            &self.dataset.network,
            &self.split,
            &self.dataset.config,
            self.scale,
            hook,
        )
    }

    fn resume(&mut self, hook: &mut dyn TrainHook) -> RunOutcome {
        self.trainer.resume_with_hook(
            &self.model,
            Some(&self.simsiam),
            &mut self.store,
            &self.dataset.network,
            &self.split,
            &self.dataset.config,
            self.scale,
            hook,
        )
    }
}

/// Records every step so the test knows the kill points and which of them
/// sit on adversarial boundaries.
#[derive(Default)]
struct Recorder {
    steps: Vec<StepInfo>,
}

impl TrainHook for Recorder {
    fn after_step(&mut self, info: &StepInfo) -> HookAction {
        self.steps.push(info.clone());
        HookAction::Continue
    }
}

fn assert_params_bitwise_equal(a: &ParamStore, b: &ParamStore, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: parameter count");
    for (ia, ib) in a.ids().zip(b.ids()) {
        assert_eq!(a.name(ia), b.name(ib), "{ctx}: parameter order");
        let (ta, tb) = (a.value(ia), b.value(ib));
        assert_eq!(ta.shape(), tb.shape(), "{ctx}: {}", a.name(ia));
        for (i, (x, y)) in ta.data().iter().zip(tb.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: {}[{i}]: {x} vs {y}",
                a.name(ia)
            );
        }
    }
}

fn assert_reports_bitwise_equal(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.sets.len(), b.sets.len(), "{ctx}: period count");
    for (sa, sb) in a.sets.iter().zip(&b.sets) {
        assert_eq!(sa.name, sb.name, "{ctx}");
        assert_eq!(sa.mae.to_bits(), sb.mae.to_bits(), "{ctx}: {} MAE", sa.name);
        assert_eq!(
            sa.rmse.to_bits(),
            sb.rmse.to_bits(),
            "{ctx}: {} RMSE",
            sa.name
        );
        assert_eq!(sa.epochs, sb.epochs, "{ctx}: {} epochs", sa.name);
        assert_eq!(
            sa.loss_curve
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            sb.loss_curve
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "{ctx}: {} loss curve",
            sa.name
        );
    }
}

/// Kills the reference world at step `kill_at`, checkpoints it into `dir`,
/// and returns the checkpoint size in bytes.
fn kill_and_checkpoint(dir: &CheckpointDir, kill_at: u64) -> u64 {
    kill_and_checkpoint_world(dir, kill_at, World::new(21))
}

fn kill_and_checkpoint_world(dir: &CheckpointDir, kill_at: u64, mut world: World) -> u64 {
    let outcome = world.run_to_completion(&mut StepBudget::new(kill_at));
    assert!(
        matches!(outcome, RunOutcome::Paused),
        "step budget {kill_at} should pause the run"
    );
    assert_eq!(world.trainer.global_step(), kill_at);
    let state = PipelineState {
        trainer: world.trainer.snapshot(),
        normalizer: None,
        periods_seen: 0,
    };
    dir.save(
        &format!("killed at step {kill_at}"),
        &world.store,
        Some(&state),
    )
    .expect("atomic save")
}

/// Restores a fresh differently-seeded world from `dir` and drives it to
/// completion.
fn resume_from_disk(dir: &CheckpointDir) -> (World, RunReport) {
    resume_from_disk_world(dir, World::new(777))
}

fn resume_from_disk_world(dir: &CheckpointDir, mut world: World) -> (World, RunReport) {
    let ckpt = dir.load().expect("checkpoint loads");
    let state = ckpt.pipeline.as_ref().expect("full-pipeline checkpoint");
    copy_store_checked(&ckpt.store, &mut world.store).expect("layouts match");
    world.trainer.restore(state.trainer.clone());
    match world.resume(&mut NoopHook) {
        RunOutcome::Completed(report) => (world, report),
        RunOutcome::Paused => panic!("NoopHook cannot pause a resumed run"),
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("urcl-crash-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn kill_at_every_step_boundary_resumes_bitwise() {
    // Reference: one uninterrupted run.
    let mut reference = World::new(21);
    let mut recorder = Recorder::default();
    let ref_report = match reference.run_to_completion(&mut recorder) {
        RunOutcome::Completed(report) => report,
        RunOutcome::Paused => panic!("recorder never pauses"),
    };
    // The cursor resets when a run completes, so the step count comes
    // from the recorder.
    let total_steps = recorder.steps.last().expect("run trained").global_step;
    assert_eq!(recorder.steps.len() as u64, total_steps);
    assert!(
        (4..=24).contains(&total_steps),
        "harness sized for a handful of steps, got {total_steps}"
    );

    // The kill set must cover the adversarial boundaries: a mid-period
    // step (not the last of its period), a step right after an RMIR
    // virtual update, and a step right after a replay insert.
    assert!(
        recorder
            .steps
            .windows(2)
            .any(|w| w[0].period == w[1].period),
        "no mid-period step boundary in the kill set"
    );
    assert!(
        recorder.steps.iter().any(|s| s.rmir_ran),
        "no step exercised RMIR — the harness would miss that state"
    );
    assert!(
        recorder.steps.iter().any(|s| s.replay_inserted > 0),
        "no step inserted into the replay buffer"
    );
    let ref_snapshot = reference.trainer.snapshot();
    assert!(!ref_snapshot.replay.is_empty(), "replay buffer ended empty");

    // Kill at every step boundary; the last boundary is the final step,
    // where resume only has evaluation left to do.
    for kill_at in 1..=total_steps {
        let dir_path = scratch_dir(&format!("step{kill_at}"));
        let dir = CheckpointDir::new(&dir_path).unwrap();
        let bytes = kill_and_checkpoint(&dir, kill_at);
        assert!(bytes > 0);
        let (world, report) = resume_from_disk(&dir);
        std::fs::remove_dir_all(&dir_path).ok();

        let ctx = format!("kill at step {kill_at}/{total_steps}");
        assert_params_bitwise_equal(&reference.store, &world.store, &ctx);
        assert_reports_bitwise_equal(&ref_report, &report, &ctx);

        let snap = world.trainer.snapshot();
        assert_eq!(
            snap.replay.len(),
            ref_snapshot.replay.len(),
            "{ctx}: occupancy"
        );
        for (i, (a, b)) in ref_snapshot.replay.iter().zip(&snap.replay).enumerate() {
            assert_eq!(a.x.data(), b.x.data(), "{ctx}: replay sample {i} diverged");
        }
        assert_eq!(snap.rng_state, ref_snapshot.rng_state, "{ctx}: RNG stream");
        assert_eq!(snap.adam.t, ref_snapshot.adam.t, "{ctx}: Adam step count");
        assert_eq!(
            world.trainer.rmir_stats(),
            reference.trainer.rmir_stats(),
            "{ctx}: RMIR statistics"
        );
    }
}

#[test]
fn torn_latest_checkpoint_falls_back_to_previous_and_resumes_bitwise() {
    // Reference result for comparison.
    let mut reference = World::new(21);
    let ref_report = match reference.run_to_completion(&mut NoopHook) {
        RunOutcome::Completed(report) => report,
        RunOutcome::Paused => panic!(),
    };

    let dir_path = scratch_dir("torn");
    let dir = CheckpointDir::new(&dir_path).unwrap();

    // Two checkpoints: step 1 (rotated to `previous`), then step 2.
    kill_and_checkpoint(&dir, 1);
    kill_and_checkpoint(&dir, 2);

    // The process dies mid-write of a third save: `latest` is torn.
    let text = std::fs::read_to_string(dir.latest_path()).unwrap();
    std::fs::write(dir.latest_path(), &text[..text.len() / 3]).unwrap();

    // Load falls back to `previous` (the step-1 checkpoint) and the
    // resumed run still matches the reference bit for bit.
    let ckpt = dir.load().expect("fallback to previous");
    assert!(ckpt.description.contains("step 1"), "{}", ckpt.description);
    let (world, report) = resume_from_disk(&dir);
    std::fs::remove_dir_all(&dir_path).ok();

    assert_params_bitwise_equal(&reference.store, &world.store, "torn fallback");
    assert_reports_bitwise_equal(&ref_report, &report, "torn fallback");
}
