//! Serving-side fault injection on the crash harness's checkpoint
//! rotation: hot-swap correctness and trainer-killed-mid-publish
//! robustness.
//!
//! The contract under test extends `crash_resume`'s to the inference
//! tier: a serving process watching the trainer's [`CheckpointDir`]
//! must, after any swap, predict **bitwise-identically** to a fresh
//! process that cold-loads the same checkpoint; and when the trainer is
//! killed mid-publish (a torn `latest.ckpt`), the server must fall back
//! to `previous` — or, if nothing on disk parses, keep serving its
//! in-memory snapshot untouched.

use urcl::core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl::serve::{BatchPolicy, ServeConfig, ServeError, TenantClient, Tenants};
use urcl::stdata::{DatasetConfig, SyntheticDataset};
use urcl::tensor::Tensor;

/// One "trainer process": a pipeline over the tiny dataset whose
/// initial weights are derived from `seed`, with fitted normalizer
/// statistics, ready to publish checkpoints. No actual gradient steps
/// are needed — distinct seeds give distinct weights, which is all the
/// swap tests require.
struct Trainer {
    ds: SyntheticDataset,
    pipe: UrclPipeline,
}

impl Trainer {
    fn new(seed: u64) -> Self {
        let mut cfg = DatasetConfig::metr_la().tiny();
        cfg.num_days = 3;
        let ds = SyntheticDataset::generate(cfg);
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            TrainerConfig::default(),
            seed,
        );
        pipe.observe_period_statistics_only(&ds.continual_split(2).base.series);
        Self { ds, pipe }
    }

    fn publish(&self, slots: &CheckpointDir, label: &str) {
        self.pipe.save_checkpoint(slots, label).unwrap();
    }

    fn window(&self, offset: usize) -> Tensor {
        self.ds
            .continual_split(2)
            .base
            .series
            .narrow(0, offset, self.ds.config.input_steps)
    }

    /// A serving process: a one-tenant registry over `slots` and the
    /// tenant's client. Dropping the registry drains the tenant.
    fn server(&self, slots: CheckpointDir) -> (Tenants, TenantClient) {
        let (model, template) = UrclPipeline::serving_parts(
            &self.ds.network,
            &self.ds.config,
            &TrainerConfig::default(),
        );
        let tenants = Tenants::new();
        let client = tenants
            .add(
                "metr-la",
                model,
                template,
                slots,
                ServeConfig {
                    policy: BatchPolicy::default(),
                    target_channel: self.ds.config.target_channel,
                    workers: 1,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        (tenants, client)
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("urcl-hotswap-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&path).ok();
    path
}

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

/// Truncate a checkpoint file mid-byte — the on-disk state left behind
/// when the publishing process dies after the file is visible but
/// before its bytes fully land (power loss without fsync).
fn tear(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::write(path, &text[..text.len() / 2]).unwrap();
}

/// After a hot-swap, the live server's predictions are bitwise
/// identical to (a) a fresh server cold-loading the same checkpoint and
/// (b) the trainer pipeline's own `forecast` on the same weights — the
/// serving forward path *is* the training forward path.
#[test]
fn hot_swap_is_bitwise_identical_to_fresh_load() {
    let dir = tmp_dir("swap");
    let slots = CheckpointDir::new(&dir).unwrap();
    let trainer_a = Trainer::new(11);
    let trainer_b = Trainer::new(22);

    trainer_a.publish(&slots, "generation A");
    let (_server_registry, server) = trainer_a.server(CheckpointDir::new(&dir).unwrap());
    let before = server.predict(&trainer_a.window(0)).unwrap();

    // The (still running) trainer publishes new weights; the server
    // picks them up between batches.
    trainer_b.publish(&slots, "generation B");
    assert!(server.reload_now().unwrap(), "new fingerprint must swap");
    assert_eq!(server.stats().swaps, 2, "initial load + one hot-swap");

    let windows: Vec<Tensor> = (0..5).map(|i| trainer_a.window(i * 3)).collect();
    let live: Vec<Tensor> = windows
        .iter()
        .map(|w| server.predict(w).unwrap().prediction)
        .collect();

    // (a) fresh process, same checkpoint directory, cold load.
    let (_fresh_registry, fresh) = trainer_b.server(CheckpointDir::new(&dir).unwrap());
    for (i, w) in windows.iter().enumerate() {
        let cold = fresh.predict(w).unwrap();
        assert_bitwise_eq(
            &live[i],
            &cold.prediction,
            &format!("fresh load, window {i}"),
        );
    }
    // (b) the trainer's own forward on the weights it just published.
    for (i, w) in windows.iter().enumerate() {
        assert_bitwise_eq(
            &live[i],
            &trainer_b.pipe.forecast(w),
            &format!("trainer forecast, window {i}"),
        );
    }
    // And the swap was real: generation B differs from generation A.
    assert_ne!(live[0], before.prediction, "checkpoints must differ");
    std::fs::remove_dir_all(&dir).ok();
}

/// Trainer killed mid-publish: `latest.ckpt` is torn, `previous.ckpt`
/// holds the last good generation. Both a live server's reload and a
/// fresh server's cold load must land on `previous`, bitwise equal to
/// the trainer that wrote it.
#[test]
fn killed_trainer_mid_publish_falls_back_to_previous() {
    let dir = tmp_dir("torn-latest");
    let slots = CheckpointDir::new(&dir).unwrap();
    let trainer_a = Trainer::new(33);
    let trainer_b = Trainer::new(44);

    trainer_a.publish(&slots, "good generation");
    let (_server_registry, server) = trainer_a.server(CheckpointDir::new(&dir).unwrap());

    // Second publish rotates A to previous... and dies mid-write of the
    // new latest.
    trainer_b.publish(&slots, "doomed generation");
    tear(&slots.latest_path());

    // Live reload: fingerprint changed, latest is garbage, previous (A)
    // parses — the server must swap to A, not error out.
    assert!(
        server.reload_now().unwrap(),
        "fallback still counts as a swap"
    );
    assert_eq!(server.stats().reload_failures, 0);

    let window = trainer_a.window(4);
    let live = server.predict(&window).unwrap();
    assert_bitwise_eq(
        &live.prediction,
        &trainer_a.pipe.forecast(&window),
        "fallback generation",
    );

    // A fresh process over the torn directory reaches the same weights.
    let (_fresh_registry, fresh) = trainer_a.server(CheckpointDir::new(&dir).unwrap());
    let cold = fresh.predict(&window).unwrap();
    assert_bitwise_eq(&live.prediction, &cold.prediction, "cold load after tear");
    std::fs::remove_dir_all(&dir).ok();
}

/// Worst case: both rotation slots are torn. Reload reports a typed
/// error, the failure counter ticks, and the server keeps serving its
/// in-memory snapshot bitwise-unchanged — a dead trainer must never
/// take the serving tier down with it.
#[test]
fn torn_rotation_keeps_serving_old_snapshot() {
    let dir = tmp_dir("torn-both");
    let slots = CheckpointDir::new(&dir).unwrap();
    let trainer = Trainer::new(55);
    trainer.publish(&slots, "gen 1");
    trainer.publish(&slots, "gen 2"); // populate previous.ckpt too

    let (_server_registry, server) = trainer.server(CheckpointDir::new(&dir).unwrap());
    let window = trainer.window(2);
    let before = server.predict(&window).unwrap();
    let generation = server.generation();

    tear(&slots.latest_path());
    tear(&slots.previous_path());

    match server.reload_now() {
        Err(ServeError::Reload(_)) => {}
        other => panic!("expected Reload error, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.reload_failures, 1);
    assert_eq!(
        server.generation(),
        generation,
        "generation must not advance"
    );

    let after = server.predict(&window).unwrap();
    assert_bitwise_eq(&before.prediction, &after.prediction, "old snapshot");
    assert_eq!(before.generation, after.generation);

    // The bad fingerprint is remembered: an unchanged torn file is not
    // re-parsed on the next poll (no second failure tick).
    assert!(!server.reload_now().unwrap_or(true));
    assert_eq!(server.stats().reload_failures, 1);
    std::fs::remove_dir_all(&dir).ok();
}
