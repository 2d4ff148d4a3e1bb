//! Seeded interleaving enumeration for the submit/shutdown race.
//!
//! The seed runtime had a stranded-waiter bug: shutdown set an atomic
//! drain flag *outside* the queue mutex, so a submitter could observe
//! "not draining", enqueue, and have its wakeup signal land between the
//! worker's final drain and its exit — leaving the client blocked
//! forever. The fix moves the drain flag inside the queue mutex
//! (`shard.rs`): admission and drain are now ordered by one lock, so
//! every admitted request is answered and every late submit gets a typed
//! [`ServeError::ShuttingDown`].
//!
//! Std-only loom-style pinning: rather than one lucky schedule, we
//! enumerate 32 seeded interleavings. Each seed derives per-submitter
//! spin/sleep jitter and a different server-drop delay from the in-tree
//! xoshiro RNG, sweeping the drop point across the burst — before, in
//! the middle of, and after the submitters' work. Under the buggy
//! protocol several of these schedules strand a waiter (the 10s
//! `wait_timeout` fires); under the fixed one every handle resolves and
//! request conservation holds exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_serve::{BatchPolicy, ServeConfig, ServeError, Server};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::{Rng, Tensor};

const SEEDS: u64 = 32;
const SUBMITTERS: usize = 4;
const REQS_PER_SUBMITTER: usize = 6;

struct Fx {
    ds: SyntheticDataset,
    dir: std::path::PathBuf,
    windows: Vec<Tensor>,
}

impl Fx {
    fn new() -> Self {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
        let dir =
            std::env::temp_dir().join(format!("urcl-drain-interleave-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let slots = CheckpointDir::new(&dir).unwrap();
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            TrainerConfig::default(),
            42,
        );
        let series = ds.continual_split(2).base.series.clone();
        pipe.observe_period_statistics_only(&series);
        pipe.save_checkpoint(&slots, "drain").unwrap();
        let m = ds.config.input_steps;
        let windows = (0..4).map(|i| series.narrow(0, i * 2, m)).collect();
        Self { ds, dir, windows }
    }

    fn server(&self) -> Server {
        let (model, template) = UrclPipeline::serving_parts(
            &self.ds.network,
            &self.ds.config,
            &TrainerConfig::default(),
        );
        Server::start(
            model,
            template,
            CheckpointDir::new(&self.dir).unwrap(),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch: 4,
                    max_delay: Duration::from_micros(200),
                },
                target_channel: self.ds.config.target_channel,
                shards: 1,
                queue_bound: 64,
                ..ServeConfig::default()
            },
        )
    }
}

impl Drop for Fx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Seeded jitter: a mix of busy-spins (sub-microsecond, to hit the
/// lock-handoff windows) and short sleeps (to hit the coalescing and
/// drop windows).
fn jitter(rng: &mut Rng) {
    let r = rng.uniform();
    if r < 0.5 {
        for _ in 0..(r * 2_000.0) as u32 {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(Duration::from_micros((r * 600.0) as u64));
    }
}

#[test]
fn no_seeded_interleaving_strands_a_waiter() {
    let fx = Arc::new(Fx::new());
    for seed in 0..SEEDS {
        let server = fx.server();
        assert!(server.has_snapshot(), "seed {seed}: checkpoint must load");
        let client = server.client();

        let replied = Arc::new(AtomicU64::new(0));
        let shut_out = Arc::new(AtomicU64::new(0));
        let shed = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for s in 0..SUBMITTERS {
            let client = client.clone();
            let fx = Arc::clone(&fx);
            let (replied, shut_out, shed) = (
                Arc::clone(&replied),
                Arc::clone(&shut_out),
                Arc::clone(&shed),
            );
            threads.push(std::thread::spawn(move || {
                let mut rng = Rng::seed_from_u64(seed * 97 + s as u64);
                for r in 0..REQS_PER_SUBMITTER {
                    jitter(&mut rng);
                    let window = fx.windows[(s + r) % fx.windows.len()].clone();
                    match client.submit(window) {
                        Ok(pending) => {
                            // The hard invariant: an accepted request is
                            // never stranded, no matter where the drop
                            // lands relative to this submit.
                            let outcome = pending
                                .wait_timeout(Duration::from_secs(10))
                                .unwrap_or_else(|| {
                                    panic!(
                                        "seed {seed} submitter {s} req {r}: \
                                         stranded waiter (drain protocol regression)"
                                    )
                                });
                            match outcome {
                                Ok(_) => replied.fetch_add(1, Ordering::Relaxed),
                                Err(ServeError::ShuttingDown) => {
                                    shut_out.fetch_add(1, Ordering::Relaxed)
                                }
                                Err(e) => panic!("seed {seed}: unexpected reply {e}"),
                            };
                        }
                        Err(ServeError::ShuttingDown) => {
                            shut_out.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Shed { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("seed {seed}: unexpected submit error {e}"),
                    }
                }
            }));
        }

        // Drop the server at a seed-dependent point in the burst: from
        // "immediately" (seed 0 sleeps ~0) to "after most submits".
        let mut drop_rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        std::thread::sleep(Duration::from_micros(
            (drop_rng.uniform() * 4_000.0) as u64 * (seed % 4),
        ));
        drop(server);

        for t in threads {
            t.join().expect("submitter panicked");
        }
        // Conservation: every attempt terminated exactly one way.
        let total = replied.load(Ordering::Relaxed)
            + shut_out.load(Ordering::Relaxed)
            + shed.load(Ordering::Relaxed);
        assert_eq!(
            total,
            (SUBMITTERS * REQS_PER_SUBMITTER) as u64,
            "seed {seed}: request lost"
        );

        // A post-drop submit must fail typed, not hang or panic.
        match client.submit(fx.windows[0].clone()) {
            Err(ServeError::ShuttingDown) => {}
            Ok(_) => panic!("seed {seed}: submit admitted after drop"),
            Err(e) => panic!("seed {seed}: wrong post-drop error {e}"),
        }
    }
}
