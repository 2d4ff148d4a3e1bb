//! Seeded interleaving enumeration for the submit/shutdown race.
//!
//! The seed runtime had a stranded-waiter bug: shutdown set an atomic
//! drain flag *outside* the queue mutex, so a submitter could observe
//! "not draining", enqueue, and have its wakeup signal land between the
//! worker's final drain and its exit — leaving the client blocked
//! forever. The fix moves the drain flag inside the queue mutex
//! (`queue.rs`): admission and drain are now ordered by one lock, so
//! every admitted request is answered and every late submit gets a typed
//! [`ServeError::ShuttingDown`].
//!
//! Std-only loom-style pinning: rather than one lucky schedule, we
//! enumerate 32 seeded interleavings at one and at three workers. Each
//! seed derives per-submitter spin/sleep jitter and a different
//! registry-drop delay from the in-tree xoshiro RNG, sweeping the drop
//! point across the burst — before, in the middle of, and after the
//! submitters' work. Under the buggy protocol several of these schedules
//! strand a waiter (the 10s `wait_timeout` fires); under the fixed one
//! every handle resolves and request conservation holds exactly. A
//! second test drops the registry while several workers still hold a
//! deep backlog, and demands every admitted request be answered bit for
//! bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_serve::{
    forward_batch, BatchPolicy, ModelSnapshot, ServeConfig, ServeError, TenantClient, Tenants,
};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::{Rng, Tensor};

const SEEDS: u64 = 32;
const SUBMITTERS: usize = 4;
const REQS_PER_SUBMITTER: usize = 6;

struct Fx {
    ds: SyntheticDataset,
    dir: std::path::PathBuf,
    windows: Vec<Tensor>,
    /// Each window's forecast from a batch of one.
    refs: Vec<Tensor>,
}

impl Fx {
    fn new(tag: &str) -> Self {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
        let dir = std::env::temp_dir().join(format!("urcl-drain-{tag}-{}", std::process::id()));
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
        let windows: Vec<Tensor> = (0..4).map(|i| series.narrow(0, i * 2, m)).collect();
        let (model, template) =
            UrclPipeline::serving_parts(&ds.network, &ds.config, &TrainerConfig::default());
        let snapshot =
            ModelSnapshot::from_checkpoint(&slots.load().unwrap(), &template, 1).unwrap();
        let refs = windows
            .iter()
            .map(|w| {
                forward_batch(
                    &model,
                    &snapshot,
                    std::slice::from_ref(w),
                    ds.config.target_channel,
                )
                .remove(0)
            })
            .collect();
        Self {
            ds,
            dir,
            windows,
            refs,
        }
    }

    /// A one-tenant registry and its client; dropping the registry drains
    /// the tenant.
    fn server(
        &self,
        policy: BatchPolicy,
        workers: usize,
        queue_bound: usize,
    ) -> (Tenants, TenantClient) {
        let (model, template) = UrclPipeline::serving_parts(
            &self.ds.network,
            &self.ds.config,
            &TrainerConfig::default(),
        );
        let tenants = Tenants::new();
        let client = tenants
            .add(
                "drain",
                model,
                template,
                CheckpointDir::new(&self.dir).unwrap(),
                ServeConfig {
                    policy,
                    target_channel: self.ds.config.target_channel,
                    workers,
                    queue_bound,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        (tenants, client)
    }
}

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
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
    let fx = Arc::new(Fx::new("interleave"));
    let policy = BatchPolicy {
        max_batch: 4,
        max_delay: Duration::from_micros(200),
    };
    for (workers, seed) in [1, 3]
        .into_iter()
        .flat_map(|w| (0..SEEDS).map(move |s| (w, s)))
    {
        let (tenants, client) = fx.server(policy, workers, 64);
        assert!(
            client.has_snapshot(),
            "{workers} workers, seed {seed}: checkpoint must load"
        );

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
                                        "{workers} workers, seed {seed} submitter {s} req {r}: \
                                         stranded waiter (drain protocol regression)"
                                    )
                                });
                            match outcome {
                                Ok(_) => replied.fetch_add(1, Ordering::Relaxed),
                                Err(ServeError::ShuttingDown) => {
                                    shut_out.fetch_add(1, Ordering::Relaxed)
                                }
                                Err(e) => {
                                    panic!("{workers} workers, seed {seed}: unexpected reply {e}")
                                }
                            };
                        }
                        Err(ServeError::ShuttingDown) => {
                            shut_out.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Shed { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            panic!("{workers} workers, seed {seed}: unexpected submit error {e}")
                        }
                    }
                }
            }));
        }

        // Drop the registry at a seed-dependent point in the burst: from
        // "immediately" (seed 0 sleeps ~0) to "after most submits".
        let mut drop_rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        std::thread::sleep(Duration::from_micros(
            (drop_rng.uniform() * 4_000.0) as u64 * (seed % 4),
        ));
        drop(tenants);

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
            "{workers} workers, seed {seed}: request lost"
        );

        // A post-drop submit must fail typed, not hang or panic.
        match client.submit(fx.windows[0].clone()) {
            Err(ServeError::ShuttingDown) => {}
            Ok(_) => panic!("{workers} workers, seed {seed}: submit admitted after drop"),
            Err(e) => panic!("{workers} workers, seed {seed}: wrong post-drop error {e}"),
        }
    }
}

/// Removing the tenant while several workers hold a deep backlog: every
/// admitted request is still answered, bit for bit its solo forecast, and
/// a submit after the drain fails typed.
#[test]
fn drain_with_a_backlog_strands_no_request() {
    let fx = Fx::new("backlog");
    let policy = BatchPolicy {
        max_batch: 4,
        max_delay: Duration::from_millis(2),
    };
    for workers in [1, 3] {
        for round in 0..4 {
            let (tenants, client) = fx.server(policy, workers, 1024);
            let mut pending = Vec::new();
            for i in 0..64 {
                pending.push(
                    client
                        .submit(fx.windows[i % fx.windows.len()].clone())
                        .expect("admitted under generous bound"),
                );
            }
            // Sweep the drop point across the backlog.
            std::thread::sleep(Duration::from_millis(round * 3));
            assert!(tenants.remove("drain"), "tenant existed");
            for (i, p) in pending.into_iter().enumerate() {
                let forecast = p
                    .wait_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|| {
                        panic!("{workers} workers, round {round}: request {i} stranded by drain")
                    })
                    .expect("admitted requests are served, not dropped");
                assert_bitwise_eq(
                    &forecast.prediction,
                    &fx.refs[i % fx.refs.len()],
                    &format!("{workers} workers, round {round} request {i}"),
                );
            }
            match client.predict(&fx.windows[0]) {
                Err(ServeError::ShuttingDown) => {}
                Ok(_) => panic!("{workers} workers, round {round}: submit admitted after remove"),
                Err(e) => panic!("{workers} workers, round {round}: wrong post-drain error {e}"),
            }
        }
    }
}
