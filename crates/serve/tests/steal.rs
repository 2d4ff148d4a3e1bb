//! Work-stealing behavior: bitwise parity with stealing enabled, the
//! steal counters, strictly fewer sheds under skewed affinity load, and
//! drain correctness while thieves are active.

use std::sync::Arc;
use std::time::Duration;

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_serve::{forward_batch, BatchPolicy, ModelSnapshot, ServeConfig, ServeError, Tenants};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::Tensor;

struct Fx {
    ds: SyntheticDataset,
    dir: std::path::PathBuf,
    windows: Vec<Tensor>,
    refs: Vec<Tensor>,
}

impl Fx {
    fn new(tag: &str) -> Self {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
        let dir = std::env::temp_dir().join(format!("urcl-steal-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let slots = CheckpointDir::new(&dir).unwrap();
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            TrainerConfig::default(),
            7,
        );
        let series = ds.continual_split(2).base.series.clone();
        pipe.observe_period_statistics_only(&series);
        pipe.save_checkpoint(&slots, tag).unwrap();
        let m = ds.config.input_steps;
        let windows: Vec<Tensor> = (0..8).map(|i| series.narrow(0, i * 3, m)).collect();
        let (model, template) =
            UrclPipeline::serving_parts(&ds.network, &ds.config, &TrainerConfig::default());
        let snapshot =
            ModelSnapshot::from_checkpoint(&slots.load().unwrap(), &template, 1).unwrap();
        let refs = forward_batch(&model, &snapshot, &windows, ds.config.target_channel);
        Self {
            ds,
            dir,
            windows,
            refs,
        }
    }

    fn register(&self, registry: &Tenants, name: &str, config: ServeConfig) {
        let (model, template) = UrclPipeline::serving_parts_dyn(
            &self.ds.network,
            &self.ds.config,
            &TrainerConfig::default(),
        );
        let client = registry
            .add(
                name,
                model,
                template,
                CheckpointDir::new(&self.dir).unwrap(),
                config,
            )
            .expect("register tenant");
        assert!(client.has_snapshot());
    }
}

impl Drop for Fx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

/// Every client pins its requests to shard 0 via strict affinity while
/// three sibling shards sit idle: the siblings must steal (counters
/// prove it) and every stolen response must still be bitwise equal to
/// the solo forward — batch composition is unobservable in the bits.
#[test]
fn stolen_responses_are_bitwise_identical_to_solo_forwards() {
    let fx = Fx::new("parity");
    let registry = Tenants::new();
    fx.register(
        &registry,
        "hot",
        ServeConfig {
            policy: BatchPolicy {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
            },
            target_channel: fx.ds.config.target_channel,
            shards: 4,
            queue_bound: 1024,
            steal: true,
            ..ServeConfig::default()
        },
    );
    let client = registry.client("hot").unwrap();

    const CLIENTS: usize = 12;
    const REQS: usize = 25;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let client = client.clone();
        let windows = fx.windows.clone();
        let refs = fx.refs.clone();
        handles.push(std::thread::spawn(move || {
            for r in 0..REQS {
                let i = (c + r) % windows.len();
                // Affinity key 0: every request lands on shard 0 only.
                let forecast = client.predict_affine(0, &windows[i]).expect("served");
                assert_bitwise_eq(
                    &forecast.prediction,
                    &refs[i],
                    &format!("client {c} req {r}"),
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("no client panicked");
    }

    let stats = registry.stats("hot").unwrap();
    assert_eq!(stats.requests, (CLIENTS * REQS) as u64, "conservation");
    assert_eq!(stats.shed, 0, "generous bound must not shed");
    assert!(
        stats.max_batch <= 4,
        "stealing must respect the batch policy"
    );
    assert!(
        stats.steals > 0,
        "three idle shards next to a hot one must steal; stats: {stats:?}"
    );
    assert!(
        stats.stolen >= stats.steals,
        "each steal moves at least one request; stats: {stats:?}"
    );
}

/// The shedding duel the bench gate mirrors: a paced burst pinned to one
/// shard while its worker holds a coalescing batch open. With stealing
/// off the bounded queue stays full and the burst sheds; with stealing
/// on, idle siblings drain it — strictly fewer sheds, and everything
/// admitted is still answered bitwise-correctly.
#[test]
fn stealing_sheds_strictly_less_under_affinity_skew() {
    let fx = Fx::new("duel");
    let config = |steal: bool| ServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            // Freeze the hot shard's own worker: it holds its batch open
            // far longer than the whole burst takes.
            max_delay: Duration::from_millis(400),
        },
        target_channel: fx.ds.config.target_channel,
        shards: 4,
        queue_bound: 2,
        steal,
        ..ServeConfig::default()
    };

    let run = |steal: bool| -> (usize, u64) {
        let registry = Tenants::new();
        fx.register(&registry, "duel", config(steal));
        let client = registry.client("duel").unwrap();
        let mut admitted = Vec::new();
        let mut shed = 0usize;
        for i in 0..40 {
            match client.submit_affine(0, fx.windows[i % fx.windows.len()].clone()) {
                Ok(pending) => admitted.push((i, pending)),
                Err(ServeError::Shed { tenant, depth }) => {
                    assert_eq!(tenant, "duel");
                    assert!(depth > 0 && depth <= 2, "shed depth {depth}");
                    shed += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            // Pace the burst so thieves get scheduler time to react.
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(admitted.len() + shed, 40, "conservation");
        for (i, pending) in admitted {
            let forecast = pending
                .wait_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("admitted request {i} stranded"))
                .expect("served");
            assert_bitwise_eq(
                &forecast.prediction,
                &fx.refs[i % fx.refs.len()],
                &format!("request {i} steal={steal}"),
            );
        }
        let stats = registry.stats("duel").unwrap();
        assert_eq!(stats.shed, shed as u64);
        (shed, stats.steals)
    };

    let (sheds_off, steals_off) = run(false);
    let (sheds_on, steals_on) = run(true);
    assert_eq!(steals_off, 0, "stealing disabled must never steal");
    assert!(steals_on > 0, "idle siblings must steal during the burst");
    assert!(
        sheds_off > 0,
        "the frozen worker plus bound 2 must shed with stealing off"
    );
    assert!(
        sheds_on < sheds_off,
        "stealing must strictly reduce sheds: {sheds_on} vs {sheds_off}"
    );
}

/// Removing the tenant while thieves are mid-flight: every admitted
/// request is still answered (stealing never transfers drain
/// responsibility), and post-drain submits fail typed.
#[test]
fn drain_with_active_thieves_strands_no_request() {
    let fx = Fx::new("drain");
    for round in 0..4 {
        let registry = Arc::new(Tenants::new());
        fx.register(
            &registry,
            "drain",
            ServeConfig {
                policy: BatchPolicy {
                    max_batch: 4,
                    max_delay: Duration::from_millis(2),
                },
                target_channel: fx.ds.config.target_channel,
                shards: 4,
                queue_bound: 1024,
                steal: true,
                ..ServeConfig::default()
            },
        );
        let client = registry.client("drain").unwrap();
        // A skewed backlog: everything pinned to shard 0 so thieves are
        // guaranteed to be involved when the drain lands.
        let mut pending = Vec::new();
        for i in 0..64 {
            pending.push(
                client
                    .submit_affine(0, fx.windows[i % fx.windows.len()].clone())
                    .expect("admitted under generous bound"),
            );
        }
        // Sweep the drop point across the burst.
        std::thread::sleep(Duration::from_millis(round * 3));
        assert!(registry.remove("drain"), "tenant existed");
        for (i, p) in pending.into_iter().enumerate() {
            let forecast = p
                .wait_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("round {round}: request {i} stranded by drain"))
                .expect("admitted requests are served, not dropped");
            assert_bitwise_eq(
                &forecast.prediction,
                &fx.refs[i % fx.refs.len()],
                &format!("round {round} request {i}"),
            );
        }
        match client.predict_affine(0, &fx.windows[0]) {
            Err(ServeError::ShuttingDown) => {}
            Ok(_) => panic!("round {round}: submit admitted after remove"),
            Err(e) => panic!("round {round}: wrong post-drain error {e}"),
        }
    }
}
