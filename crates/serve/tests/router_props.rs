//! Property test for request routing, driven by the in-tree xoshiro
//! RNG: random (tenant count, worker count, queue bound, batch policy,
//! cache) configurations, asserting for every configuration that
//!
//! * every successful response is bitwise the *owning* tenant's forward
//!   of that window (requests never land on another tenant's model);
//! * no tenant queue ever exceeds its admission bound (`peak_depth`);
//! * drain-on-Drop completes with zero stranded waiters: every handle
//!   alive at drop time resolves.

use std::sync::Arc;
use std::time::Duration;

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_serve::{
    forward_batch, BatchPolicy, CachePolicy, ModelSnapshot, PendingForecast, ServeConfig,
    ServeError, Tenants,
};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::{Rng, Tensor};

struct TenantFx {
    name: String,
    ds: SyntheticDataset,
    dir: std::path::PathBuf,
    windows: Vec<Tensor>,
    refs: Vec<Tensor>,
}

impl TenantFx {
    fn new(idx: usize, cfg: DatasetConfig, seed: u64) -> Self {
        let ds = SyntheticDataset::generate(cfg.tiny());
        let dir =
            std::env::temp_dir().join(format!("urcl-router-props-{}-{idx}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let slots = CheckpointDir::new(&dir).unwrap();
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            TrainerConfig::default(),
            seed,
        );
        let series = ds.continual_split(2).base.series.clone();
        pipe.observe_period_statistics_only(&series);
        pipe.save_checkpoint(&slots, "router-props").unwrap();
        let m = ds.config.input_steps;
        let windows: Vec<Tensor> = (0..6).map(|i| series.narrow(0, i * 2, m)).collect();
        let (model, template) =
            UrclPipeline::serving_parts(&ds.network, &ds.config, &TrainerConfig::default());
        let snapshot =
            ModelSnapshot::from_checkpoint(&slots.load().unwrap(), &template, 1).unwrap();
        let refs = forward_batch(&model, &snapshot, &windows, ds.config.target_channel);
        Self {
            name: format!("tenant-{idx}"),
            ds,
            dir,
            windows,
            refs,
        }
    }
}

impl Drop for TenantFx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn matches_bitwise(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Uniform draw from a small inclusive range.
fn pick(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + ((rng.uniform() * (hi - lo + 1) as f32) as usize).min(hi - lo)
}

#[test]
fn random_configs_route_bound_and_drain_correctly() {
    // Three tenants with distinct weights (and, for tenant 2, a distinct
    // channel geometry): a response is attributable to its owner by bits.
    let fixtures = Arc::new(vec![
        TenantFx::new(0, DatasetConfig::metr_la(), 101),
        TenantFx::new(1, DatasetConfig::pems_bay(), 102),
        TenantFx::new(2, DatasetConfig::pems04(), 103),
    ]);
    // Cross-check the attributability premise: same-geometry tenants 0
    // and 1 still have bitwise-distinct references.
    assert!(
        !matches_bitwise(&fixtures[0].refs[0], &fixtures[1].refs[0]),
        "distinct seeds must give distinct forecasts"
    );

    let mut rng = Rng::seed_from_u64(0x5EED_0007);
    for case in 0..10 {
        let tenant_count = pick(&mut rng, 1, 3);
        let workers = pick(&mut rng, 1, 3);
        let queue_bound = [1, 2, 4, 64][pick(&mut rng, 0, 3)];
        let max_batch = [1, 2, 8][pick(&mut rng, 0, 2)];
        let max_delay = Duration::from_millis(pick(&mut rng, 0, 3) as u64);
        let cache = rng.uniform() < 0.5;
        let ctx = format!(
            "case {case}: tenants={tenant_count} workers={workers} bound={queue_bound} \
             max_batch={max_batch} max_delay={max_delay:?} cache={cache}"
        );

        let registry = Arc::new(Tenants::new());
        for fx in fixtures.iter().take(tenant_count) {
            let (model, template) = UrclPipeline::serving_parts_dyn(
                &fx.ds.network,
                &fx.ds.config,
                &TrainerConfig::default(),
            );
            registry
                .add(
                    &fx.name,
                    model,
                    template,
                    CheckpointDir::new(&fx.dir).unwrap(),
                    ServeConfig {
                        policy: BatchPolicy {
                            max_batch,
                            max_delay,
                        },
                        target_channel: fx.ds.config.target_channel,
                        workers,
                        queue_bound,
                        cache: cache.then(CachePolicy::default),
                        ..ServeConfig::default()
                    },
                )
                .expect("register tenant");
        }

        // Burst phase: 6 client threads per tenant, 5 requests each.
        let mut handles = Vec::new();
        for (t, fx) in fixtures.iter().take(tenant_count).enumerate() {
            let client = registry.client(&fx.name).unwrap();
            for c in 0..6 {
                let client = client.clone();
                let windows = fx.windows.clone();
                let refs = fx.refs.clone();
                let ctx = ctx.clone();
                handles.push(std::thread::spawn(move || {
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    for r in 0..5 {
                        let i = (t + c + r) % windows.len();
                        match client.submit(windows[i].clone()) {
                            Ok(pending) => {
                                let forecast = pending
                                    .wait_timeout(Duration::from_secs(30))
                                    .unwrap_or_else(|| panic!("{ctx}: stranded waiter"))
                                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                                assert!(
                                    matches_bitwise(&forecast.prediction, &refs[i]),
                                    "{ctx}: client {c} req {r} answered by the wrong tenant"
                                );
                                ok += 1;
                            }
                            Err(ServeError::Shed { tenant, .. }) => {
                                assert_eq!(
                                    tenant,
                                    client.name(),
                                    "{ctx}: shed error names the wrong tenant"
                                );
                                shed += 1;
                            }
                            Err(e) => panic!("{ctx}: unexpected error {e}"),
                        }
                    }
                    (ok, shed)
                }));
            }
        }
        let mut total_ok = 0u64;
        let mut total_shed = 0u64;
        for h in handles {
            let (ok, shed) = h.join().expect("client thread");
            total_ok += ok;
            total_shed += shed;
        }
        assert_eq!(
            total_ok + total_shed,
            (tenant_count * 6 * 5) as u64,
            "{ctx}: conservation"
        );

        // Bound property: no tenant queue ever exceeded its bound, and
        // registry counters agree with the client-side tallies.
        let mut stats_requests = 0u64;
        let mut stats_shed = 0u64;
        for fx in fixtures.iter().take(tenant_count) {
            let client = registry.client(&fx.name).unwrap();
            assert_eq!(client.workers(), workers, "{ctx}");
            let depth = client.peak_queue_depth();
            assert!(
                depth <= queue_bound,
                "{ctx}: peak depth {depth} exceeded bound {queue_bound}"
            );
            let s = client.stats();
            stats_requests += s.requests;
            stats_shed += s.shed;
        }
        assert_eq!(stats_requests, total_ok, "{ctx}: accepted-request counter");
        assert_eq!(stats_shed, total_shed, "{ctx}: shed counter");

        // Drain phase: submit a final burst, drop the registry with the
        // handles still pending, then demand every handle resolves.
        let mut pending: Vec<(usize, Result<PendingForecast, ServeError>)> = Vec::new();
        for (t, fx) in fixtures.iter().take(tenant_count).enumerate() {
            for r in 0..4 {
                let i = (t + r) % fx.windows.len();
                let submitted = registry
                    .client(&fx.name)
                    .and_then(|client| client.submit(fx.windows[i].clone()));
                pending.push((t, submitted));
            }
        }
        drop(registry);
        for (t, submitted) in pending {
            match submitted {
                Ok(handle) => {
                    let resolved = handle
                        .wait_timeout(Duration::from_secs(30))
                        .unwrap_or_else(|| panic!("{ctx}: waiter stranded by Drop"));
                    match resolved {
                        Ok(forecast) => assert_eq!(
                            forecast.prediction.shape()[1],
                            fixtures[t].ds.config.num_nodes,
                            "{ctx}: drained response has wrong geometry"
                        ),
                        // Accepted-then-drained requests are answered; a
                        // reply can still race the teardown of the last
                        // batch, which must surface as a typed error.
                        Err(ServeError::ShuttingDown) => {}
                        Err(e) => panic!("{ctx}: drained waiter got {e}"),
                    }
                }
                Err(ServeError::Shed { .. }) | Err(ServeError::ShuttingDown) => {}
                Err(e) => panic!("{ctx}: submit failed with {e}"),
            }
        }
    }
}
