//! Multi-tenant runtime: per-tenant request queues and workers,
//! hot-swap, and the [`Tenants`] registry.
//!
//! One process serves many dataset/model tenants (METR-LA, PEMS-BAY,
//! PEMS04, PEMS08 analogues, …) concurrently. Each tenant owns:
//!
//! * its own [`ModelSnapshot`] slot, hot-swapped from its own
//!   [`CheckpointDir`] (one trainer per tenant publishes into it), and
//!   one forward plan every snapshot it loads replays, so a swap loads
//!   weights and never recompiles;
//! * one bounded request queue ([`BoundedQueue`]) drained by
//!   `workers` threads, so the request path of one tenant never contends
//!   with another tenant's;
//! * optional response cache with in-flight dedup ([`crate::CachePolicy`]).
//!
//! Admission control: when the tenant's queue is at its bound, the
//! submit returns [`ServeError::Shed`] with the tenant name and the
//! queue's depth — callers see typed backpressure, the queue never grows
//! without bound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use urcl_core::persist::{CheckpointDir, CheckpointFingerprint};
use urcl_models::Backbone;
use urcl_tensor::{ExecPlan, ParamStore, Tensor};

use crate::cache::{CacheKey, Lookup, ResponseCache};
use crate::queue::{BoundedQueue, Rejected};
use crate::server::{forward_batch, Forecast, PendingForecast, ServeConfig, ServeError};
use crate::snapshot::ModelSnapshot;

/// How long the reload poller sleeps between shutdown checks.
const POLL_TICK: Duration = Duration::from_millis(25);

/// One admitted request; the queue keeps its admission time.
struct Pending {
    window: Tensor,
    tx: mpsc::Sender<Result<Forecast, ServeError>>,
    /// When set, the computing worker publishes the result into the
    /// tenant's response cache under this key (fanning out to any
    /// deduplicated waiters).
    cache_key: Option<CacheKey>,
}

/// Point-in-time counters for one tenant (all atomic reads, no locks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests accepted (including cache hits and dedup joins).
    pub requests: u64,
    /// Requests rejected with [`ServeError::Shed`].
    pub shed: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Largest batch fused so far.
    pub max_batch: u64,
    /// Successful snapshot loads/hot-swaps.
    pub swaps: u64,
    /// Failed reload attempts (old snapshot kept serving).
    pub reload_failures: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Requests that registered a fresh cache entry (computed forwards).
    pub cache_misses: u64,
    /// Requests that joined an identical in-flight forward.
    pub dedup_joins: u64,
    /// Retired: requests are no longer split across queues, so nothing
    /// steals them; always 0.
    pub steals: u64,
    /// Retired with `steals`; always 0.
    pub stolen: u64,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    max_batch_seen: AtomicU64,
    swaps: AtomicU64,
    reload_failures: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    dedup_joins: AtomicU64,
}

pub(crate) struct TenantCore {
    name: String,
    model: Box<dyn Backbone + Send + Sync>,
    template: ParamStore,
    source: CheckpointDir,
    config: ServeConfig,
    snapshot: Mutex<Option<Arc<ModelSnapshot>>>,
    /// The forward-plan cell every snapshot `reload` builds shares: each
    /// is validated against `template`, and a plan binds its parameters
    /// at every replay, so one compile serves every generation.
    plan: Arc<OnceLock<ExecPlan>>,
    fingerprint: Mutex<Option<CheckpointFingerprint>>,
    queue: BoundedQueue<Pending>,
    cache: Option<ResponseCache>,
    /// Stop signal for the reload poller (the queue has its own drain
    /// flag).
    stopping: AtomicBool,
    generation: AtomicU64,
    stats: Counters,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TenantCore {
    fn input_shape(&self) -> [usize; 3] {
        let cfg = self.model.config();
        [cfg.input_steps, cfg.num_nodes, cfg.channels]
    }

    fn current_generation(&self) -> u64 {
        lock(&self.snapshot)
            .as_ref()
            .map(|s| s.generation())
            .unwrap_or(0)
    }

    fn submit(&self, window: Tensor) -> Result<PendingForecast, ServeError> {
        let expected = self.input_shape();
        if window.shape() != expected {
            return Err(ServeError::BadRequest(format!(
                "window shape {:?} does not match tenant {:?} geometry {:?} ([M, N, C])",
                window.shape(),
                self.name,
                expected
            )));
        }
        // A non-finite reading is no input to forecast from (and a
        // non-finite forecast cell would print as `null` on the JSON
        // wire): reject it before it reaches the cache or the queue.
        if let Some(at) = window.data().iter().position(|v| !v.is_finite()) {
            let [_, n, c] = expected;
            return Err(ServeError::BadRequest(format!(
                "window cell [{}, {}, {}] ([M, N, C]) is {}, not a finite reading",
                at / (n * c),
                at / c % n,
                at % c,
                window.data()[at]
            )));
        }
        let (tx, rx) = mpsc::channel();
        let traced = urcl_trace::enabled();

        // Cache fast path: hit, join an identical in-flight forward, or
        // register a fresh entry the queued compute will fulfill.
        let mut cache_key = None;
        if let Some(cache) = &self.cache {
            let key = CacheKey::new(self.current_generation(), &window);
            match cache.lookup_or_register(&key, &tx) {
                Lookup::Hit(forecast) => {
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        urcl_trace::counter_inc("serve.requests");
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.requests", self.name));
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.cache_hits", self.name));
                    }
                    let _ = tx.send(Ok(forecast));
                    return Ok(PendingForecast::new(rx));
                }
                Lookup::Joined => {
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.stats.dedup_joins.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        urcl_trace::counter_inc("serve.requests");
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.requests", self.name));
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.dedup_joins", self.name));
                    }
                    return Ok(PendingForecast::new(rx));
                }
                miss => {
                    self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        urcl_trace::counter_inc(&format!(
                            "serve.tenant.{}.cache_misses",
                            self.name
                        ));
                    }
                    // A `Miss` (an identical request still in admission)
                    // computes uncached; a `Registered` entry is ours.
                    if matches!(miss, Lookup::Registered) {
                        cache_key = Some(key);
                    }
                }
            }
        }

        let pending = Pending {
            window,
            tx,
            cache_key: cache_key.clone(),
        };
        let err = match self.queue.push(pending) {
            Ok(depth) => {
                if let (Some(cache), Some(key)) = (&self.cache, &cache_key) {
                    cache.admitted(key);
                }
                self.stats.requests.fetch_add(1, Ordering::Relaxed);
                if traced {
                    urcl_trace::counter_inc("serve.requests");
                    urcl_trace::counter_inc(&format!("serve.tenant.{}.requests", self.name));
                    urcl_trace::gauge_set(
                        &format!("serve.tenant.{}.queue_depth", self.name),
                        depth as f64,
                    );
                }
                return Ok(PendingForecast::new(rx));
            }
            Err(Rejected::Full(_, depth)) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                if traced {
                    urcl_trace::counter_inc("serve.shed");
                    urcl_trace::counter_inc(&format!("serve.tenant.{}.shed", self.name));
                }
                ServeError::Shed {
                    tenant: self.name.clone(),
                    depth,
                }
            }
            Err(Rejected::Draining(_)) => ServeError::ShuttingDown,
        };
        if let (Some(cache), Some(key)) = (&self.cache, &cache_key) {
            cache.abort(key);
        }
        Err(err)
    }

    fn reload(&self, force: bool) -> Result<bool, ServeError> {
        // One reload at a time: holding the fingerprint from the check to
        // the publish gives every published snapshot its own generation
        // (the response cache keys forecasts by it), and a reload that
        // waited here sees the fingerprint the one before it published.
        let mut seen = lock(&self.fingerprint);
        let fingerprint = self.source.fingerprint();
        if !force && fingerprint.is_some() && *seen == fingerprint {
            return Ok(false);
        }
        let _sp = urcl_trace::span("serve_reload");
        let loaded = self.source.load().and_then(|ckpt| {
            let generation = self.generation.load(Ordering::Relaxed) + 1;
            ModelSnapshot::sharing_plan(&ckpt, &self.template, generation, Arc::clone(&self.plan))
                .map_err(|e| urcl_core::PersistError::Format(e.to_string()))
        });
        // A torn or bad fingerprint is remembered too, so the poller does
        // not retry identical bytes every tick; the old snapshot keeps
        // serving.
        *seen = fingerprint;
        match loaded {
            Ok(snapshot) => {
                let generation = snapshot.generation();
                self.generation.store(generation, Ordering::Relaxed);
                *lock(&self.snapshot) = Some(Arc::new(snapshot));
                if let Some(cache) = &self.cache {
                    // Forecasts from older snapshots must never be
                    // served again; in-flight entries survive so their
                    // queued computes still fan out.
                    cache.retain_generation(generation);
                }
                self.stats.swaps.fetch_add(1, Ordering::Relaxed);
                if urcl_trace::enabled() {
                    urcl_trace::counter_inc("serve.swaps");
                    urcl_trace::counter_inc(&format!("serve.tenant.{}.swaps", self.name));
                }
                Ok(true)
            }
            Err(e) => {
                self.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                if urcl_trace::enabled() {
                    urcl_trace::counter_inc("serve.reload_failures");
                    urcl_trace::counter_inc(&format!("serve.tenant.{}.reload_failures", self.name));
                }
                Err(ServeError::Reload(e.to_string()))
            }
        }
    }

    fn stats(&self) -> TenantStats {
        TenantStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            max_batch: self.stats.max_batch_seen.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            reload_failures: self.stats.reload_failures.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            dedup_joins: self.stats.dedup_joins.load(Ordering::Relaxed),
            ..TenantStats::default()
        }
    }
}

/// One worker: take a batch from the tenant's queue, forward, reply;
/// stop once the queue is drained.
fn worker_loop(core: &TenantCore) {
    while let Some((batch, left)) = core.queue.next_batch() {
        if urcl_trace::enabled() {
            urcl_trace::gauge_set(
                &format!("serve.tenant.{}.queue_depth", core.name),
                left as f64,
            );
        }
        run_batch(core, batch);
    }
}

fn run_batch(core: &TenantCore, batch: Vec<(Instant, Pending)>) {
    let _sp = urcl_trace::span("serve_batch");
    let traced = urcl_trace::enabled();
    core.stats.batches.fetch_add(1, Ordering::Relaxed);
    core.stats
        .max_batch_seen
        .fetch_max(batch.len() as u64, Ordering::Relaxed);
    if traced {
        urcl_trace::counter_inc("serve.batches");
        urcl_trace::counter_inc(&format!("serve.tenant.{}.batches", core.name));
        urcl_trace::histogram_record("serve.batch_size", batch.len() as f64);
        urcl_trace::histogram_record(
            &format!("serve.tenant.{}.batch_size", core.name),
            batch.len() as f64,
        );
    }

    // Capture the snapshot once for the whole batch: a hot-swap between
    // batches never splits one batch across two snapshots, and holding
    // the Arc keeps the old snapshot alive until these replies are out.
    let snapshot = lock(&core.snapshot).clone();
    let Some(snapshot) = snapshot else {
        for (_, pending) in batch {
            let err = Err(ServeError::NoSnapshot);
            if let (Some(cache), Some(key)) = (&core.cache, &pending.cache_key) {
                cache.fulfill(key, &err);
            }
            let _ = pending.tx.send(err);
        }
        return;
    };

    let mut windows = Vec::with_capacity(batch.len());
    let mut replies = Vec::with_capacity(batch.len());
    for (enqueued, pending) in batch {
        windows.push(pending.window);
        replies.push((enqueued, pending.tx, pending.cache_key));
    }
    let predictions = forward_batch(
        core.model.as_ref(),
        &snapshot,
        &windows,
        core.config.target_channel,
    );
    for ((enqueued, tx, cache_key), prediction) in replies.into_iter().zip(predictions) {
        if traced {
            let elapsed = enqueued.elapsed().as_secs_f64();
            urcl_trace::histogram_record("serve.latency_seconds", elapsed);
            urcl_trace::histogram_record(
                &format!("serve.tenant.{}.latency_seconds", core.name),
                elapsed,
            );
        }
        let result = Ok(Forecast {
            prediction,
            generation: snapshot.generation(),
        });
        if let (Some(cache), Some(key)) = (&core.cache, &cache_key) {
            cache.fulfill(key, &result);
        }
        let _ = tx.send(result);
    }
}

fn reload_loop(core: &TenantCore, interval: Duration) {
    let mut next = Instant::now() + interval;
    while !core.stopping.load(Ordering::Acquire) {
        std::thread::sleep(POLL_TICK.min(interval));
        if Instant::now() < next {
            continue;
        }
        next = Instant::now() + interval;
        // Failures are counted and traced; the poller just keeps trying.
        let _ = core.reload(false);
    }
}

/// A cheap, clonable handle for submitting requests to one tenant
/// without touching the registry. Handles stay safe after the tenant is
/// drained — submits then return [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct TenantClient {
    core: Arc<TenantCore>,
}

impl TenantClient {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Enqueues one `[M, N, C]` physical-unit window and returns a reply
    /// handle. The window's geometry and finiteness are checked eagerly;
    /// normalization happens inside the batch, with the snapshot that
    /// serves it.
    pub fn submit(&self, window: Tensor) -> Result<PendingForecast, ServeError> {
        self.core.submit(window)
    }

    /// Submits one window and blocks for its forecast.
    pub fn predict(&self, window: &Tensor) -> Result<Forecast, ServeError> {
        self.submit(window.clone())?.wait()
    }

    /// Submits a burst and blocks for every forecast, in order. Bursts
    /// larger than the policy's `max_batch` are split across consecutive
    /// batches by the workers.
    pub fn predict_many(&self, windows: &[Tensor]) -> Result<Vec<Forecast>, ServeError> {
        let handles: Vec<PendingForecast> = windows
            .iter()
            .map(|w| self.submit(w.clone()))
            .collect::<Result<_, _>>()?;
        handles.into_iter().map(PendingForecast::wait).collect()
    }

    /// Checks the checkpoint directory and hot-swaps the snapshot if the
    /// trainer has published a new checkpoint since the last reload.
    /// Returns `true` when a swap happened, `false` when the fingerprint
    /// was unchanged. In-flight batches finish on the old snapshot; the
    /// swap takes effect from the next batch. On failure the old snapshot
    /// keeps serving and the error is returned.
    pub fn reload_now(&self) -> Result<bool, ServeError> {
        self.core.reload(false)
    }

    /// Whether a snapshot is loaded.
    pub fn has_snapshot(&self) -> bool {
        lock(&self.core.snapshot).is_some()
    }

    /// The currently serving snapshot (if any); the `Arc` stays valid
    /// across hot-swaps.
    pub fn snapshot(&self) -> Option<Arc<ModelSnapshot>> {
        lock(&self.core.snapshot).clone()
    }

    /// Generation of the current snapshot, `None` before the first load.
    pub fn generation(&self) -> Option<u64> {
        lock(&self.core.snapshot).as_ref().map(|s| s.generation())
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> TenantStats {
        self.core.stats()
    }

    /// The `[M, N, C]` window geometry requests must match.
    pub fn input_shape(&self) -> [usize; 3] {
        self.core.input_shape()
    }

    /// Number of worker threads draining the tenant's queue.
    pub fn workers(&self) -> usize {
        self.core.config.workers
    }

    /// Deepest the tenant's queue has been; never exceeds the configured
    /// `queue_bound` (property-tested).
    pub fn peak_queue_depth(&self) -> usize {
        self.core.queue.peak_depth()
    }

    /// Completed forecasts currently held by the response cache.
    pub fn cached_len(&self) -> usize {
        self.core.cache.as_ref().map_or(0, |c| c.len())
    }
}

/// One running tenant: the core plus its worker/reloader threads.
/// Dropping it drains the queue (queued requests are answered first)
/// and joins all threads.
pub(crate) struct TenantRuntime {
    core: Arc<TenantCore>,
    workers: Vec<JoinHandle<()>>,
    reloader: Option<JoinHandle<()>>,
}

impl TenantRuntime {
    pub(crate) fn start(
        name: &str,
        model: Box<dyn Backbone + Send + Sync>,
        template: ParamStore,
        source: CheckpointDir,
        config: ServeConfig,
    ) -> Self {
        assert!(config.workers > 0, "workers must be positive");
        let core = Arc::new(TenantCore {
            name: name.to_string(),
            model,
            template,
            source,
            snapshot: Mutex::new(None),
            plan: Arc::default(),
            fingerprint: Mutex::new(None),
            queue: BoundedQueue::new(config.queue_bound, config.policy),
            cache: config.cache.map(ResponseCache::new),
            stopping: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            stats: Counters::default(),
            config,
        });
        // Best-effort initial load: an empty or unreadable directory just
        // means the tenant's trainer hasn't published yet.
        let _ = core.reload(true);
        let workers = (0..core.config.workers)
            .map(|idx| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("urcl-serve-{name}-w{idx}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn serve worker")
            })
            .collect();
        let reloader = core.config.reload_interval.map(|interval| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("urcl-serve-{name}-reload"))
                .spawn(move || reload_loop(&core, interval))
                .expect("spawn serve reloader")
        });
        Self {
            core,
            workers,
            reloader,
        }
    }

    pub(crate) fn client(&self) -> TenantClient {
        TenantClient {
            core: Arc::clone(&self.core),
        }
    }

    /// Drains the queue and joins all threads (idempotent).
    pub(crate) fn shutdown(&mut self) {
        self.core.stopping.store(true, Ordering::Release);
        self.core.queue.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(reloader) = self.reloader.take() {
            let _ = reloader.join();
        }
    }
}

impl Drop for TenantRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The multi-tenant registry: named tenants, each with its own queue and
/// workers, snapshot, checkpoint source and (optional) cache.
///
/// The registry lock is only taken to add/remove/look up tenants —
/// never on the request path of a [`TenantClient`], which holds its
/// tenant directly. Requests go through a client: the one `add` returns,
/// or [`Tenants::client`], which takes one brief read lock to resolve
/// the name.
///
/// Dropping the registry drains every tenant: queued requests are
/// answered, later submits fail with [`ServeError::ShuttingDown`].
#[derive(Default)]
pub struct Tenants {
    map: RwLock<BTreeMap<String, TenantRuntime>>,
}

impl Tenants {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers and starts a tenant, returning its request handle.
    ///
    /// `model` is the backbone *architecture* — its weights are ignored;
    /// every forward pass reads parameters from the current snapshot.
    /// `template` is the [`ParamStore`] the model was constructed
    /// against; it defines the layout checkpoints must match. If `source`
    /// already holds a loadable checkpoint it becomes the initial
    /// snapshot; otherwise the tenant starts empty and answers
    /// [`ServeError::NoSnapshot`] until a reload succeeds. Fails with
    /// [`ServeError::TenantExists`] if the name is taken.
    pub fn add(
        &self,
        name: &str,
        model: impl Backbone + Send + Sync + 'static,
        template: ParamStore,
        source: CheckpointDir,
        config: ServeConfig,
    ) -> Result<TenantClient, ServeError> {
        let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(name) {
            return Err(ServeError::TenantExists(name.to_string()));
        }
        let runtime = TenantRuntime::start(name, Box::new(model), template, source, config);
        let client = runtime.client();
        map.insert(name.to_string(), runtime);
        Ok(client)
    }

    /// Drains and removes a tenant (blocking until its queued requests
    /// are answered and its threads joined). Returns `false` if the name
    /// is unknown.
    pub fn remove(&self, name: &str) -> bool {
        let runtime = self
            .map
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
        // Dropped outside the write lock so a long drain doesn't block
        // other tenants' lookups.
        runtime.is_some()
    }

    /// A request handle for one tenant.
    pub fn client(&self, name: &str) -> Result<TenantClient, ServeError> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(TenantRuntime::client)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Registered tenant names (sorted).
    pub fn names(&self) -> Vec<String> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use urcl_core::{TrainerConfig, UrclPipeline};
    use urcl_stdata::{DatasetConfig, SyntheticDataset};

    use super::*;

    /// Reloads A → B → A with a forecast after each: every snapshot the
    /// tenant publishes shares its one plan cell, and each forecast
    /// equals, bit for bit, a cold snapshot of the same checkpoint with a
    /// plan of its own.
    #[test]
    fn hot_swaps_share_one_plan_and_forecast_as_cold_loads() {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
        let series = &ds.continual_split(2).base.series;
        let window = series.narrow(0, 0, ds.config.input_steps);
        let target = ds.config.target_channel;
        let trainer = |seed| {
            let mut pipe = UrclPipeline::new(
                ds.network.clone(),
                ds.config.clone(),
                TrainerConfig::default(),
                seed,
            );
            pipe.observe_period_statistics_only(series);
            pipe
        };
        let (a, b) = (trainer(1), trainer(2));
        let path = std::env::temp_dir().join(format!("urcl-tenant-plan-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        let slots = CheckpointDir::new(&path).unwrap();
        a.save_checkpoint(&slots, "A").unwrap();

        let (reference, template) =
            UrclPipeline::serving_parts(&ds.network, &ds.config, &TrainerConfig::default());
        let (model, _) =
            UrclPipeline::serving_parts_dyn(&ds.network, &ds.config, &TrainerConfig::default());
        let runtime = TenantRuntime::start(
            "plan",
            model,
            template.clone(),
            CheckpointDir::new(&path).unwrap(),
            ServeConfig {
                target_channel: target,
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let client = runtime.client();
        let mut forecasts = Vec::new();
        for (step, publisher) in [&a, &b, &a].into_iter().enumerate() {
            if step > 0 {
                publisher.save_checkpoint(&slots, "swap").unwrap();
                assert!(runtime.core.reload(true).unwrap());
            }
            let snapshot = client.snapshot().unwrap();
            assert_eq!(snapshot.generation(), step as u64 + 1);
            assert!(
                Arc::ptr_eq(&snapshot.plan, &runtime.core.plan),
                "generation {} compiled a plan of its own",
                snapshot.generation()
            );
            let live = client.predict(&window).unwrap();
            assert_eq!(live.generation, snapshot.generation());
            let cold =
                ModelSnapshot::from_checkpoint(&slots.load().unwrap(), &template, 0).unwrap();
            assert!(!Arc::ptr_eq(&cold.plan, &runtime.core.plan));
            let expected =
                forward_batch(&reference, &cold, std::slice::from_ref(&window), target).remove(0);
            assert_eq!(live.prediction.shape(), expected.shape());
            for (i, (x, y)) in live
                .prediction
                .data()
                .iter()
                .zip(expected.data())
                .enumerate()
            {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "generation {}, element {i}: {x} vs {y}",
                    snapshot.generation()
                );
            }
            forecasts.push(live.prediction);
        }
        assert_ne!(forecasts[0], forecasts[1], "A and B must differ");
        drop(runtime);
        std::fs::remove_dir_all(&path).ok();
    }
}
