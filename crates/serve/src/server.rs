//! Shared serving types, the single-tenant [`Server`] facade, and the
//! batched forward pass.
//!
//! The runtime itself (shards, workers, admission control, hot-swap) lives
//! in [`crate::tenant`]; `Server` is a one-tenant convenience wrapper over
//! the same machinery, so a single-model deployment and a [`crate::Tenants`]
//! registry exercise identical code paths.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use urcl_core::persist::CheckpointDir;
use urcl_models::Backbone;
use urcl_tensor::{ParamStore, Tensor};

use crate::cache::CachePolicy;
use crate::snapshot::ModelSnapshot;
use crate::tenant::{TenantClient, TenantRuntime, TenantStats};

/// Request-coalescing policy.
///
/// When a request arrives on an idle shard, the worker holds the batch
/// open for up to `max_delay`, hoping concurrent requests fill it to
/// `max_batch`; whichever limit is hit first closes the batch. A single
/// sparse client therefore pays at most `max_delay` extra latency, while
/// a busy one amortizes the per-forward fixed costs across up to
/// `max_batch` windows.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Largest number of requests fused into one forward pass.
    pub max_batch: usize,
    /// Longest a batch is held open waiting to fill.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Per-tenant serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Request-coalescing policy (applied per shard).
    pub policy: BatchPolicy,
    /// Which input channel the forecasts denormalize as (the dataset's
    /// `target_channel`).
    pub target_channel: usize,
    /// When set, a background thread polls the checkpoint directory at
    /// this interval and hot-swaps the snapshot whenever the trainer has
    /// published a new checkpoint ([`CheckpointDir::fingerprint`] makes
    /// the no-change case a single `stat` call). `None` leaves reloads to
    /// explicit [`Server::reload_now`] calls.
    pub reload_interval: Option<Duration>,
    /// Number of independent shards (queue + worker thread each). Requests
    /// are routed round-robin; shards never share a lock, so on multi-core
    /// hosts they batch and forward concurrently. Defaults to the host's
    /// available parallelism.
    pub shards: usize,
    /// Admission bound per shard queue. When every shard is at its bound,
    /// submits fail fast with [`ServeError::Shed`] instead of queueing
    /// unboundedly. Defaults to 1024.
    pub queue_bound: usize,
    /// Optional response cache with in-flight deduplication: forecasts are
    /// memoized by `(snapshot generation, window bits)` — exact, because a
    /// forecaster is a pure function of those — and identical concurrent
    /// requests share one forward. `None` (the default) disables caching.
    pub cache: Option<CachePolicy>,
    /// Cross-shard work stealing (on by default): a shard worker whose
    /// own queue is empty drains up to `max_batch` of the oldest requests
    /// from a hot sibling's queue and runs them as its own batch, instead
    /// of sleeping while the sibling's backlog grows. Admission control,
    /// the drain protocol and response bits are all unchanged — stealing
    /// moves only already-admitted requests, every stolen request is
    /// processed immediately by the thief, and batched forwards are
    /// bitwise independent of batch composition (DESIGN.md §15).
    pub steal: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: BatchPolicy::default(),
            target_channel: 0,
            reload_interval: None,
            shards: urcl_tensor::host_parallelism(),
            queue_bound: 1024,
            cache: None,
            steal: true,
        }
    }
}

/// Errors surfaced by the serving runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No checkpoint has been loaded yet — the trainer has not published
    /// one, or every reload so far failed.
    NoSnapshot,
    /// The request does not fit the model's geometry, or its window
    /// holds a non-finite reading.
    BadRequest(String),
    /// A checkpoint reload failed; the previous snapshot (if any) is
    /// still serving.
    Reload(String),
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// Admission control rejected the request: every shard queue of the
    /// tenant was at its bound. `depth` is the deepest queue observed
    /// during the routing sweep. Typed backpressure — callers decide
    /// whether to retry, downsample, or surface the overload.
    Shed {
        /// Tenant that shed the request.
        tenant: String,
        /// Deepest shard queue observed at rejection time.
        depth: usize,
    },
    /// No tenant with that name is registered.
    UnknownTenant(String),
    /// A tenant with that name is already registered.
    TenantExists(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoSnapshot => write!(f, "no model snapshot loaded yet"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Reload(msg) => write!(f, "checkpoint reload failed: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Shed { tenant, depth } => write!(
                f,
                "request shed: tenant {tenant:?} at admission bound (queue depth {depth})"
            ),
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            ServeError::TenantExists(name) => write!(f, "tenant {name:?} already registered"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One horizon forecast in physical units.
#[derive(Debug, Clone)]
pub struct Forecast {
    /// `[H, N]` predictions of the target channel, denormalized.
    pub prediction: Tensor,
    /// Generation of the [`ModelSnapshot`] that served this request —
    /// after a hot-swap, responses computed on the old snapshot are
    /// distinguishable from those on the new one.
    pub generation: u64,
}

/// A submitted request's reply handle (one-shot).
pub struct PendingForecast {
    rx: mpsc::Receiver<Result<Forecast, ServeError>>,
}

impl PendingForecast {
    pub(crate) fn new(rx: mpsc::Receiver<Result<Forecast, ServeError>>) -> Self {
        Self { rx }
    }

    /// Blocks until the batch containing this request has run.
    pub fn wait(self) -> Result<Forecast, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Blocks for at most `timeout`; `None` means the reply has not
    /// arrived yet (the handle is consumed — watchdog use, where a
    /// missing reply is itself the failure being tested).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<Forecast, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Point-in-time serving statistics — for a single-tenant [`Server`]
/// these are the counters of its one tenant.
pub type ServerStats = TenantStats;

/// A sharded, batched inference server over one [`Backbone`] — the
/// single-tenant facade over the same runtime [`crate::Tenants`] uses.
///
/// The server owns `shards` worker threads that drain per-shard request
/// queues under the [`BatchPolicy`], and (optionally) a reload thread
/// that follows a trainer's [`CheckpointDir`]. Dropping the server shuts
/// everything down gracefully: queued requests are completed first, and
/// later [`Server::submit`] calls fail with [`ServeError::ShuttingDown`].
pub struct Server {
    // Field order is drop order: the runtime must drain before the
    // client handle goes away (either order is safe; this one is tidy).
    runtime: TenantRuntime,
    client: TenantClient,
}

impl Server {
    /// Starts the server.
    ///
    /// `model` is the backbone *architecture* — its weights are ignored;
    /// every forward pass reads parameters from the current snapshot.
    /// `template` is the [`ParamStore`] the model was constructed
    /// against; it defines the layout checkpoints must match. If `source`
    /// already holds a loadable checkpoint it becomes the initial
    /// snapshot; otherwise the server starts empty and answers
    /// [`ServeError::NoSnapshot`] until a reload succeeds.
    pub fn start(
        model: impl Backbone + Send + Sync + 'static,
        template: ParamStore,
        source: CheckpointDir,
        config: ServeConfig,
    ) -> Self {
        let runtime = TenantRuntime::start("default", Box::new(model), template, source, config);
        let client = runtime.client();
        Self { runtime, client }
    }

    /// A cheap clonable handle for submitting from other threads without
    /// borrowing the server.
    pub fn client(&self) -> TenantClient {
        self.runtime.client()
    }

    /// Enqueues one `[M, N, C]` physical-unit window and returns a reply
    /// handle. The window's geometry is validated eagerly; normalization
    /// happens inside the batch, with the snapshot that serves it.
    pub fn submit(&self, window: Tensor) -> Result<PendingForecast, ServeError> {
        self.client.submit(window)
    }

    /// Submits one window and blocks for its forecast.
    pub fn predict(&self, window: &Tensor) -> Result<Forecast, ServeError> {
        self.client.predict(window)
    }

    /// Submits a whole burst at once and blocks for every forecast, in
    /// order. Bursts larger than the policy's `max_batch` are simply
    /// split across consecutive batches by the workers.
    pub fn predict_many(&self, windows: &[Tensor]) -> Result<Vec<Forecast>, ServeError> {
        self.client.predict_many(windows)
    }

    /// Checks the checkpoint directory and hot-swaps the snapshot if the
    /// trainer has published a new checkpoint since the last reload.
    /// Returns `true` when a swap happened, `false` when the fingerprint
    /// was unchanged. In-flight batches finish on the old snapshot; the
    /// swap takes effect from the next batch. On failure the old snapshot
    /// keeps serving and the error is returned.
    pub fn reload_now(&self) -> Result<bool, ServeError> {
        self.client.reload_now()
    }

    /// Whether a snapshot is currently loaded.
    pub fn has_snapshot(&self) -> bool {
        self.client.has_snapshot()
    }

    /// The currently serving snapshot (if any). The returned `Arc` stays
    /// valid across hot-swaps — exactly the guarantee in-flight batches
    /// rely on.
    pub fn snapshot(&self) -> Option<Arc<ModelSnapshot>> {
        self.client.snapshot()
    }

    /// Generation of the current snapshot, or `None` before the first
    /// successful load.
    pub fn generation(&self) -> Option<u64> {
        self.client.generation()
    }

    /// Point-in-time counters (requests, sheds, batches, swaps, cache).
    pub fn stats(&self) -> ServerStats {
        self.client.stats()
    }

    /// The model geometry requests must match (`[M, N, C]` windows).
    pub fn input_shape(&self) -> [usize; 3] {
        self.client.input_shape()
    }
}

/// Forward-only inference for a batch of raw `[M, N, C]` physical-unit
/// windows on one snapshot: normalize, stack into `[B, M, N, C]`, run one
/// forward pass, split into per-window `[H, N]` forecasts and denormalize
/// the target channel.
///
/// This is the exact computation the serving workers perform per batch,
/// exposed so the batching invariant is testable in isolation: because
/// the tensor runtime only ever parallelizes over disjoint output
/// regions, a batched forward is **bitwise identical** to running each
/// window through a batch of one.
pub fn forward_batch<B: Backbone + ?Sized>(
    model: &B,
    snapshot: &ModelSnapshot,
    windows: &[Tensor],
    target_channel: usize,
) -> Vec<Tensor> {
    if windows.is_empty() {
        return Vec::new();
    }
    let cfg = model.config();
    let (m, n, c) = (cfg.input_steps, cfg.num_nodes, cfg.channels);
    let norm = snapshot.normalizer();
    let mut x = Tensor::zeros(&[windows.len(), m, n, c]);
    for (window, dst) in windows.iter().zip(x.data_mut().chunks_exact_mut(m * n * c)) {
        norm.transform_into(window, dst);
    }

    // Replay the snapshot's compiled plan for this batch shape; the
    // hot-swap suite pins it bitwise to a cold recording of the model.
    let plan = snapshot.forward_plan(model, &x);
    let _sp = urcl_trace::span("serve_forward");
    let pred = plan.run_forward(snapshot.store(), &[&x]).remove(0); // [B, H, N]
    let (h, nodes) = (pred.shape()[1], pred.shape()[2]);
    (0..windows.len())
        .map(|i| {
            let yi = pred.narrow(0, i, 1).reshape(&[h, nodes]);
            norm.inverse_target(&yi, target_channel)
        })
        .collect()
}
