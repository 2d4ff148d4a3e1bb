//! Shared serving types and the batched forward pass.
//!
//! The runtime itself (queues, workers, admission control, hot-swap)
//! lives in [`crate::tenant`]; a single-model deployment is a
//! [`crate::Tenants`] registry holding one tenant.

use std::sync::mpsc;
use std::time::Duration;

use urcl_models::Backbone;
use urcl_tensor::Tensor;

use crate::cache::CachePolicy;
use crate::snapshot::ModelSnapshot;

/// Request-coalescing policy.
///
/// The worker whose turn it is takes up to `max_batch` of the oldest
/// queued requests as one batch. With the default `max_delay` of zero it
/// takes them at once: a lone request runs as a batch of one, and the
/// requests that arrive while a forward runs coalesce into the next
/// batch. A positive `max_delay` holds the batch open for up to that
/// long after its oldest request, waiting for concurrent requests to
/// fill it to `max_batch`; whichever limit is hit first closes the
/// batch, so a sparse client pays at most `max_delay` extra latency.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Largest number of requests fused into one forward pass.
    pub max_batch: usize,
    /// Longest a batch is held open waiting to fill (zero: never).
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_delay: Duration::ZERO,
        }
    }
}

/// Per-tenant serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Request-coalescing policy. The default batches whatever is
    /// queued, up to 8 requests, without waiting for more.
    pub policy: BatchPolicy,
    /// Which input channel the forecasts denormalize as (the dataset's
    /// `target_channel`).
    pub target_channel: usize,
    /// When set, a background thread polls the checkpoint directory at
    /// this interval and hot-swaps the snapshot whenever the trainer has
    /// published a new checkpoint
    /// ([`urcl_core::CheckpointDir::fingerprint`] makes the no-change case
    /// a single `stat` call). `None` leaves reloads to explicit
    /// [`crate::TenantClient::reload_now`] calls.
    pub reload_interval: Option<Duration>,
    /// Worker threads draining the tenant's request queue. One worker at
    /// a time takes a batch (holding it open first when the policy sets
    /// a `max_delay`); the others forward the batches already taken, so
    /// on multi-core hosts batches run concurrently. Defaults to the
    /// host's available parallelism.
    pub workers: usize,
    /// Admission bound of the tenant's request queue. When the queue is
    /// at its bound, submits fail fast with [`ServeError::Shed`] instead
    /// of queueing unboundedly. Defaults to 1024.
    pub queue_bound: usize,
    /// Optional response cache with in-flight deduplication: forecasts are
    /// memoized by `(snapshot generation, window bits)` — exact, because a
    /// forecaster is a pure function of those — and identical concurrent
    /// requests share one forward. `None` (the default) disables caching.
    pub cache: Option<CachePolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: BatchPolicy::default(),
            target_channel: 0,
            reload_interval: None,
            workers: urcl_tensor::host_parallelism(),
            queue_bound: 1024,
            cache: None,
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
    /// Admission control rejected the request: the tenant's queue was at
    /// its bound. Typed backpressure — callers decide whether to retry,
    /// downsample, or surface the overload.
    Shed {
        /// Tenant that shed the request.
        tenant: String,
        /// The tenant's queue depth at rejection time.
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
