//! # urcl-serve
//!
//! A multi-tenant batched CPU inference runtime for URCL forecasters —
//! the *answering* half of the paper's deployment story, where the
//! *learning* half is the continual trainer in `urcl-core`.
//!
//! One process serves many dataset/model **tenants** (METR-LA, PEMS-BAY,
//! PEMS04, PEMS08 analogues, …) concurrently through a [`Tenants`]
//! registry; a single-model deployment is a registry of one. Each tenant
//! owns:
//!
//! * **One request queue** drained by [`ServeConfig::workers`] threads.
//!   The request path takes only its tenant's queue lock: no global
//!   lock, no cross-tenant contention. Concurrent requests coalesce into
//!   batches under a [`BatchPolicy`] (`max_batch`/`max_delay`) and run as
//!   one forward. By default a worker takes whatever is queued, up to
//!   `max_batch`, at once, so requests that arrive during a forward join
//!   the next batch; a positive `max_delay` holds each batch open to
//!   fill, one worker at a time, so a burst fills whole batches whatever
//!   the number of workers.
//! * **Admission control** — the queue is bounded
//!   ([`ServeConfig::queue_bound`]); when it is full the submit fails
//!   fast with [`ServeError::Shed`], carrying the tenant name and the
//!   queue's depth. Overload is typed backpressure, not unbounded memory
//!   growth.
//! * **Hot-swap** — weights and normalizer statistics come from
//!   `urcl-ckpt-v2` checkpoints in the tenant's own
//!   [`urcl_core::CheckpointDir`] (the very directory that tenant's
//!   still-running [`urcl_core::UrclPipeline`] trainer writes into) and
//!   swap atomically between batches via `Arc<`[`ModelSnapshot`]`>`.
//!   Every batch captures the `Arc` once, so in-flight requests always
//!   complete on the snapshot they started with. Every snapshot a tenant
//!   loads replays the tenant's one compiled forward plan, so a swap
//!   loads weights and never recompiles; torn or unloadable
//!   checkpoints fall back per tenant and never take the server down
//!   (see DESIGN.md §10 and §13).
//! * **Response cache** (optional, [`CachePolicy`]) — a forecaster is a
//!   pure function of `(snapshot generation, window)`, so completed
//!   forecasts are memoized *exactly* (keys compare the full window bit
//!   pattern) and identical concurrent requests deduplicate onto one
//!   in-flight forward. Hot-swaps purge stale generations.
//!
//! The registry is externally drivable over the wire: [`HttpServer`]
//! (module [`http`]) binds a std-only HTTP/1.1 listener with a bounded
//! connection-worker pool and serves `POST
//! /v1/tenants/{name}/forecast` with JSON windows, mapping every
//! [`ServeError`] onto a typed 4xx/5xx status.
//!
//! The whole path is instrumented with `urcl-trace`: global
//! `serve.requests` / `serve.batches` / `serve.shed` / `serve.swaps` /
//! `serve.reload_failures` counters plus per-tenant
//! `serve.tenant.{name}.*` counters, `serve.tenant.{name}.batch_size` and
//! `.latency_seconds` histograms (exported with estimated `p50`/`p95`/
//! `p99`), and a `serve.tenant.{name}.queue_depth` gauge. `bench_serve`
//! (in `crates/bench`) sweeps threads × workers × tenants × client counts
//! over this runtime and writes `BENCH_serve.json`.
//!
//! ## Quick use (single tenant)
//!
//! ```no_run
//! use std::time::Duration;
//! use urcl_core::CheckpointDir;
//! use urcl_models::{GraphWaveNet, GwnConfig};
//! use urcl_serve::{ServeConfig, Tenants};
//! use urcl_tensor::{ParamStore, Rng, Tensor};
//!
//! // Rebuild the *architecture* the trainer used (weights come from disk).
//! let mut template = ParamStore::new();
//! let mut rng = Rng::seed_from_u64(0);
//! let network = urcl_graph::random_geometric(24, 0.3, &mut rng);
//! let model = GraphWaveNet::new(&mut template, &mut rng, &network,
//!     GwnConfig::small(24, 2, 12, 1));
//!
//! let config = ServeConfig {
//!     reload_interval: Some(Duration::from_millis(500)), // follow the trainer
//!     ..ServeConfig::default()
//! };
//! let tenants = Tenants::new(); // dropping it drains every tenant
//! let client = tenants.add("metr-la", model, template,
//!     CheckpointDir::new("ckpts").unwrap(), config).unwrap();
//! let window = Tensor::zeros(&[12, 24, 2]); // [M, N, C], physical units
//! let forecast = client.predict(&window).unwrap();
//! println!("horizon forecast {:?} from snapshot generation {}",
//!     forecast.prediction.shape(), forecast.generation);
//! ```
//!
//! ## Multi-tenant
//!
//! ```no_run
//! use urcl_core::CheckpointDir;
//! use urcl_serve::{CachePolicy, ServeConfig, Tenants};
//! # fn build_model() -> (urcl_models::GraphWaveNet, urcl_tensor::ParamStore) {
//! #     let mut template = urcl_tensor::ParamStore::new();
//! #     let mut rng = urcl_tensor::Rng::seed_from_u64(0);
//! #     let network = urcl_graph::random_geometric(24, 0.3, &mut rng);
//! #     let model = urcl_models::GraphWaveNet::new(&mut template, &mut rng,
//! #         &network, urcl_models::GwnConfig::small(24, 2, 12, 1));
//! #     (model, template)
//! # }
//!
//! let tenants = Tenants::new();
//! for name in ["metr-la", "pems-bay"] {
//!     let (model, template) = build_model(); // per-tenant architecture
//!     tenants.add(name, model, template,
//!         CheckpointDir::new(format!("ckpts/{name}")).unwrap(),
//!         ServeConfig {
//!             workers: 2,
//!             cache: Some(CachePolicy::default()),
//!             ..ServeConfig::default()
//!         }).unwrap();
//! }
//! let la = tenants.client("metr-la").unwrap(); // lock-free request path
//! let window = urcl_tensor::Tensor::zeros(&[12, 24, 2]);
//! match la.predict(&window) {
//!     Ok(f) => println!("{:?}", f.prediction.shape()),
//!     Err(urcl_serve::ServeError::Shed { tenant, depth }) => {
//!         eprintln!("overloaded: {tenant} at depth {depth}");
//!     }
//!     Err(e) => eprintln!("{e}"),
//! }
//! ```

#![warn(missing_docs)]

mod cache;
pub mod http;
mod queue;
mod server;
mod snapshot;
mod tenant;

pub use cache::CachePolicy;
pub use http::{HttpConfig, HttpServer, HttpStats};
pub use server::{forward_batch, BatchPolicy, Forecast, PendingForecast, ServeConfig, ServeError};
pub use snapshot::ModelSnapshot;
pub use tenant::{TenantClient, TenantStats, Tenants};
