//! The serving workloads: an `HttpServer` over one METR-LA tenant with the
//! `ServeConfig::default()` shards and batching, driven by 2 keep-alive
//! connections in a closed loop while a generator thread publishes
//! checkpoints and swaps them in with `TenantClient::reload_now`.
//!
//! * `serve_wire` — response cache off, every request POSTs a distinct
//!   window, and the generator publishes a few times over the run (a
//!   trainer finishing periods).
//! * `serve_hot_swap` — response cache on, both connections cycle a shared
//!   hot set of the 8 latest windows, and the generator publishes every
//!   fixed number of requests, so cache purges, checkpoint loads and plan
//!   compiles run beside the reads.
//!
//! A publish renames a pre-serialized full checkpoint over `latest.ckpt`,
//! which keeps fsync out of the serving numbers. The two checkpoints carry
//! the same weights and differ in their description (and so in length and
//! fingerprint): forecasts then do not depend on which generation served
//! them, and the forecast MAE repeats exactly at a fixed seed.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use urcl::core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl::json::Value;
use urcl::models::GraphWaveNet;
use urcl::serve::{
    forward_batch, CachePolicy, HttpConfig, HttpServer, ServeConfig, TenantClient, TenantStats,
    Tenants,
};
use urcl::stdata::{DatasetConfig, SyntheticDataset};
use urcl::tensor::Tensor;

use crate::{
    host, layers, mean, median, quantile, sub_seed, wire, Checks, Measured, Opts, Workload,
};

const TENANT: &str = "metr-la";
/// Keep-alive client connections, each a closed loop.
const CONNECTIONS: usize = 2;
/// Windows in `serve_hot_swap`'s shared hot set.
const HOT_SET: usize = 8;
/// Warm-up requests per connection during set-up.
const WARMUP: usize = 8;
/// One round of requests in this many (a request per connection) is
/// re-computed in process and compared bit for bit.
const SAMPLE_EVERY: usize = 32;

/// The fixed work of one run.
#[derive(Clone, Copy)]
struct Plan {
    requests: usize,
    /// Publishes over the run, evenly spaced by completed requests.
    swaps: usize,
}

impl Plan {
    /// Request counts sized from `--seconds` with the throughput of the
    /// reference host (2 vCPUs), so a run takes about that long there.
    fn new(opts: &Opts) -> Self {
        let hot = opts.workload == Workload::ServeHotSwap;
        if opts.smoke {
            return Self {
                requests: 96,
                swaps: 2,
            };
        }
        let (rate, swap_rate) = if hot { (1500, 1) } else { (500, 1) };
        let seconds = opts.seconds as usize;
        Self {
            requests: rate * seconds / CONNECTIONS * CONNECTIONS,
            swaps: (swap_rate * seconds).max(4),
        }
    }

    fn swap_every(&self) -> u64 {
        (self.requests / (self.swaps + 1)) as u64
    }
}

/// A running server, its client connections and the data behind them.
struct Fixture {
    // Field order is drop order: the connections close before the server
    // drains, so its workers see EOF instead of waiting out a timeout.
    streams: Vec<TcpStream>,
    server: HttpServer,
    client: TenantClient,
    _tenants: Arc<Tenants>,
    /// The tenant's checkpoint directory and the two pre-serialized
    /// checkpoints the generator alternates between.
    live: PathBuf,
    published: [Vec<u8>; 2],
    reference: GraphWaveNet,
    /// Request bytes of every hot-set window, by window start (empty
    /// when every request carries a distinct window).
    prebuilt: BTreeMap<usize, Vec<u8>>,
    /// Raw physical-unit series `[T, N, C]`.
    series: Tensor,
    /// Window start of every request, by global request index.
    starts: Vec<usize>,
    m: usize,
    n: usize,
    c: usize,
    h: usize,
    target: usize,
}

impl Fixture {
    /// Data synthesis, model build, initial publish, tenant load, listener
    /// bind and warm-up.
    fn build(opts: &Opts, plan: &Plan, rep: usize) -> Self {
        let hot = opts.workload == Workload::ServeHotSwap;
        let mut cfg = DatasetConfig::metr_la();
        cfg.seed = sub_seed(opts.seed, 1);
        if opts.smoke {
            cfg = cfg.tiny();
            cfg.num_days = 4;
        }
        let (m, h) = (cfg.input_steps, cfg.output_steps);
        if !hot {
            // Enough slots for a distinct window per request and warm-up.
            let slots = plan.requests + CONNECTIONS * WARMUP + m + h;
            cfg.num_days = cfg.num_days.max(slots.div_ceil(cfg.steps_per_day()));
        }
        let ds = SyntheticDataset::generate(cfg);
        let (n, c) = (ds.config.num_nodes, ds.config.num_channels());
        let target = ds.config.target_channel;
        let t = ds.series.shape()[0];
        let last = t - m - h; // latest window start that still has a target
        let starts: Vec<usize> = if hot {
            // The hot set is the 8 latest windows as of each publish: it
            // advances through the month in `swaps + 1` equal request
            // slices and ends at the latest window with a target. Request
            // `k` goes out on connection `k % CONNECTIONS`, so indexing by
            // the round `k / CONNECTIONS` walks both connections through the
            // same windows in step: they share entries and, after a purge,
            // race for the same key.
            let sets = plan.swaps + 1;
            (0..plan.requests)
                .map(|k| {
                    let set = k * sets / plan.requests;
                    let end = HOT_SET - 1 + (last + 1 - HOT_SET) * (set + 1) / sets;
                    end + 1 - HOT_SET + (k / CONNECTIONS) % HOT_SET
                })
                .collect()
        } else {
            (0..plan.requests).collect()
        };
        // Hot-set request bytes are built once, here; distinct windows are
        // encoded by the client just before their round trip.
        let mut prebuilt = BTreeMap::new();
        if hot {
            for &start in &starts {
                prebuilt.entry(start).or_insert_with(|| {
                    let body = wire::window_body(ds.series.narrow(0, start, m).data(), n, c);
                    wire::forecast_request(TENANT, &body)
                });
            }
        }

        let trainer_cfg = TrainerConfig::default();
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            trainer_cfg.clone(),
            sub_seed(opts.seed, 3),
        );
        pipe.observe_period_statistics_only(&ds.continual_split(4).base.series);
        let live = opts.run_dir.join(format!("tenant-{rep}"));
        let staging = opts.run_dir.join(format!("staging-{rep}"));
        let live_slots = CheckpointDir::new(&live).expect("tenant checkpoint directory");
        let staged = CheckpointDir::new(&staging).expect("staging directory");
        // Descriptions of different lengths make the two files differ in
        // size, so every publish changes the fingerprint (size, mtime) even
        // within one mtime tick.
        pipe.save_checkpoint(&staged, "publish BB")
            .expect("stage checkpoint");
        pipe.save_checkpoint(&live_slots, "publish A")
            .expect("initial publish");
        let read = |p: PathBuf| std::fs::read(p).expect("read a published checkpoint");
        let published = [read(live_slots.latest_path()), read(staged.latest_path())];

        let (model, template) =
            UrclPipeline::serving_parts_dyn(&ds.network, &ds.config, &trainer_cfg);
        let (reference, _) = UrclPipeline::serving_parts(&ds.network, &ds.config, &trainer_cfg);
        let tenants = Arc::new(Tenants::new());
        let client = tenants
            .add(
                TENANT,
                model,
                template,
                live_slots,
                ServeConfig {
                    target_channel: target,
                    cache: hot.then(CachePolicy::default),
                    ..ServeConfig::default()
                },
            )
            .expect("register the tenant");
        assert!(
            client.has_snapshot(),
            "the tenant loads the initial checkpoint"
        );
        let server = HttpServer::bind(Arc::clone(&tenants), HttpConfig::default())
            .expect("bind the listener");
        let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
            .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
            .collect();
        let mut buf = Vec::new();
        for (i, stream) in streams.iter_mut().enumerate() {
            stream.set_nodelay(true).expect("TCP_NODELAY");
            // A stalled server fails the run's remaining requests instead
            // of hanging it.
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            // Hot: the first hot set, so the cache starts as it would live.
            // Wire: windows the timed phase never sends.
            let warm: Vec<usize> = if hot {
                (0..WARMUP).map(|w| starts[w * CONNECTIONS]).collect()
            } else {
                (0..WARMUP).map(|w| last - i * WARMUP - w).collect()
            };
            for start in warm {
                let body = wire::window_body(ds.series.narrow(0, start, m).data(), n, c);
                let (status, _) =
                    wire::round_trip(stream, &wire::forecast_request(TENANT, &body), &mut buf)
                        .expect("warm-up request");
                assert_eq!(status, 200, "warm-up request answered");
            }
        }
        Self {
            streams,
            server,
            client,
            _tenants: tenants,
            live,
            published,
            reference,
            prebuilt,
            series: ds.series,
            starts,
            m,
            n,
            c,
            h,
            target,
        }
    }

    fn window(&self, start: usize) -> Tensor {
        self.series.narrow(0, start, self.m)
    }

    /// The `[H, N]` readings following the window at `start`.
    fn truth(&self, start: usize) -> Vec<f32> {
        let next = self.series.narrow(0, start + self.m, self.h);
        next.data()
            .chunks(self.c)
            .map(|channels| channels[self.target])
            .collect()
    }
}

/// State the connections and the generator share during the timed phase.
#[derive(Default)]
struct Shared {
    completed: AtomicU64,
    /// Every request sent from now on must come back at least this new.
    /// Stored (Release) once `reload_now` has returned, loaded (Acquire)
    /// before each send.
    floor: AtomicU64,
    /// When each generation's first response arrived.
    first_seen: Mutex<BTreeMap<u64, Instant>>,
    gate: Mutex<()>,
    wake: Condvar,
}

/// One connection's record of the timed phase.
#[derive(Default)]
struct ConnLog {
    rtt_s: Vec<f64>,
    bad_responses: u64,
    stale: u64,
    abs_err: f64,
    errs: u64,
    /// `(request index, prediction)` of every sampled request.
    samples: Vec<(usize, Vec<f32>)>,
}

/// The forecast request for the window starting at `start`.
fn request_for(fx: &Fixture, start: usize) -> Vec<u8> {
    wire::forecast_request(
        TENANT,
        &wire::window_body(fx.window(start).data(), fx.n, fx.c),
    )
}

fn connection(
    fx: &Fixture,
    shared: &Shared,
    plan: &Plan,
    conn: usize,
    stream: &mut TcpStream,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut buf = Vec::new();
    let mut newest = 0;
    let swap_every = plan.swap_every();
    for k in (conn..plan.requests).step_by(CONNECTIONS) {
        let start = fx.starts[k];
        let fresh;
        let request = match fx.prebuilt.get(&start) {
            Some(bytes) => bytes,
            None => {
                fresh = request_for(fx, start);
                &fresh
            }
        };
        let floor = shared.floor.load(Ordering::Acquire);
        let t0 = Instant::now();
        let sent = wire::round_trip(stream, request, &mut buf);
        let done = Instant::now();
        let forecast = match sent {
            Ok((200, body)) => wire::parse_forecast(&buf[body..], fx.h, fx.n),
            Ok(_) => None,
            Err(e) => {
                // A broken connection fails this and every later request
                // it would have sent.
                eprintln!("perfbench: connection {conn} failed: {e}");
                let rest = (k..plan.requests).step_by(CONNECTIONS).count() as u64;
                log.bad_responses += rest;
                shared.completed.fetch_add(rest, Ordering::AcqRel);
                let _gate = shared.gate.lock().expect("swap gate");
                shared.wake.notify_all();
                break;
            }
        };
        match forecast {
            Some(f) => {
                log.rtt_s.push(done.duration_since(t0).as_secs_f64());
                if f.generation < floor {
                    log.stale += 1;
                }
                if f.generation > newest {
                    newest = f.generation;
                    let mut seen = shared.first_seen.lock().expect("first-seen map");
                    let at = seen.entry(f.generation).or_insert(done);
                    *at = (*at).min(done);
                    drop(seen);
                    let _gate = shared.gate.lock().expect("swap gate");
                    shared.wake.notify_all();
                }
                for (p, y) in f.prediction.iter().zip(fx.truth(start)) {
                    log.abs_err += f64::from((p - y).abs());
                    log.errs += 1;
                }
                if (k / CONNECTIONS).is_multiple_of(SAMPLE_EVERY) {
                    log.samples.push((k, f.prediction));
                }
            }
            None => log.bad_responses += 1,
        }
        let completed = shared.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if completed.is_multiple_of(swap_every) {
            let _gate = shared.gate.lock().expect("swap gate");
            shared.wake.notify_all();
        }
    }
    log
}

/// The generator's record: per swap, the publish instant, the new
/// generation and how long `reload_now` took.
struct SwapLog {
    published: Vec<(u64, Instant)>,
    reload_s: Vec<f64>,
    failed: u64,
}

fn generator(fx: &Fixture, shared: &Shared, plan: &Plan) -> SwapLog {
    let mut log = SwapLog {
        published: Vec::new(),
        reload_s: Vec::new(),
        failed: 0,
    };
    let latest = fx.live.join("latest.ckpt");
    let staging = fx.live.join("publish.tmp");
    let total = plan.requests as u64;
    let mut previous: Option<u64> = None;
    for i in 1..=plan.swaps {
        // Publish once the schedule is due and the previous publish has
        // served a response, so no generation is superseded unseen.
        let due = i as u64 * plan.swap_every();
        let mut gate = shared.gate.lock().expect("swap gate");
        loop {
            let completed = shared.completed.load(Ordering::Acquire);
            let live = previous.is_none_or(|g| {
                shared
                    .first_seen
                    .lock()
                    .expect("first-seen map")
                    .contains_key(&g)
            });
            if completed >= total || (completed >= due && live) {
                break;
            }
            gate = shared
                .wake
                .wait_timeout(gate, Duration::from_millis(20))
                .expect("swap gate")
                .0;
        }
        drop(gate);
        if shared.completed.load(Ordering::Acquire) >= total {
            // The run ended first: the remaining publishes never happen.
            log.failed += (plan.swaps + 1 - i) as u64;
            break;
        }
        std::fs::write(&staging, &fx.published[i % 2]).expect("stage a publish");
        std::fs::rename(&staging, &latest).expect("publish");
        let at = Instant::now();
        let swapped = fx.client.reload_now();
        log.reload_s.push(at.elapsed().as_secs_f64());
        let generation = fx.client.generation().unwrap_or(0);
        if swapped != Ok(true) {
            log.failed += 1;
        }
        shared.floor.store(generation, Ordering::Release);
        log.published.push((generation, at));
        previous = Some(generation);
    }
    log
}

/// What one timed pass measured.
struct Pass {
    wall_s: f64,
    conns: Vec<ConnLog>,
    swaps: SwapLog,
    lag_s: Vec<f64>,
    missing_lags: u64,
    contention: host::Contention,
    rss_growth_kib: f64,
    /// Tenant counters over this pass alone.
    tenant: TenantStats,
}

/// `after − before`, field by field.
fn stats_delta(before: &TenantStats, after: &TenantStats) -> TenantStats {
    TenantStats {
        requests: after.requests - before.requests,
        shed: after.shed - before.shed,
        batches: after.batches - before.batches,
        max_batch: after.max_batch,
        swaps: after.swaps - before.swaps,
        reload_failures: after.reload_failures - before.reload_failures,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        dedup_joins: after.dedup_joins - before.dedup_joins,
        steals: after.steals - before.steals,
        stolen: after.stolen - before.stolen,
    }
}

fn timed_pass(fx: &mut Fixture, plan: &Plan) -> Pass {
    let shared = Shared::default();
    let mut streams = std::mem::take(&mut fx.streams);
    let fx_ref: &Fixture = fx;
    let stats0 = fx.client.stats();
    let rss0 = host::rss_kib();
    let host0 = host::sample();
    let t0 = Instant::now();
    let (conns, swaps) = std::thread::scope(|s| {
        let conns: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(i, stream)| {
                let shared = &shared;
                s.spawn(move || connection(fx_ref, shared, plan, i, stream))
            })
            .collect();
        let swaps = generator(fx_ref, &shared, plan);
        let conns: Vec<ConnLog> = conns
            .into_iter()
            .map(|h| h.join().expect("client connection"))
            .collect();
        (conns, swaps)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let contention = host::Contention::between(&host0, &host::sample());
    let rss_growth_kib = host::rss_kib() - rss0;
    let tenant = stats_delta(&stats0, &fx.client.stats());
    fx.streams = streams;
    let seen = shared.first_seen.into_inner().expect("first-seen map");
    let mut lag_s = Vec::new();
    let mut missing_lags = 0;
    for (generation, at) in &swaps.published {
        match seen.get(generation) {
            Some(first) => lag_s.push(first.saturating_duration_since(*at).as_secs_f64()),
            None => missing_lags += 1,
        }
    }
    Pass {
        wall_s,
        conns,
        swaps,
        lag_s,
        missing_lags,
        contention,
        rss_growth_kib,
        tenant,
    }
}

/// Runs one serving workload (`serve_wire` or `serve_hot_swap`).
pub fn run(opts: &Opts) -> Measured {
    let plan = Plan::new(opts);
    // Set-up is short and jittery (fsync, bind): build it several times,
    // keep the last; earlier servers drain as they drop.
    let mut setup = Vec::new();
    let mut fixture = None;
    for rep in 0..opts.setup_reps() {
        drop(fixture.take());
        let t0 = Instant::now();
        fixture = Some(Fixture::build(opts, &plan, rep));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut fx = fixture.expect("at least one set-up");

    if opts.trace {
        urcl::trace::reset();
        urcl::trace::enable();
    }
    let pass = timed_pass(&mut fx, &plan);
    urcl::trace::disable();
    let stats = &pass.tenant;
    let http = fx.server.stats();

    let mut out = Measured::default();
    let rtt: Vec<f64> = pass
        .conns
        .iter()
        .flat_map(|c| c.rtt_s.iter().copied())
        .collect();
    let bad: u64 = pass.conns.iter().map(|c| c.bad_responses).sum();
    let stale: u64 = pass.conns.iter().map(|c| c.stale).sum();
    let mut checks = Checks::default();
    checks.count(bad, "every response is a 200 with an [H, N] forecast");
    checks.count(
        stale,
        "after each swap the next response carries the new generation",
    );
    checks.count(
        pass.swaps.failed + pass.missing_lags,
        "every publish swaps in and is observed",
    );
    checks.expect(
        stats.shed == 0
            && stats.reload_failures == 0
            && http.responses_4xx + http.responses_5xx == 0,
        "no request shed, refused or failed server-side",
    );
    // The sampled wire forecasts against the in-process forward on the
    // live snapshot (same weights in every generation).
    let snapshot = fx.client.snapshot().expect("a live snapshot");
    let samples: Vec<&(usize, Vec<f32>)> = pass.conns.iter().flat_map(|c| &c.samples).collect();
    let mismatched = samples
        .iter()
        .filter(|(k, prediction)| {
            let window = fx.window(fx.starts[*k]);
            let local = forward_batch(&fx.reference, &snapshot, &[window], fx.target);
            local[0]
                .data()
                .iter()
                .map(|v| v.to_bits())
                .ne(prediction.iter().map(|v| v.to_bits()))
        })
        .count() as u64;
    checks.count(
        mismatched + u64::from(samples.is_empty()),
        "sampled wire forecasts equal forward_batch in process, bit for bit",
    );
    let abs_err: f64 = pass.conns.iter().map(|c| c.abs_err).sum();
    let errs: u64 = pass.conns.iter().map(|c| c.errs).sum();
    let mae = abs_err / errs.max(1) as f64;
    checks.expect_repeatable(
        opts,
        &[(mae as f32).to_bits()],
        "forecast MAE bits repeat across runs of one seed",
    );
    out.attempted = plan.requests as u64 + plan.swaps as u64;
    out.failed = checks.failed;

    out.set("setup_s", median(&setup));
    out.set("protocol_s", pass.wall_s);
    out.set("update_s", median(&pass.lag_s));
    out.set("latency_ms", median(&rtt) * 1e3);
    out.set("peak_rss_mb", host::peak_rss_mib());
    out.set("core.eval.mae", mae);

    out.note("checks", checks.to_json());
    out.note("requests", rtt.len());
    out.note("swaps", pass.lag_s.len());
    out.note("bitwise_samples", samples.len());
    out.note("setup_samples_s", setup.clone());
    out.note("throughput_rps", rtt.len() as f64 / pass.wall_s);
    // Tails are reported, not gated: they moved with host steal far more
    // than any bound allows (see NOTES.md).
    out.note("latency_p90_ms", quantile(&rtt, 0.9) * 1e3);
    out.note("latency_p99_ms", quantile(&rtt, 0.99) * 1e3);
    out.note("latency_samples", rtt.len());
    out.note(
        "swap_lag_ms",
        pass.lag_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    out.note(
        "tenant",
        Value::object()
            .with("requests", stats.requests)
            .with("batches", stats.batches)
            .with("cache_hits", stats.cache_hits)
            .with("cache_misses", stats.cache_misses)
            .with("dedup_joins", stats.dedup_joins)
            .with("steals", stats.steals),
    );
    out.host(&pass.contention);

    if opts.trace {
        let span_stats = urcl::trace::span_stats();
        let doc = urcl::trace::snapshot();
        let (parse_ms, encode_ms) = json_costs(&fx, &pass);
        // Tracing overhead: the same fixed work again, untraced, on the
        // warm server.
        let plain = timed_pass(&mut fx, &plan);
        let plain_rtt: Vec<f64> = plain
            .conns
            .iter()
            .flat_map(|c| c.rtt_s.iter().copied())
            .collect();
        layers::serve(
            &mut out,
            &layers::ServeTimes {
                rtt_ms: mean(&rtt) * 1e3,
                untraced_rtt_ms: mean(&plain_rtt) * 1e3,
                parse_ms,
                encode_ms,
                reload_ms: mean(&pass.swaps.reload_s) * 1e3,
                requests: stats.requests,
                forwarded: stats.requests - stats.cache_hits - stats.dedup_joins,
                cache_hit_ratio: stats.cache_hits as f64 / stats.requests.max(1) as f64,
                dedup_joins: stats.dedup_joins,
                rss_growth_kib: pass.rss_growth_kib,
            },
            &span_stats,
            &doc,
        );
        out.set("host.steal_frac", pass.contention.steal_frac);
        out.set("host.runqueue_wait_s", pass.contention.runqueue_wait_s);
    }
    out
}

/// Mean milliseconds to parse one of the workload's request bodies and to
/// build and encode one forecast response, timed by the benchmark.
fn json_costs(fx: &Fixture, pass: &Pass) -> (f64, f64) {
    let bodies: Vec<String> = fx
        .starts
        .iter()
        .take(256)
        .map(|&s| wire::window_body(fx.window(s).data(), fx.n, fx.c))
        .collect();
    let t0 = Instant::now();
    for body in &bodies {
        std::hint::black_box(
            Value::parse(std::hint::black_box(body)).expect("request body parses"),
        );
    }
    let parse_ms = t0.elapsed().as_secs_f64() * 1e3 / bodies.len() as f64;
    let predictions: Vec<&Vec<f32>> = pass
        .conns
        .iter()
        .flat_map(|c| c.samples.iter().map(|(_, p)| p))
        .collect();
    let reps = 256usize.div_ceil(predictions.len().max(1));
    let t0 = Instant::now();
    for _ in 0..reps {
        for p in &predictions {
            std::hint::black_box(wire::forecast_body(1, std::hint::black_box(p), fx.n));
        }
    }
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3 / (reps * predictions.len()).max(1) as f64;
    (parse_ms, encode_ms)
}
