//! Structured tracing and metrics for urcl-rs.
//!
//! The paper's efficiency study (Fig. 7) and the ablations need per-stage
//! timing and per-period error curves. This crate provides the observability
//! substrate, std-only like the rest of the workspace:
//!
//! * **hierarchical spans** — [`span`] returns an RAII guard; nested spans
//!   build slash-separated paths (`"period/epoch/step/forward"`) and
//!   aggregate wall-clock totals and hit counts per path,
//! * **named metrics** — monotonic [`counter_add`], last-value [`gauge_set`],
//!   and log-bucketed [`histogram_record`],
//! * **a per-period recorder** — [`record_period`] captures MAE/RMSE/MAPE,
//!   replay-buffer occupancy and RMIR sample counts for each incremental set,
//! * **JSON export** — [`snapshot`] renders everything (plus the tensor
//!   thread-pool dispatch statistics and buffer-pool telemetry:
//!   `pool_hit`, `pool_miss`, `pool_bytes_recycled`,
//!   `pool_peak_resident_f32`, and the parallel-region shape counters
//!   `par_items` / `par_wait_ns`, along with the top-level `host_threads`
//!   and `simd_isa` gauges, plus the plan-engine counters under `plan`)
//!   as a schema-stable `urcl-json` value.
//!
//! Tracing is globally off by default. Every entry point checks a single
//! relaxed atomic first, so the disabled cost is one load + branch — small
//! enough to leave instrumentation in hot training loops permanently
//! (`bench_framework` measures the disabled overhead on a 256³ matmul).
//!
//! Aggregation is process-global behind a mutex; spans are coarse (per
//! stage, not per element) so contention is negligible. Each thread keeps
//! its own path stack, so worker-thread spans nest independently.

#![warn(missing_docs)]

mod metric;
mod recorder;
mod span;
mod stopwatch;

pub use metric::{counter_add, counter_inc, gauge_set, histogram_record};
pub use recorder::{periods, record_period, PeriodRecord};
pub use span::{span, SpanGuard};
pub use stopwatch::Stopwatch;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use urcl_json::Value;

/// Identifies the export layout. Bump when the [`snapshot`] shape changes.
pub const SCHEMA: &str = "urcl-trace-v1";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on. Instrumentation already in place starts recording.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off; [`span`]/counter calls return to no-op cost.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether collection is currently on. The single branch every
/// instrumentation site pays when tracing is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Number of times the span was entered and exited.
    pub count: u64,
    /// Total wall-clock nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry in nanoseconds.
    pub max_ns: u64,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Counts per decade bucket; bucket `i` holds values in
    /// `[10^(i-7), 10^(i-6))`, with the first/last buckets open-ended.
    pub buckets: [u64; metric::HIST_BUCKETS],
}

#[derive(Default)]
pub(crate) struct TraceState {
    pub spans: BTreeMap<String, SpanStats>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub periods: Vec<PeriodRecord>,
}

impl TraceState {
    pub fn record_span(&mut self, path: &str, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let stats = self.spans.entry(path.to_string()).or_default();
        stats.count += 1;
        stats.total_ns += ns;
        stats.max_ns = stats.max_ns.max(ns);
    }
}

fn state() -> MutexGuard<'static, TraceState> {
    static STATE: OnceLock<Mutex<TraceState>> = OnceLock::new();
    STATE
        .get_or_init(|| Mutex::new(TraceState::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn with_state<T>(f: impl FnOnce(&mut TraceState) -> T) -> T {
    f(&mut state())
}

/// Clears all collected spans, metrics and period records, and resets the
/// tensor thread-pool dispatch counters, buffer-pool counters and
/// plan-engine counters. Does not change the enabled flag.
pub fn reset() {
    with_state(|s| *s = TraceState::default());
    urcl_tensor::reset_pool_stats();
    urcl_tensor::reset_buffer_pool_stats();
    urcl_tensor::reset_plan_stats();
}

/// Aggregated span statistics collected so far, keyed by full path.
pub fn span_stats() -> BTreeMap<String, SpanStats> {
    with_state(|s| s.spans.clone())
}

/// Current value of a counter (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    with_state(|s| s.counters.get(name).copied().unwrap_or(0))
}

/// Current value of a gauge, if ever set.
pub fn gauge_value(name: &str) -> Option<f64> {
    with_state(|s| s.gauges.get(name).copied())
}

/// Renders everything collected so far as a schema-stable JSON document.
///
/// Top-level keys: `schema`, `spans`, `counters`, `gauges`, `histograms`,
/// `periods`, `pool`, `plan`. Span and metric maps iterate in sorted
/// (BTreeMap) order so the output is deterministic.
pub fn snapshot() -> Value {
    let pool = urcl_tensor::pool_stats();
    let buf = urcl_tensor::buffer_pool_stats();
    let plan = urcl_tensor::plan_stats();
    with_state(|s| {
        let mut spans = Value::object();
        for (path, st) in &s.spans {
            spans.set(
                path,
                Value::object()
                    .with("count", Value::Num(st.count as f64))
                    .with("total_seconds", Value::Num(st.total_ns as f64 * 1e-9))
                    .with(
                        "mean_seconds",
                        Value::Num(st.total_ns as f64 * 1e-9 / st.count.max(1) as f64),
                    )
                    .with("max_seconds", Value::Num(st.max_ns as f64 * 1e-9)),
            );
        }
        let mut counters = Value::object();
        for (name, v) in &s.counters {
            counters.set(name, Value::Num(*v as f64));
        }
        let mut gauges = Value::object();
        for (name, v) in &s.gauges {
            gauges.set(name, Value::Num(*v));
        }
        let mut histograms = Value::object();
        for (name, h) in &s.histograms {
            histograms.set(name, metric::histogram_to_json(h));
        }
        Value::object()
            .with("schema", Value::Str(SCHEMA.to_string()))
            .with("threads", Value::Num(urcl_tensor::num_threads() as f64))
            .with(
                "host_threads",
                Value::Num(urcl_tensor::host_parallelism() as f64),
            )
            .with(
                "simd_isa",
                Value::Num(urcl_tensor::detected_isa().code() as f64),
            )
            .with("spans", spans)
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
            .with(
                "periods",
                Value::Array(s.periods.iter().map(|p| p.to_json()).collect()),
            )
            .with(
                "pool",
                Value::object()
                    .with("par_calls", Value::Num(pool.par_calls as f64))
                    .with("inline_calls", Value::Num(pool.inline_calls as f64))
                    .with(
                        "chunks_dispatched",
                        Value::Num(pool.chunks_dispatched as f64),
                    )
                    .with("par_items", Value::Num(pool.par_items as f64))
                    .with("par_wait_ns", Value::Num(pool.par_wait_ns as f64))
                    .with("pool_hit", Value::Num(buf.hits as f64))
                    .with("pool_miss", Value::Num(buf.misses as f64))
                    .with("pool_bytes_recycled", Value::Num(buf.bytes_recycled as f64))
                    .with(
                        "pool_peak_resident_f32",
                        Value::Num(buf.peak_live_f32 as f64),
                    ),
            )
            .with(
                "plan",
                Value::object()
                    .with("compiles", Value::Num(plan.compiles as f64))
                    .with("replays", Value::Num(plan.replays as f64))
                    .with("fused_stages", Value::Num(plan.fused_stages as f64))
                    .with(
                        "dead_edges_skipped",
                        Value::Num(plan.dead_edges_skipped as f64),
                    )
                    .with("buffer_moves", Value::Num(plan.buffer_moves as f64))
                    .with("values_dropped", Value::Num(plan.values_dropped as f64)),
            )
    })
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that touch the process-global trace state.
    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = test_lock::hold();
        disable();
        reset();
        {
            let _sp = span("ghost");
        }
        counter_add("ghost.count", 3);
        assert!(span_stats().is_empty());
        assert_eq!(counter_value("ghost.count"), 0);
    }

    #[test]
    fn nested_spans_build_paths() {
        let _guard = test_lock::hold();
        enable();
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        disable();
        let stats = span_stats();
        assert_eq!(stats["outer"].count, 1);
        assert_eq!(stats["outer/inner"].count, 2);
        assert!(stats["outer"].total_ns >= stats["outer/inner"].total_ns);
        assert!(stats["outer/inner"].max_ns <= stats["outer/inner"].total_ns);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _guard = test_lock::hold();
        enable();
        reset();
        counter_add("c", 2);
        counter_inc("c");
        gauge_set("g", 1.5);
        gauge_set("g", 2.5);
        disable();
        assert_eq!(counter_value("c"), 3);
        assert_eq!(gauge_value("g"), Some(2.5));
    }

    #[test]
    fn snapshot_schema_is_stable() {
        let _guard = test_lock::hold();
        enable();
        reset();
        {
            let _sp = span("work");
        }
        counter_add("items", 5);
        gauge_set("level", 0.75);
        histogram_record("latency", 1e-3);
        record_period(PeriodRecord {
            name: "B_set".into(),
            mae: 1.0,
            rmse: 2.0,
            mape: 10.0,
            epochs: 3,
            train_seconds_per_epoch: 0.5,
            mean_loss: 0.9,
            replay_len: 16,
            replay_capacity: 64,
            rmir_selected: 8,
        });
        disable();
        let doc = snapshot();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        for key in [
            "spans",
            "counters",
            "gauges",
            "histograms",
            "periods",
            "pool",
            "plan",
            "host_threads",
            "simd_isa",
        ] {
            assert!(doc.get(key).is_some(), "missing top-level key {key}");
        }
        // The plan object exports the execution-plan engine's counters;
        // dashboards key off these names to confirm plans are actually
        // replaying (compiles low and constant, replays growing).
        let plan = doc.get("plan").expect("plan");
        for key in [
            "compiles",
            "replays",
            "fused_stages",
            "dead_edges_skipped",
            "buffer_moves",
            "values_dropped",
        ] {
            assert!(
                plan.get(key).and_then(Value::as_u64).is_some(),
                "missing plan counter {key}"
            );
        }
        // The SIMD gauge reports the active ISA tier and the pool object
        // carries the parallel-region telemetry added for the scaling
        // work; both must stay present for dashboard consumers.
        let isa = doc
            .get("simd_isa")
            .and_then(Value::as_u64)
            .expect("simd_isa");
        assert!(isa <= 2, "unknown ISA code {isa}");
        let pool = doc.get("pool").expect("pool");
        for key in ["par_items", "par_wait_ns"] {
            assert!(
                pool.get(key).and_then(Value::as_u64).is_some(),
                "missing pool counter {key}"
            );
        }
        let work = doc.get("spans").and_then(|s| s.get("work")).expect("span");
        assert_eq!(work.get("count").and_then(Value::as_u64), Some(1));
        let periods = doc
            .get("periods")
            .and_then(Value::as_array)
            .expect("periods");
        assert_eq!(periods.len(), 1);
        assert_eq!(
            periods[0].get("name").and_then(Value::as_str),
            Some("B_set")
        );
        // Round-trips through the parser without loss.
        let text = doc.to_string_pretty();
        assert_eq!(Value::parse(&text).expect("reparse"), doc);
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = test_lock::hold();
        enable();
        reset();
        counter_add("x", 1);
        {
            let _sp = span("y");
        }
        reset();
        disable();
        assert_eq!(counter_value("x"), 0);
        assert!(span_stats().is_empty());
    }
}
