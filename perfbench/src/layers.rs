//! Per-layer attribution of a traced run. The program already exports
//! spans, histograms and pool/plan counters through `urcl-trace`; this
//! module turns them, plus the benchmark's own timings around the public
//! calls it makes, into named layers with a count, a self time and a
//! share, and a residual no layer claims.

use std::collections::BTreeMap;

use urcl::json::Value;
use urcl::trace::SpanStats;

use crate::Measured;

/// The layer a span name stands for.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "plan_compile" => "tensor.plan.compile_s",
        "plan_exec" => "tensor.plan.exec_s",
        "optim" => "tensor.optim_s",
        "virtual_update" => "core.rmir.virtual_update_s",
        "rmir" => "core.rmir.score_s",
        "stmixup" => "core.mixup_s",
        "replay" => "core.replay.gather_s",
        "augment" => "core.augment_s",
        "eval" => "core.eval.forward_s",
        "step" => "core.trainer.data_s",
        _ => return None,
    })
}

/// The layer that owns a span path's self time: the one its own name
/// stands for. A span that names none (`encode`, `decode` while a model
/// records) belongs to an enclosing plan compile, whose layer is the
/// compile spans' whole time. Anything else — the self time of `period`
/// and `epoch` (window building, shuffling, pool trimming), interpreter
/// passes (`forward`, `backward`) and unnamed spans elsewhere — stays
/// unattributed.
fn owner(path: &str) -> Option<&'static str> {
    let mut segments = path.rsplit('/');
    let leaf = segments.next()?;
    layer_of(leaf).or_else(|| {
        segments
            .any(|s| s == "plan_compile")
            .then_some("tensor.plan.compile_s")
    })
}

/// Span time minus the part of it its direct child spans cover.
fn self_ns(stats: &BTreeMap<String, SpanStats>, path: &str) -> u64 {
    let prefix = format!("{path}/");
    let children: u64 = stats
        .iter()
        .filter(|(p, _)| {
            p.strip_prefix(&prefix)
                .is_some_and(|rest| !rest.contains('/'))
        })
        .map(|(_, s)| s.total_ns)
        .sum();
    stats[path].total_ns.saturating_sub(children)
}

/// Total time and entries of every span whose last segment is `name`.
fn named(stats: &BTreeMap<String, SpanStats>, name: &str) -> (f64, u64) {
    stats
        .iter()
        .filter(|(p, _)| p.rsplit('/').next() == Some(name))
        .fold((0.0, 0), |(t, n), (_, s)| {
            (t + s.total_ns as f64 * 1e-9, n + s.count)
        })
}

/// A number inside the trace snapshot, by key path (0 when absent).
fn snap(doc: &Value, keys: &[&str]) -> f64 {
    keys.iter()
        .try_fold(doc, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Mean of a trace histogram (0 when it recorded nothing).
fn hist_mean(doc: &Value, name: &str) -> f64 {
    let count = snap(doc, &["histograms", name, "count"]);
    if count == 0.0 {
        0.0
    } else {
        snap(doc, &["histograms", name, "sum"]) / count
    }
}

/// Pool and plan counters every traced run reports.
fn pool_and_plan(out: &mut Measured, doc: &Value) {
    let (hit, miss) = (
        snap(doc, &["pool", "pool_hit"]),
        snap(doc, &["pool", "pool_miss"]),
    );
    out.set(
        "tensor.pool.hit_ratio",
        if hit + miss == 0.0 {
            0.0
        } else {
            hit / (hit + miss)
        },
    );
    out.set(
        "tensor.pool.peak_resident_mb",
        snap(doc, &["pool", "pool_peak_resident_f32"]) * 4.0 / (1024.0 * 1024.0),
    );
    out.set("tensor.plan.compiles", snap(doc, &["plan", "compiles"]));
}

/// Benchmark-side timings of a traced protocol run.
pub struct StreamTimes {
    pub protocol_s: f64,
    pub untraced_protocol_s: f64,
    /// Sum of the intervals between `after_step` calls.
    pub step_s: f64,
    /// Sum of the gaps from each period's last step until the trainer
    /// returns (eval and the period report).
    pub eval_s: f64,
    /// Sum of the publishes: trainer snapshot plus `CheckpointDir::save`.
    pub publish_s: f64,
    pub publish_bytes: u64,
}

/// Splits a traced streaming run's `protocol_s` into layers.
pub fn stream(
    out: &mut Measured,
    t: &StreamTimes,
    stats: &BTreeMap<String, SpanStats>,
    doc: &Value,
) {
    // Leaf layers partition the trainer's span tree by self time; the
    // publish is timed by the benchmark around its own call.
    let mut leaves: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (path, s) in stats.iter().filter(|(p, _)| p.starts_with("period")) {
        let Some(layer) = owner(path) else { continue };
        let entry = leaves.entry(layer).or_default();
        entry.0 += self_ns(stats, path) as f64 * 1e-9;
        if layer_of(path.rsplit('/').next().unwrap_or_default()) == Some(layer) {
            entry.1 += s.count;
        }
    }
    let saves = named(stats, "checkpoint_save").1;
    leaves.insert("core.persist.save_s", (t.publish_s, saves));

    let attributed: f64 = leaves.values().map(|(s, _)| s).sum();
    let unattributed = t.protocol_s - attributed;
    let mut report = Value::object();
    for (layer, (secs, count)) in &leaves {
        out.set(layer, *secs);
        report.set(
            layer,
            Value::object()
                .with("count", *count)
                .with("self_s", *secs)
                .with("share", secs / t.protocol_s),
        );
    }
    out.set("core.trainer.step_s", t.step_s);
    out.set("core.eval_s", t.eval_s);
    out.set(
        "core.eval.compile_s",
        stats
            .get("period/eval/plan_compile")
            .map_or(0.0, |s| s.total_ns as f64 * 1e-9),
    );
    out.set("core.persist.save_bytes", t.publish_bytes as f64);
    out.set("unattributed_s", unattributed);
    out.set("unattributed_frac", unattributed / t.protocol_s);
    out.set(
        "trace.overhead_frac",
        t.protocol_s / t.untraced_protocol_s - 1.0,
    );
    pool_and_plan(out, doc);
    out.note(
        "layers",
        Value::object()
            .with("protocol_s", t.protocol_s)
            .with("untraced_protocol_s", t.untraced_protocol_s)
            .with("leaves", report)
            .with("unattributed_s", unattributed)
            .with("unattributed_frac", unattributed / t.protocol_s),
    );
}

/// Benchmark-side timings of a traced serving run, per request.
pub struct ServeTimes {
    pub rtt_ms: f64,
    pub untraced_rtt_ms: f64,
    pub parse_ms: f64,
    pub encode_ms: f64,
    pub reload_ms: f64,
    pub requests: u64,
    pub forwarded: u64,
    pub cache_hit_ratio: f64,
    pub dedup_joins: u64,
    pub rss_growth_kib: f64,
}

/// Splits a traced serving run's mean round trip into wire, parse, queue
/// wait, forward, encode and a residual.
pub fn serve(out: &mut Measured, t: &ServeTimes, stats: &BTreeMap<String, SpanStats>, doc: &Value) {
    let dispatch_ms = hist_mean(doc, "serve.http.latency_seconds") * 1e3;
    let wire_ms = t.rtt_ms - dispatch_ms;
    let batch = stats.get("serve_batch").copied().unwrap_or_default();
    let batch_ms = batch.total_ns as f64 * 1e-6 / batch.count.max(1) as f64;
    // Per forwarded request: enqueue-to-reply minus the batch it ran in.
    let queue_wait_ms = if t.forwarded == 0 {
        0.0
    } else {
        hist_mean(doc, "serve.latency_seconds") * 1e3 - batch_ms
    };
    let forward = stats
        .get("serve_batch/serve_forward")
        .copied()
        .unwrap_or_default();
    let forward_ms = forward.total_ns as f64 * 1e-6 / forward.count.max(1) as f64;
    let (compile_s, _) = named(stats, "plan_compile");

    out.set("serve.http.rtt_ms", t.rtt_ms);
    out.set("serve.http.dispatch_ms", dispatch_ms);
    out.set("serve.http.wire_ms", wire_ms);
    out.set("json.parse_ms", t.parse_ms);
    out.set("json.encode_ms", t.encode_ms);
    out.set("serve.shard.queue_wait_ms", queue_wait_ms);
    out.set("serve.shard.batch_size", hist_mean(doc, "serve.batch_size"));
    out.set("serve.snapshot.forward_ms", forward_ms);
    out.set("serve.snapshot.reload_ms", t.reload_ms);
    out.set("serve.cache.hit_ratio", t.cache_hit_ratio);
    out.set("serve.cache.dedup_joins", t.dedup_joins as f64);
    out.set("tensor.plan.compile_s", compile_s);
    out.set(
        "tensor.pool.rss_growth_kb_per_req",
        t.rss_growth_kib / t.requests.max(1) as f64,
    );
    out.set("trace.overhead_frac", t.rtt_ms / t.untraced_rtt_ms - 1.0);
    pool_and_plan(out, doc);

    // The mean round trip, split per request: forwarded-only costs are
    // weighted by the share of requests that reached a shard.
    let share = t.forwarded as f64 / t.requests.max(1) as f64;
    let batches_per_req = batch.count as f64 / t.requests.max(1) as f64;
    // (layer, mean ms per request, how many times the layer ran)
    let parts = [
        ("wire_ms", wire_ms, t.requests),
        ("json_parse_ms", t.parse_ms, t.requests),
        ("queue_wait_ms", queue_wait_ms * share, t.forwarded),
        ("forward_ms", forward_ms * batches_per_req, forward.count),
        ("json_encode_ms", t.encode_ms, t.requests),
    ];
    let named_ms: f64 = parts.iter().map(|(_, ms, _)| ms).sum();
    let mut split = Value::object().with("rtt_ms", t.rtt_ms);
    for (name, ms, count) in parts {
        split.set(
            name,
            Value::object()
                .with("count", count)
                .with("ms", ms)
                .with("share", ms / t.rtt_ms),
        );
    }
    split.set("other_ms", t.rtt_ms - named_ms);
    out.note(
        "layers",
        Value::object()
            .with("untraced_rtt_ms", t.untraced_rtt_ms)
            .with("rtt_split", split)
            .with("batches", batch.count)
            .with("forwarded_share", share),
    );
}
