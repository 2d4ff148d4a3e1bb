//! Validates JSON artifacts produced by the bench binaries: each file must
//! parse, survive a compact-print round-trip unchanged, and — when it
//! declares the `urcl-trace-v1` schema — carry the full trace layout.
//! `scripts/ci.sh` runs this over `BENCH_*.json` and `results/*.json`.
//!
//! Usage: `validate_json FILE.json [FILE.json ...]`
//! Exits non-zero if any file fails.

use urcl_json::Value;

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let value = Value::parse(&text).map_err(|e| format!("parse error: {e:?}"))?;
    let reprinted = value.to_string_compact();
    let reparsed =
        Value::parse(&reprinted).map_err(|e| format!("round-trip parse error: {e:?}"))?;
    if reparsed != value {
        return Err("round-trip through compact printer changed the document".into());
    }
    match value.get("schema").and_then(Value::as_str) {
        Some(s) if s == urcl_trace::SCHEMA => validate_trace(&value)?,
        Some("urcl-bench-serve-v4") => validate_serve(&value)?,
        Some(schema @ ("urcl-bench-train-v6" | "urcl-bench-train-v7" | "urcl-bench-train-v8")) => {
            validate_train(&value, schema)?
        }
        _ => {}
    }
    Ok(())
}

/// Structural checks for `urcl-bench-serve-v4`: every cell carries its
/// configuration axes and a non-empty `per_tenant` array with ordered
/// latency percentiles, the gates block records an aggregate peak over
/// its floor, and the over-the-wire cell is present with its throughput
/// over the wire floor.
fn validate_serve(doc: &Value) -> Result<(), String> {
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("serve key \"cells\" missing or not an array")?;
    if cells.is_empty() {
        return Err("serve \"cells\" is empty".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        for key in [
            "mode",
            "threads",
            "workers",
            "max_batch",
            "cache",
            "requests_per_sec",
        ] {
            if cell.get(key).is_none() {
                return Err(format!("serve cell {i} missing {key:?}"));
            }
        }
        let per_tenant = cell
            .get("per_tenant")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("serve cell {i} missing \"per_tenant\" array"))?;
        if per_tenant.is_empty() {
            return Err(format!("serve cell {i} has no tenants"));
        }
        for t in per_tenant {
            let name = t.get("tenant").and_then(Value::as_str).unwrap_or("?");
            let get = |key: &str| {
                t.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("serve cell {i} tenant {name:?} missing {key:?}"))
            };
            let (p50, p95, p99) = (get("p50_ms")?, get("p95_ms")?, get("p99_ms")?);
            if !(p50 <= p95 && p95 <= p99) {
                return Err(format!(
                    "serve cell {i} tenant {name:?} percentiles unordered: {p50} {p95} {p99}"
                ));
            }
            for key in [
                "requests_per_sec",
                "ok",
                "shed",
                "cache_hits",
                "dedup_joins",
            ] {
                if get(key)? < 0.0 {
                    return Err(format!("serve cell {i} tenant {name:?} {key:?} negative"));
                }
            }
        }
    }
    let gates = doc.get("gates").ok_or("serve key \"gates\" missing")?;
    let floor = gates
        .get("aggregate_floor_rps")
        .and_then(Value::as_f64)
        .ok_or("serve gates missing \"aggregate_floor_rps\"")?;
    let best = gates
        .get("best_aggregate_rps")
        .and_then(Value::as_f64)
        .ok_or("serve gates missing \"best_aggregate_rps\"")?;
    if best < floor {
        return Err(format!(
            "serve best aggregate {best:.0} req/s under the {floor:.0} floor"
        ));
    }
    if !cells
        .iter()
        .any(|c| c.get("mode").and_then(Value::as_str) == Some("wire"))
    {
        return Err("serve missing the \"wire\" cell".into());
    }
    let wire_floor = gates
        .get("wire_floor_rps")
        .and_then(Value::as_f64)
        .ok_or("serve gates missing \"wire_floor_rps\"")?;
    let wire_rps = gates
        .get("wire_rps")
        .and_then(Value::as_f64)
        .ok_or("serve gates missing \"wire_rps\"")?;
    if wire_rps < wire_floor {
        return Err(format!(
            "serve wire throughput {wire_rps:.0} req/s under the {wire_floor:.0} floor"
        ));
    }
    Ok(())
}

/// Structural checks and offline re-gating for `urcl-bench-train-v8`
/// (the train-step sweep, one compiled-plan cell per thread count):
/// every cell carries its thread count and a positive throughput, the
/// cells' bitwise identity is recorded true, and the batch-polymorphism
/// check saw one plan serve several batch sizes with zero recompiles.
/// Artifacts under the previous schemas pass on the keys they share:
/// `-v7` cells also carry a `plan` axis (recorded tape or compiled
/// plan), and `-v6` cells also swept the since-removed pooling and SIMD
/// switches.
fn validate_train(doc: &Value, schema: &str) -> Result<(), String> {
    let axes: &[&str] = if schema == "urcl-bench-train-v8" {
        &["threads"]
    } else {
        &["threads", "plan"]
    };
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("train key \"cells\" missing or not an array")?;
    if cells.is_empty() {
        return Err("train \"cells\" is empty".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        for key in axes {
            if cell.get(key).is_none() {
                return Err(format!("train cell {i} missing {key:?}"));
            }
        }
        match cell.get("steps_per_sec").and_then(Value::as_f64) {
            Some(v) if v > 0.0 => {}
            other => {
                return Err(format!(
                    "train cell {i} \"steps_per_sec\" missing or non-positive: {other:?}"
                ))
            }
        }
    }
    let acc = doc
        .get("acceptance")
        .ok_or("train key \"acceptance\" missing")?;
    match acc.get("bitwise_identical_cells").and_then(Value::as_bool) {
        Some(true) => {}
        Some(false) => return Err("train gate \"bitwise_identical_cells\" recorded false".into()),
        None => return Err("train acceptance missing boolean \"bitwise_identical_cells\"".into()),
    }
    match acc.get("poly_batch_sizes_checked").and_then(Value::as_f64) {
        Some(v) if v >= 2.0 => {}
        other => {
            return Err(format!(
                "train \"poly_batch_sizes_checked\" missing or under 2: {other:?}"
            ))
        }
    }
    match acc.get("poly_recompiles").and_then(Value::as_f64) {
        Some(0.0) => {}
        Some(v) => return Err(format!("batch cycling recompiled {v} times")),
        None => return Err("train acceptance missing \"poly_recompiles\"".into()),
    }
    Ok(())
}

/// Structural checks for a `urcl-trace-v1` document: all top-level
/// sections present with the right JSON types, and every span entry
/// carrying count/total/mean.
fn validate_trace(doc: &Value) -> Result<(), String> {
    for key in ["spans", "counters", "gauges", "histograms", "pool", "plan"] {
        match doc.get(key) {
            Some(Value::Object(_)) => {}
            Some(_) => return Err(format!("trace key {key:?} is not an object")),
            None => return Err(format!("trace key {key:?} missing")),
        }
    }
    let periods = doc
        .get("periods")
        .and_then(Value::as_array)
        .ok_or("trace key \"periods\" missing or not an array")?;
    for p in periods {
        for key in ["name", "mae", "rmse", "mape", "replay_len"] {
            if p.get(key).is_none() {
                return Err(format!("period record missing {key:?}"));
            }
        }
    }
    if let Some(Value::Object(spans)) = doc.get("spans") {
        for (path, stats) in spans {
            for key in ["count", "total_seconds", "mean_seconds"] {
                if stats.get(key).and_then(Value::as_f64).is_none() {
                    return Err(format!("span {path:?} missing numeric {key:?}"));
                }
            }
        }
    }
    // Estimated latency percentiles exported with every histogram: they
    // must be present, ordered, and clamped to the observed range.
    if let Some(Value::Object(hists)) = doc.get("histograms") {
        for (name, h) in hists {
            let get = |key: &str| {
                h.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("histogram {name:?} missing numeric {key:?}"))
            };
            let (p50, p95, p99) = (get("p50")?, get("p95")?, get("p99")?);
            if !(p50 <= p95 && p95 <= p99) {
                return Err(format!(
                    "histogram {name:?} percentiles unordered: {p50} {p95} {p99}"
                ));
            }
            if get("count")? > 0.0 && !(get("min")? <= p50 && p99 <= get("max")?) {
                return Err(format!("histogram {name:?} percentiles outside [min, max]"));
            }
        }
    }
    // Dispatch and buffer-pool telemetry: all counters must be present,
    // numeric and non-negative.
    let pool = doc.get("pool").expect("checked above");
    for key in [
        "par_calls",
        "inline_calls",
        "chunks_dispatched",
        "par_items",
        "par_wait_ns",
        "pool_hit",
        "pool_miss",
        "pool_bytes_recycled",
        "pool_peak_resident_f32",
    ] {
        match pool.get(key).and_then(Value::as_f64) {
            Some(v) if v >= 0.0 => {}
            Some(v) => return Err(format!("pool counter {key:?} negative: {v}")),
            None => return Err(format!("pool counter {key:?} missing or non-numeric")),
        }
    }
    // Plan-engine telemetry: the execution-plan compiler/replayer counts
    // compiles, replays and the per-replay savings (fused stages, dead
    // gradient edges skipped, buffer moves, mid-replay drops). All must
    // be present, numeric and non-negative.
    let plan = doc.get("plan").expect("checked above");
    for key in [
        "compiles",
        "replays",
        "fused_stages",
        "dead_edges_skipped",
        "buffer_moves",
        "values_dropped",
    ] {
        match plan.get(key).and_then(Value::as_f64) {
            Some(v) if v >= 0.0 => {}
            Some(v) => return Err(format!("plan counter {key:?} negative: {v}")),
            None => return Err(format!("plan counter {key:?} missing or non-numeric")),
        }
    }
    // SIMD/host gauges added with the parallel-region telemetry:
    // `simd_isa` is the detected ISA tier code (0 = scalar, 1 = AVX2,
    // 2 = AVX2+FMA-detected) and `host_threads` the physical parallelism
    // the worker pool saw.
    match doc.get("simd_isa").and_then(Value::as_f64) {
        Some(v) if (0.0..=2.0).contains(&v) => {}
        Some(v) => return Err(format!("simd_isa out of range: {v}")),
        None => return Err("trace key \"simd_isa\" missing or non-numeric".into()),
    }
    match doc.get("host_threads").and_then(Value::as_f64) {
        Some(v) if v >= 1.0 => {}
        Some(v) => return Err(format!("host_threads out of range: {v}")),
        None => return Err("trace key \"host_threads\" missing or non-numeric".into()),
    }
    Ok(())
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: validate_json FILE.json [FILE.json ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &files {
        match validate(path) {
            Ok(()) => println!("ok      {path}"),
            Err(msg) => {
                println!("FAILED  {path}: {msg}");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
