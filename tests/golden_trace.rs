//! Golden-trace regression test: a fixed-seed tiny continual run with
//! tracing enabled must emit a `urcl-trace-v1` document with the expected
//! span tree, counters and period records, and must reproduce the pinned
//! final MAE. Catches silent schema drift in the trace exporter and
//! numeric drift in the pipeline in one place.
//!
//! Lives in its own integration binary because the trace recorder is
//! process-global state.

use urcl::core::{ContinualTrainer, StSimSiam, TrainerConfig};
use urcl::json::Value;
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{ParamStore, Rng};
use urcl::trace;

/// Final-period MAE of the pinned run below (seed 31, 3 days, stride 16,
/// 1+1 epochs). Re-pin deliberately if the pipeline numerics change.
const GOLDEN_FINAL_MAE: f64 = 23.0244;
const GOLDEN_TOL: f64 = 0.5;

/// Span paths the trainer instrumentation must produce on every run: the
/// step path compiles a plan once and replays it every step.
const REQUIRED_SPANS: &[&str] = &[
    "period",
    "period/epoch",
    "period/epoch/step",
    "period/epoch/step/optim",
    "period/epoch/step/replay",
    "period/epoch/step/replay/rmir",
    "period/epoch/step/replay/rmir/virtual_update",
    "period/eval",
    "period/epoch/step/plan_compile",
    "period/epoch/step/plan_compile/encode",
    "period/epoch/step/plan_compile/decode",
    "period/epoch/step/plan_exec",
];

#[test]
fn traced_pipeline_matches_golden_schema_and_mae() {
    let mut cfg = DatasetConfig::metr_la().tiny();
    cfg.num_days = 3;
    let dataset = SyntheticDataset::generate(cfg);
    let normalizer = dataset.fit_normalizer();
    let raw = dataset.continual_split(2);
    let split = ContinualSplit {
        base: raw.base.normalized(&normalizer),
        incremental: raw
            .incremental
            .iter()
            .map(|p| p.normalized(&normalizer))
            .collect(),
    };
    let scale = normalizer.scale(dataset.config.target_channel);

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(31);
    let mut gcfg = GwnConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    gcfg.layers = 2;
    let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, gcfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);

    trace::reset();
    trace::enable();
    let tcfg = TrainerConfig {
        epochs_base: 1,
        epochs_incremental: 1,
        window_stride: 16,
        ..TrainerConfig::default()
    };
    let mut trainer = ContinualTrainer::new(tcfg);
    let report = trainer.run(
        &model,
        Some(&simsiam),
        &mut store,
        &dataset.network,
        &split,
        &dataset.config,
        scale,
    );
    trace::disable();
    let doc = trace::snapshot();

    // --- schema ---
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(trace::SCHEMA)
    );
    for key in [
        "threads",
        "spans",
        "counters",
        "gauges",
        "histograms",
        "periods",
        "pool",
        "plan",
    ] {
        assert!(doc.get(key).is_some(), "missing top-level key {key}");
    }
    // Round-trips through the in-tree parser without loss.
    let text = doc.to_string_pretty();
    assert_eq!(Value::parse(&text).expect("trace JSON reparses"), doc);

    // --- span tree ---
    let spans = doc.get("spans").expect("spans");
    for path in REQUIRED_SPANS {
        let sp = spans
            .get(path)
            .unwrap_or_else(|| panic!("missing span {path}"));
        let count = sp.get("count").and_then(Value::as_u64).unwrap_or(0);
        assert!(count > 0, "span {path} never entered");
        let total = sp.get("total_seconds").and_then(Value::as_f64).unwrap();
        let mean = sp.get("mean_seconds").and_then(Value::as_f64).unwrap();
        assert!(total >= 0.0 && mean >= 0.0);
    }

    // --- counters and gauges ---
    let counters = doc.get("counters").expect("counters");
    let steps = counters
        .get("train.steps")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(steps > 0, "no training steps counted");
    assert!(
        counters
            .get("replay.sampled")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0,
        "replay sampling not counted"
    );
    assert!(
        doc.get("gauges")
            .and_then(|g| g.get("replay.occupancy"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "replay occupancy gauge not set"
    );

    // --- buffer-pool telemetry: populated by the traced training run ---
    let pool = doc.get("pool").expect("pool");
    for key in [
        "pool_hit",
        "pool_miss",
        "pool_bytes_recycled",
        "pool_peak_resident_f32",
    ] {
        let v = pool.get(key).and_then(Value::as_f64);
        assert!(
            v.is_some_and(|v| v >= 0.0),
            "pool counter {key} missing or negative: {v:?}"
        );
    }
    assert!(
        pool.get("pool_hit").and_then(Value::as_u64).unwrap() > 0,
        "training with pooling on should recycle buffers"
    );
    assert!(
        pool.get("pool_peak_resident_f32")
            .and_then(Value::as_u64)
            .unwrap()
            > 0,
        "peak resident watermark never moved"
    );

    // --- plan telemetry: the traced run trains and evaluates through
    // compiled plans, so the counters must show real compiles and at
    // least as many replays as compiles ---
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
            "plan counter {key} missing"
        );
    }
    // One step plan, one RMIR virtual-update plan and one forward plan,
    // which RMIR scoring and every evaluation replay. Exact: this test
    // is its binary's only one, so no other test feeds the counter.
    let compiles = plan.get("compiles").and_then(Value::as_u64).unwrap();
    let replays = plan.get("replays").and_then(Value::as_u64).unwrap();
    assert_eq!(compiles, 3, "plan compiles");
    assert!(
        replays >= compiles,
        "every compiled plan should replay at least once ({replays} vs {compiles})"
    );

    // --- period records: one per streaming set, fields populated ---
    let periods = doc
        .get("periods")
        .and_then(Value::as_array)
        .expect("periods");
    assert_eq!(periods.len(), report.sets.len());
    assert_eq!(periods.len(), 3);
    for (p, set) in periods.iter().zip(&report.sets) {
        assert_eq!(
            p.get("name").and_then(Value::as_str),
            Some(set.name.as_str())
        );
        let mae = p.get("mae").and_then(Value::as_f64).unwrap();
        assert!((mae - set.mae as f64).abs() < 1e-6);
        assert!(p.get("rmse").and_then(Value::as_f64).unwrap() >= mae * 0.99);
        assert!(p.get("mape").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(p.get("replay_len").and_then(Value::as_u64).is_some());
        assert!(p.get("rmir_selected").and_then(Value::as_u64).is_some());
    }

    // --- golden MAE: fixed seeds must reproduce the pinned value ---
    let final_mae = periods
        .last()
        .unwrap()
        .get("mae")
        .and_then(Value::as_f64)
        .unwrap();
    assert!(
        (final_mae - GOLDEN_FINAL_MAE).abs() < GOLDEN_TOL,
        "final MAE {final_mae} drifted from golden {GOLDEN_FINAL_MAE} (tol {GOLDEN_TOL})"
    );
}
