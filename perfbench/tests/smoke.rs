//! Smoke test of the benchmark itself: every workload (those of
//! `BENCHMARK.json` and `serve_wire`) runs at reduced
//! size (`--smoke`), untraced and traced, with the seed as an argument. Each
//! run must print every metric `BENCHMARK.json` names for its mode, with the
//! unit it declares, under a well-formed name, and must report output checks
//! that ran and passed.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use urcl::json::Value;

/// The repository root: the benchmark runs from there.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `(name, unit)` of every metric listed under `key`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_follows_the_declared_shape() {
    let doc = benchmark_json();
    let Value::Object(fields) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let end_to_end = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    assert!(end_to_end.iter().any(|m| {
        m.get("name").and_then(Value::as_str) == Some("setup_s")
            && m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower")
    }));
    for m in end_to_end {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    let mut names = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for item in doc.get(key).and_then(Value::as_array).expect(key) {
            let name = item.get("name").and_then(Value::as_str).expect("name");
            assert!(well_formed(name), "bad name {name:?}");
            names.push(name.to_string());
        }
    }
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "every name is used once");
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_checks_outputs() {
    let doc = benchmark_json();
    let mut workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    // Runnable by hand, though not declared: its wall-clock metrics follow
    // the host's steal beyond the bounds (see NOTES.md).
    workloads.push("serve_wire".to_string());
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(root())
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("run perfbench");
            let what = format!("{workload} --trace {trace}");
            assert!(
                out.status.success(),
                "{what} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let lines: Vec<&str> = stdout.lines().collect();
            assert!(lines.len() >= 2, "{what}: a report line and a result line");
            let result = Value::parse(lines[lines.len() - 1]).expect("result line is JSON");
            let report = Value::parse(lines[lines.len() - 2]).expect("report line is JSON");

            let Value::Object(fields) = &result else {
                panic!("{what}: result is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{what}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{what}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{what}"
            );

            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{what}: metrics is an object")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(well_formed(name), "{what}: bad metric name {name:?}");
                    assert!(
                        m.get("value")
                            .and_then(Value::as_f64)
                            .is_some_and(f64::is_finite),
                        "{what}: {name} has a finite value"
                    );
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, declared(&doc, key), "{what}: metrics and units");

            let Some(Value::Object(checks)) = report.get("checks") else {
                panic!("{what}: the report lists its output checks")
            };
            assert!(checks.len() >= 4, "{what}: output checks ran");
            for (check, ok) in checks {
                assert_eq!(ok.as_bool(), Some(true), "{what}: check {check:?}");
            }
        }
    }
}
